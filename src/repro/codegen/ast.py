"""Polyhedral AST generation: schedule trees to imperative loop nests.

The classical isl-style generator "scans" the schedule: every band row
becomes a loop whose bounds are derived from the statement domains by
projection (Fourier-Motzkin), sequences order their children, filters
restrict statements, tile bands produce strided tile loops, and marks
render as annotations (``skipped`` subtrees are omitted entirely, exactly
as Sec. 4.3 requires for post-tiling fusion).

The generator supports the band shapes AKG emits (identity rows and tile
bands).  General skewed rows would need schedule-space scanning with an
inverse map; those rows, and rows over names outside the lead
statement's domain (the fractal GEMM band of a cube kernel), render as
annotated opaque loops instead of failing, keeping the printer total.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.lower import PolyStatement
from repro.ir.stmt import Block, Evaluate, For, Provide, Stmt
from repro.poly.affine import AffineExpr
from repro.sched.tree import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
    SetNode,
)


def generate_ast(
    tree: DomainNode, statements: Sequence[PolyStatement]
) -> Stmt:
    """Generate the loop-nest AST of a scheduled (possibly tiled) tree."""
    stmt_by_id = {s.stmt_id: s for s in statements}
    gen = _AstGenerator(tree, stmt_by_id)
    body = gen.visit(tree.child, set(tree.dims))
    return body if body is not None else Block([])


class _AstGenerator:
    def __init__(self, tree: DomainNode, stmt_by_id: Dict[str, PolyStatement]):
        self.tree = tree
        self.stmt_by_id = stmt_by_id
        self._tile_counter = 0

    # -- dispatch ----------------------------------------------------------------

    def visit(self, node: Optional[ScheduleNode], active: Set[str]) -> Optional[Stmt]:
        if node is None:
            return None
        if isinstance(node, MarkNode):
            if node.name == "skipped":
                return None  # scheduled elsewhere by an extension node
            inner = self.visit(node.child, active)
            if inner is None:
                return None
            return Block([Evaluate(f"// mark: {node.name}"), inner])
        if isinstance(node, FilterNode):
            active = active & set(node.stmt_ids)
            if not active:
                return None
            return self.visit(node.child, active)
        if isinstance(node, (SequenceNode, SetNode)):
            parts = [self.visit(c, set(active)) for c in node.children]
            parts = [p for p in parts if p is not None]
            if not parts:
                return None
            return Block(parts)
        if isinstance(node, ExtensionNode):
            intro = Evaluate(
                "// extension: "
                + ", ".join(f"{sid} per tile" for sid in node.extensions)
            )
            inner = self.visit(node.child, active | set(node.extensions))
            return Block([intro, inner] if inner else [intro])
        if isinstance(node, BandNode):
            return self._visit_band(node, active)
        if isinstance(node, LeafNode) or not node.children:
            return self._emit_leaf(active)
        return self.visit(node.child, active)

    # -- bands ----------------------------------------------------------------------

    def _visit_band(self, band: BandNode, active: Set[str]) -> Optional[Stmt]:
        # Band order, not set order: the lead names the loops.
        relevant = [sid for sid in band.schedules if sid in active]
        if not relevant:
            return self.visit(band.child, active)
        lead = self.stmt_by_id[relevant[0]]
        rows = band.schedules[relevant[0]]

        body = self.visit(band.child, active)
        if body is None:
            body = self._emit_leaf(active)

        for r in range(band.n_rows - 1, -1, -1):
            expr = rows[r]
            dim = expr.as_variable()
            if dim is None or dim not in lead.iter_names:
                # A skewed row, or one over names the lead's domain does
                # not bound (the fractal GEMM's fm/fn/fk): no scanned bounds.
                what = "skewed row" if dim is None else "row outside the domain"
                body = For(
                    f"c{r}", 0, "?",
                    Block([Evaluate(f"// {what}: {expr!r}"), body]),
                )
                continue
            lo, hi = self._dim_bounds(lead, expr)
            extent = hi - lo + 1
            if band.tile_sizes:
                size = min(band.tile_sizes[r], extent)
                n_tiles = -(-extent // size)
                tile_var = f"{dim}_t"
                body = For(
                    tile_var, 0, n_tiles, body, annotation=f"tile x{size}"
                )
            else:
                body = For(dim, lo, extent, body)
        return body

    @staticmethod
    def _dim_bounds(stmt: PolyStatement, row: AffineExpr) -> Tuple[int, int]:
        """``(min, max)`` of an identity row over ``stmt``'s iteration box,
        in closed form (:meth:`~repro.ir.lower.PolyStatement.box_bounds`,
        as ``posttile.band_row_spans`` reads it: neither poses an ILP);
        ``(0, 0)`` for an empty box."""
        bounds = stmt.box_bounds(row)
        return (0, 0) if bounds is None else bounds

    # -- leaves --------------------------------------------------------------------

    def _emit_leaf(self, active: Set[str]) -> Stmt:
        provides: List[Stmt] = []
        for sid in sorted(active):
            stmt = self.stmt_by_id.get(sid)
            if stmt is None:
                continue
            indices = [repr(e) for e in (stmt.write.indices or [])]
            provides.append(Provide(stmt.tensor.name, indices, stmt.expr))
        return Block(provides) if provides else Evaluate("// empty")
