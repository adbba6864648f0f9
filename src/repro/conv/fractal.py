"""Fractal GEMM decomposition (Sec. 4.5, Fig. 7).

The Cube Unit consumes GEMMs decomposed into aligned last-level fractal
blocks (16 x 16 x 16 for fp16 on DaVinci).  This module

- derives the logical GEMM shape ``(M, K, N)`` of any cube statement
  (matmul, batched matmul, convolution-after-img2col),
- pads each extent up to the fractal block (``aligned_shape``), exactly
  the "aligned (and padded if necessary)" tiles of Fig. 7, and
- builds the external schedule-tree fragment (tiled bands following the
  red/green traversal order of Fig. 7) that AKG grafts over the original
  convolution subtree.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.lower import PolyStatement
from repro.poly.affine import AffineExpr
from repro.sched.tree import BandNode, LeafNode, MarkNode, ScheduleNode


class FractalGemm:
    """One cube-unit GEMM: logical shape, aligned shape, padding waste."""

    def __init__(self, m: int, k: int, n: int, block: Tuple[int, int, int] = (16, 16, 16)):
        self.m, self.k, self.n = m, k, n
        self.block = block

    @property
    def aligned(self) -> Tuple[int, int, int]:
        """Extents rounded up to the fractal block."""
        bm, bk, bn = self.block
        up = lambda v, b: -(-v // b) * b
        return (up(self.m, bm), up(self.k, bk), up(self.n, bn))

    @property
    def blocks(self) -> int:
        """Number of last-level fractal blocks the Cube Unit executes."""
        am, ak, an = self.aligned
        bm, bk, bn = self.block
        return (am // bm) * (ak // bk) * (an // bn)

    @property
    def padding_waste(self) -> float:
        """Fraction of MACs wasted on alignment padding (0 = none)."""
        am, ak, an = self.aligned
        useful = self.m * self.k * self.n
        total = am * ak * an
        return 1.0 - useful / total if total else 0.0

    def __repr__(self) -> str:
        return f"FractalGemm({self.m}x{self.k}x{self.n}, blocks={self.blocks})"


def _weight_read(stmt: PolyStatement):
    """The operand whose indices use only reduce dims plus one data dim
    (the kernel/weight side of the product), if identifiable.

    When both operands qualify (a plain GEMM), the one indexed by the
    *last* data dimension is the weight -- the ``Y``/N side of Fig. 6.
    """
    reduce_dims = set(stmt.reduce_iters)
    data_dims = set(stmt.data_iters)
    candidates = []
    for read in stmt.reads:
        if read.tensor is stmt.tensor or not read.is_affine:
            continue
        used = set()
        for idx in read.indices:
            used.update(idx.variables())
        data_used = used & data_dims
        if len(data_used) <= 1 and used & reduce_dims:
            candidates.append((read, data_used))
    if not candidates:
        return None, set()
    last_dim = stmt.data_iters[-1] if stmt.data_iters else None
    for read, data_used in candidates:
        if data_used == {last_dim}:
            return read, data_used
    return candidates[0]


def gemm_shape_of(
    stmt: PolyStatement, extents: Optional[Dict[str, int]] = None
) -> Tuple[int, int, int]:
    """Logical (M, K, N) of a cube statement over the given dim extents.

    ``extents`` maps iteration dim names to their (tile-local) extents;
    defaults to the full domain extents.  The weight-side data dimension
    becomes N; all remaining data dims fold into M (batch folds into M,
    matching how img2col flattens ``N*Ho*Wo`` into GEMM rows); the reduce
    dims fold into K.
    """
    if extents is None:
        extents = dict(zip(stmt.iter_names, stmt.iter_extents))
    _, n_dims = _weight_read(stmt)
    m = 1
    n = 1
    for d in stmt.data_iters:
        if d in n_dims:
            n *= extents[d]
        else:
            m *= extents[d]
    k = 1
    for d in stmt.reduce_iters:
        k *= extents[d]
    if n == 1 and len(stmt.data_iters) > 1:
        # No identifiable weight side (e.g. symmetric product): peel the
        # innermost data dim as N, the usual matmul convention.
        last = stmt.data_iters[-1]
        n = extents[last]
        m //= max(n, 1)
        m = max(m, 1)
    return (m, k, n)


def fractal_gemm_for(
    stmt: PolyStatement,
    extents: Optional[Dict[str, int]] = None,
    block: Tuple[int, int, int] = (16, 16, 16),
) -> FractalGemm:
    """The fractal GEMM executed for one tile of a cube statement."""
    m, k, n = gemm_shape_of(stmt, extents)
    return FractalGemm(m, k, n, block)


def fractal_subtree(
    stmt: PolyStatement,
    gemm: FractalGemm,
) -> ScheduleNode:
    """The external polyhedral IR grafted over a convolution subtree.

    A mark node tags the region for the code generator (which lowers it to
    img2col + MMAD intrinsics); inside, the GEMM's three logical dims are
    tiled by the fractal block following Fig. 7 -- the tile band walks
    blocks (red order), the point band walks within a block (green order).
    """
    bm, bk, bn = gemm.block
    mv, kv, nv = (
        AffineExpr.variable("fm"),
        AffineExpr.variable("fk"),
        AffineExpr.variable("fn"),
    )
    point = BandNode(
        {stmt.stmt_id: [mv, nv, kv]},
        LeafNode(),
        permutable=True,
    )
    tiles = BandNode(
        {stmt.stmt_id: [mv, nv, kv]},
        point,
        permutable=True,
        tile_sizes=[bm, bn, bk],
    )
    return MarkNode("fractal_gemm", tiles)


def graft_fractal(
    tree,
    stmt: PolyStatement,
    gemm: FractalGemm,
):
    """Replace the statement's point-loop subtree with the fractal IR.

    Finds the innermost band scheduling only ``stmt`` (its reduce band in
    the scheduled tree) and swaps in the external fragment, mirroring the
    pink region of Fig. 3(f).
    """
    from repro.sched.tree import FilterNode

    target = None
    for node in tree.walk():
        if (
            isinstance(node, FilterNode)
            and node.stmt_ids == (stmt.stmt_id,)
            and node.child is not None
        ):
            target = node
    if target is None:
        raise ValueError(f"no subtree found for {stmt.stmt_id}")
    target.set_child(fractal_subtree(stmt, gemm))
    return tree


def graft_fractal_subtrees(tree, groups, assignment, block: int) -> None:
    """Replace every cube statement's point subtree with the external
    fractal GEMM IR (the Sec. 4.5 graft, pink region of Fig. 3f)."""
    for group in groups:
        for stmt in group.statements:
            if assignment.units.get(stmt.stmt_id) != "cube":
                continue
            if stmt.kind != "reduce":
                continue
            extents = dict(
                zip(stmt.iter_names, group.instance_extents(stmt.stmt_id))
            )
            gemm = fractal_gemm_for(stmt, extents, block=block)
            try:
                graft_fractal(tree, stmt, gemm)
            except ValueError:
                pass  # statement scheduled without its own filter subtree
