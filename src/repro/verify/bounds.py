"""Static bounds checker: every instance lies in a tile, and every access
of every tile stays in extents.

Each live-out band row's range over its statement's box must lie inside
the tile grid the instance relation partitions it into, one grid per band
row across the band's statements (closed form, no solver): an instance
outside the grid is never executed, and one in another statement's tile
runs out of the order the schedule proved.

For each statement of each tiled group the instance relation (tile
indices -> statement instances) is intersected with the statement's
access relations (instances -> tensor elements) and the tile grid
(``0 <= o_d <= count_d - 1``).  Fourier-Motzkin projection onto each
tensor coordinate then yields the interval of indices *any* tile can
touch; the program is in bounds exactly when every interval fits inside
``[0, extent - 1]``.  FM is exact over the rationals and a superset
over the integers, so the proof errs on the conservative side; the
rational endpoints are rounded inward (``ceil``/``floor``) before
comparison because accessed indices are integral.

Padding reads are ``Select``-guarded in the statement expression (the
runtime evaluates the guard first and never touches memory outside it,
and img2col pads in flight), so the checker re-parses each read's
enclosing guard conditions into affine constraints and proves bounds
only over the guarded index set.  A guard that fails to parse adds no
constraints — erring toward rejection, never acceptance.

Clamped symbolic-dim replays (DESIGN §3.7) only shrink the instance
boxes, so the concrete proof at the declared maximum covers every
binding of the batch dim; the symbolic axes are additionally checked
parametrically — the index along a symbolic tensor axis must stay below
the free bound parameter itself, for every value in ``[1, max]``.
"""

from __future__ import annotations

from math import ceil, floor
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core import resilience
from repro.core.errors import VerificationError
from repro.ir.expr import BinaryOp, Expr, IntImm, IterVar, Select, TensorRef
from repro.poly.affine import AffineExpr, Constraint
from repro.poly.fm import interval_of

if TYPE_CHECKING:
    from repro.core.compiler import CompileResult
    from repro.fusion.posttile import TiledGroup
    from repro.ir.lower import PolyStatement
    from repro.poly.maps import BasicMap

__all__ = ["check_bounds"]


def _fail(message: str) -> None:
    raise VerificationError(message, stage=resilience.active_stage())


def _affine_of(e: Expr, names: Dict[int, str]) -> Optional[AffineExpr]:
    """Parse an index/guard expression into an AffineExpr, or ``None``."""
    if isinstance(e, IntImm):
        return AffineExpr.constant(e.value)
    if isinstance(e, IterVar):
        name = names.get(id(e))
        return AffineExpr.variable(name) if name is not None else None
    if isinstance(e, BinaryOp):
        a = _affine_of(e.a, names)
        b = _affine_of(e.b, names)
        if a is None or b is None:
            return None
        if e.op == "add":
            return a + b
        if e.op == "sub":
            return a - b
        if e.op == "mul":
            if a.is_constant():
                return b * a.const
            if b.is_constant():
                return a * b.const
    return None


def _cond_constraints(
    e: Expr, names: Dict[int, str]
) -> Optional[List[Constraint]]:
    """Affine conjunction of one ``Select`` guard, or ``None``."""
    if isinstance(e, BinaryOp):
        if e.op == "and":
            a = _cond_constraints(e.a, names)
            b = _cond_constraints(e.b, names)
            return None if a is None or b is None else a + b
        if e.op in ("ge", "gt", "le", "lt", "eq"):
            a = _affine_of(e.a, names)
            b = _affine_of(e.b, names)
            if a is None or b is None:
                return None
            if e.op == "ge":
                return [Constraint.ge(a - b)]
            if e.op == "gt":
                return [Constraint.ge(a - b - 1)]
            if e.op == "le":
                return [Constraint.ge(b - a)]
            if e.op == "lt":
                return [Constraint.ge(b - a - 1)]
            return [Constraint.eq(a - b)]
    return None


def _guards_by_read(stmt: "PolyStatement") -> List[List[Constraint]]:
    """Guard constraints per ``stmt.reads`` entry (empty = unguarded).

    Mirrors :func:`repro.ir.expr.walk` pre-order so the n-th ``TensorRef``
    of the expression lines up with the n-th extracted read (reduce
    statements carry one extra leading self-accumulation read, hence the
    offset).  Reads reached through a ``Select``'s taken branch inherit
    the parsed guard; the else branch and unparseable guards inherit
    nothing — never an unsound extra constraint.
    """
    refs: List[tuple] = []

    def visit(e: Expr, guards: List[Constraint]) -> None:
        if isinstance(e, TensorRef):
            refs.append((e, guards))
            for child in e.children():
                visit(child, guards)
            return
        if isinstance(e, Select):
            visit(e.cond, guards)
            cond = _cond_constraints(e.cond, stmt.var_names)
            visit(e.if_true, guards + cond if cond is not None else guards)
            visit(e.if_false, guards)
            return
        for child in e.children():
            visit(child, guards)

    visit(stmt.expr, [])
    out: List[List[Constraint]] = [[] for _ in stmt.reads]
    offset = len(stmt.reads) - len(refs)
    if offset < 0:
        return out  # alignment unknown: treat every read as unguarded
    for k, (_ref, guards) in enumerate(refs):
        out[offset + k] = guards
    return out


def _membership_offsets(
    relation: "BasicMap", row: AffineExpr, size: int, tile_dim: str
) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` of the relation's tile membership of ``row``: the
    rows ``row - size*o - lo >= 0`` and ``size*o + hi - row >= 0`` that
    put the row's values ``size*o + lo .. size*o + hi`` into tile ``o``
    (the tightest of each when several match); ``None`` when either is
    missing -- also when normalisation divided them by a factor the row
    and size share, which the scheduler's coprime rows never have."""
    lower = dict(row.coeffs)
    lower[tile_dim] = -size
    upper = {name: -coeff for name, coeff in lower.items()}
    lo = hi = None
    for c in relation.constraints:
        if c.is_equality:
            continue
        if c.expr.coeffs == lower:
            cut = row.const - c.expr.const
            lo = cut if lo is None else max(lo, cut)
        elif c.expr.coeffs == upper:
            cut = c.expr.const + row.const
            hi = cut if hi is None else min(hi, cut)
    return None if lo is None or hi is None else (lo, hi)


def _check_grid_coverage(gi: int, group: "TiledGroup") -> None:
    """Every live-out instance lies in a tile of the grid, and tile ``o``
    holds the same values of a band row in every statement of the band.

    Tile ``o`` of a band row holds the row's values ``size*o + lo ..
    size*o + hi`` (read off each instance relation), so tiles ``0 ..
    count-1`` cover ``[lo, size*(count-1) + hi]`` -- ``[lo, lo +
    count*size - 1]`` as the tiler counts them -- when ``hi - lo >= size
    - 1``.  A band's rows are aligned across its statements, so ``(lo,
    hi)`` must be one pair per row: a statement counted from another
    origin runs its instances in other tiles than the schedule orders.
    The row's range over the statement's box is closed form
    (:meth:`~repro.ir.lower.PolyStatement.box_bounds`); an instance
    outside the grid is never executed, which no access bound shows.
    """
    by_id = {s.stmt_id: s for s in group.statements}
    grid: Dict[int, Tuple[str, Tuple[int, int]]] = {}
    for sid, rows in group.band_rows.items():
        stmt = by_id[sid]
        if stmt.instance_count() == 0:
            continue
        relation = group.instance_relations[sid]
        for k, (row, size, o, count) in enumerate(
            zip(rows, group.tile_sizes, group.tile_dims, group.tile_counts)
        ):
            span = stmt.box_bounds(row)
            offsets = _membership_offsets(relation, row, size, o)
            if span is None or offsets is None or offsets[1] - offsets[0] < size - 1:
                _fail(
                    f"group {gi}, {sid}: tile dim {o!r} does not partition "
                    f"band row {row!r} into tiles of {size}"
                )
            first, want = grid.setdefault(k, (sid, offsets))
            if offsets != want:
                _fail(
                    f"group {gi}: tile dim {o!r} holds band row values "
                    f"{offsets} + {size}*{o} in {sid} but {want} + {size}*{o} "
                    f"in {first}: the grid is not aligned across the band"
                )
            lo, top = offsets[0], size * (count - 1) + offsets[1]
            if span[0] < lo or span[1] > top:
                _fail(
                    f"group {gi}, {sid}: band row {row!r} ranges over "
                    f"[{span[0]}, {span[1]}], outside the tile grid "
                    f"[{lo}, {top}]: instances no tile executes"
                )


def check_bounds(result: "CompileResult") -> None:
    """Prove every live-out instance lies in a tile of its group's grid
    and every array access lies within its tensor's extents.

    Raises :class:`~repro.core.errors.VerificationError` on the first
    instance no tile executes, or access that can leave its tensor (or
    that the relation fails to bound at all — an unbounded projection is
    equally a rejection).
    """
    sym_dims = getattr(result.kernel, "sym_dims", {})
    for gi, group in enumerate(result.groups):
        _check_grid_coverage(gi, group)
        grid: List[Constraint] = []
        for d, count in zip(group.tile_dims, group.tile_counts):
            v = AffineExpr.variable(d)
            grid.append(Constraint.ge(v, 0))
            grid.append(Constraint.le(v, count - 1))
        for stmt in group.statements:
            rel = group.instance_relations[stmt.stmt_id]
            base = list(rel.constraints) + grid
            read_guards = _guards_by_read(stmt)
            for ai, acc in enumerate([stmt.write] + list(stmt.reads)):
                amap = acc.as_map(stmt.space)
                cons = base + list(amap.constraints)
                if ai > 0:
                    cons = cons + read_guards[ai - 1]
                where = (
                    f"group {gi}, {stmt.stmt_id} access to "
                    f"{acc.tensor.name}"
                )
                for k, dim in enumerate(amap.out_space.dims):
                    extent = acc.tensor.shape[k]
                    interval = interval_of(cons, dim)
                    if interval is None:
                        continue  # access set empty for every tile
                    lo, hi = interval
                    if lo is None or ceil(lo) < 0:
                        _fail(
                            f"{where}: axis {k} can reach index "
                            f"{'-inf' if lo is None else ceil(lo)} "
                            f"below 0"
                        )
                    if hi is None or floor(hi) > extent - 1:
                        _fail(
                            f"{where}: axis {k} can reach index "
                            f"{'+inf' if hi is None else floor(hi)} "
                            f"past extent {extent}"
                        )
                # Parametric pass over the symbolic axes: the access
                # index must stay below the bound parameter itself.
                sym_axes = getattr(acc.tensor, "sym_axes", {})
                if not sym_axes or acc.indices is None:
                    continue
                pcons = list(cons)
                for n in stmt.iter_names:
                    sym = stmt.sym_extents.get(n)
                    if sym is not None:
                        pcons.append(
                            Constraint.le(
                                AffineExpr.variable(n),
                                AffineExpr.variable(f"__sym_{sym}") - 1,
                            )
                        )
                for sym, bound in sym_dims.items():
                    param = AffineExpr.variable(f"__sym_{sym}")
                    pcons.append(Constraint.ge(param, 1))
                    pcons.append(Constraint.le(param, bound))
                for axis, symdim in sym_axes.items():
                    dim = amap.out_space.dims[axis]
                    probe = list(pcons)
                    probe.append(
                        Constraint.eq(
                            AffineExpr.variable("__vb__"),
                            AffineExpr.variable(dim)
                            - AffineExpr.variable(f"__sym_{symdim.name}"),
                        )
                    )
                    interval = interval_of(probe, "__vb__")
                    if interval is None:
                        continue
                    _, hi = interval
                    if hi is None or floor(hi) > -1:
                        _fail(
                            f"{where}: symbolic axis {axis} "
                            f"({symdim.name!r}) can reach the bound at a "
                            f"clamped replay (slack "
                            f"{'+inf' if hi is None else floor(hi)})"
                        )
