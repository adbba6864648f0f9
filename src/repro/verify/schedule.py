"""Dependence-preservation checker (independent schedule legality).

The executed order of a compiled result is fully determined by its
:class:`~repro.fusion.posttile.TiledGroup` records, which is also exactly
what the replay engine runs:

1. groups execute in list order, separated by barriers;
2. inside a group, tiles run in lexicographic order over the tile dims;
3. inside a tile, statements run in ``group.statements`` order;
4. inside a statement, instances run in lexicographic order over the
   original iteration dims (fused-producer instances appearing in many
   tiles execute once, in the first containing tile).

This checker recomputes every dependence from the original lowered
kernel (it does **not** trust ``result.deps``) and proves, per
dependence, that the order above runs the source before the sink:

- **cross-group**: the source's group must come first (barriers order
  the rest);
- **live-out -> live-out** (partitioned instance relations): an ILP
  emptiness proof that no dependence pair has the
  sink's tile lexicographically before the source's tile, nor equal
  tiles with the sink statement positioned first;
- **fused producer -> anything**: the reverse-strategy containment
  invariant — every tile that runs the sink instance must also contain
  the source instance (so the source ran in this tile or an earlier
  one).  Checked as an emptiness proof of "sink's tile misses the
  source", one negated source constraint at a time.

For shape-generic kernels the §3.7 clamping proof is re-established
independently: every dependence must have distance 0 along each shared
symbolic dim, with the dim's bound a free parameter in ``[1, max]`` —
the FM elimination of the parameter is the proof over all batch sizes.
"""

from __future__ import annotations

from math import ceil, floor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.core.errors import VerificationError
from repro.poly.affine import AffineExpr, Constraint
from repro.poly.fm import interval_of
from repro.poly.ilp import IlpProblem
from repro.sched.deps import Dependence, compute_dependences
from repro.tools import faultinject

if TYPE_CHECKING:
    from repro.core.compiler import CompileResult
    from repro.fusion.posttile import TiledGroup

__all__ = ["check_dependences"]


def _fail(message: str) -> None:
    raise VerificationError(message, stage=resilience.active_stage())


def _feasible(cons: Sequence[Constraint]) -> bool:
    """Exact integer feasibility: rational feasibility alone would report
    violations no integer point realises."""
    return IlpProblem(cons).is_feasible(integer=True)


def _grid_constraints(
    tile_dims: Sequence[str], tile_counts: Sequence[int]
) -> List[Constraint]:
    cons: List[Constraint] = []
    for d, count in zip(tile_dims, tile_counts):
        v = AffineExpr.variable(d)
        cons.append(Constraint.ge(v, 0))
        cons.append(Constraint.le(v, count - 1))
    return cons


def _negations(c: Constraint) -> List[Constraint]:
    """Integer negation of one constraint, as disjunct constraints."""
    if c.is_equality:
        return [Constraint.ge(c.expr, 1), Constraint.le(c.expr, -1)]
    return [Constraint.le(c.expr, -1)]  # not (expr >= 0)


def _check_liveout_pair(
    dep: Dependence, group: "TiledGroup", pos: Dict[str, int]
) -> Optional[str]:
    """Lexicographic tile-order proof for a partitioned source relation.

    Returns a violation description or ``None``.  The sink side's tile
    dims are renamed so both copies of the instance relation coexist in
    one system; a feasible disjunct is a dependence pair the execution
    order reverses.
    """
    rel_src = group.instance_relations[dep.src.stmt_id]
    rel_dst = group.instance_relations[dep.dst.stmt_id]
    tmap = {d: f"{d}__t2" for d in group.tile_dims}
    base: List[Constraint] = list(dep.relation.constraints)
    base += list(rel_src.constraints)
    base += [c.rename({**dep.rename, **tmap}) for c in rel_dst.constraints]
    base += _grid_constraints(group.tile_dims, group.tile_counts)
    base += _grid_constraints(
        [tmap[d] for d in group.tile_dims], group.tile_counts
    )

    # Disjunct per lex level: sink tile strictly before source tile.
    for level in range(len(group.tile_dims)):
        cons = list(base)
        for d in group.tile_dims[:level]:
            cons.append(
                Constraint.eq(
                    AffineExpr.variable(d), AffineExpr.variable(tmap[d])
                )
            )
        lead = group.tile_dims[level]
        cons.append(
            Constraint.le(
                AffineExpr.variable(tmap[lead]),
                AffineExpr.variable(lead) - 1,
            )
        )
        if _feasible(cons):
            return (
                f"sink tile runs before source tile at tile dim "
                f"{lead!r}"
            )
    # Equal tiles: the in-tile statement order must run the source first
    # (self-dependences follow the original lexicographic instance order,
    # which the dependence relation itself orients).
    if pos[dep.dst.stmt_id] < pos[dep.src.stmt_id]:
        cons = list(base)
        for d in group.tile_dims:
            cons.append(
                Constraint.eq(
                    AffineExpr.variable(d), AffineExpr.variable(tmap[d])
                )
            )
        if _feasible(cons):
            return (
                f"statement order inside the tile runs "
                f"{dep.dst.stmt_id} before {dep.src.stmt_id}"
            )
    return None


def _check_fused_producer_pair(
    dep: Dependence, group: "TiledGroup", pos: Dict[str, int]
) -> Optional[str]:
    """Containment proof for a fused (recomputed) producer source.

    A fused producer instance executes in the first tile containing it,
    so the dependence is preserved exactly when every tile that runs the
    sink instance also contains the source instance (and the producer is
    positioned first inside the tile).
    """
    if pos[dep.src.stmt_id] >= pos[dep.dst.stmt_id]:
        return (
            f"fused producer {dep.src.stmt_id} is positioned after its "
            f"consumer {dep.dst.stmt_id} inside the tile"
        )
    rel_src = group.instance_relations[dep.src.stmt_id]
    rel_dst = group.instance_relations[dep.dst.stmt_id]
    base: List[Constraint] = list(dep.relation.constraints)
    base += [c.rename(dep.rename) for c in rel_dst.constraints]
    base += _grid_constraints(group.tile_dims, group.tile_counts)
    # Violation: some source constraint fails in the sink's own tile.
    for c in rel_src.constraints:
        for neg in _negations(c):
            if _feasible(base + [neg]):
                return (
                    f"tile running {dep.dst.stmt_id} does not contain "
                    f"the {dep.src.stmt_id} instance it depends on"
                )
    return None


def _check_symbolic_distance(
    dep: Dependence, sym_dims: Dict[str, int]
) -> Optional[str]:
    """Parametric §3.7 proof: distance 0 along each shared symbolic dim.

    The symbolic iterators are additionally bounded by a free parameter
    ``1 <= __sym_s <= max``; Fourier-Motzkin eliminates everything but
    the distance, proving the interval for *every* batch size at once.
    """
    shared = sorted(
        set(dep.src.sym_extents.values()) & set(dep.dst.sym_extents.values())
    )
    if not shared:
        return None
    base: List[Constraint] = list(dep.relation.constraints)
    for stmt, rename in ((dep.src, None), (dep.dst, dep.rename)):
        for n in stmt.iter_names:
            sym = stmt.sym_extents.get(n)
            if sym is None:
                continue
            v = AffineExpr.variable(rename[n] if rename else n)
            base.append(
                Constraint.le(v, AffineExpr.variable(f"__sym_{sym}") - 1)
            )
    for s in set(dep.src.sym_extents.values()) | set(
        dep.dst.sym_extents.values()
    ):
        param = AffineExpr.variable(f"__sym_{s}")
        base.append(Constraint.ge(param, 1))
        base.append(Constraint.le(param, sym_dims[s]))
    src_iter = {v: k for k, v in dep.src.sym_extents.items()}
    dst_iter = {v: k for k, v in dep.dst.sym_extents.items()}
    for s in shared:
        cons = list(base)
        cons.append(
            Constraint.eq(
                AffineExpr.variable("__delta__"),
                AffineExpr.variable(dep.rename[dst_iter[s]])
                - AffineExpr.variable(src_iter[s]),
            )
        )
        interval = interval_of(cons, "__delta__")
        if interval is None:
            continue  # no pair at any batch size
        lo, hi = interval
        lo_i = None if lo is None else ceil(lo)
        hi_i = None if hi is None else floor(hi)
        if lo_i is not None and hi_i is not None and lo_i >= 0 and hi_i <= 0:
            continue
        return (
            f"distance along symbolic dim {s!r} not pinned to 0 "
            f"(interval [{lo}, {hi}]): clamped replays would drop a "
            f"needed producer instance"
        )
    return None


def check_dependences(result: "CompileResult") -> None:
    """Prove the compiled execution order preserves every dependence.

    Dependences are recomputed from ``result.kernel`` so a bug anywhere
    in scheduling, tiling, or fusion cannot vouch for itself.  Raises
    :class:`~repro.core.errors.VerificationError` on the first
    violation.
    """
    faultinject.fire("verify.schedule")
    deps = compute_dependences(result.kernel)
    group_of: Dict[str, Tuple[int, "TiledGroup"]] = {}
    pos_of: Dict[str, int] = {}
    for gi, group in enumerate(result.groups):
        for p, stmt in enumerate(group.statements):
            group_of[stmt.stmt_id] = (gi, group)
            pos_of[stmt.stmt_id] = p

    sym_dims = getattr(result.kernel, "sym_dims", {})
    shape_generic = bool(getattr(result.kernel, "shape_generic", False))

    for dep in deps:
        src_id, dst_id = dep.src.stmt_id, dep.dst.stmt_id
        if src_id not in group_of or dst_id not in group_of:
            _fail(
                f"dependence {src_id} -> {dst_id} ({dep.kind} on "
                f"{dep.tensor_name}) touches a statement no group executes"
            )
        (gs, group_s), (gd, group_d) = group_of[src_id], group_of[dst_id]
        if gs < gd:
            pass  # the inter-group barrier orders the pair
        elif gs > gd:
            _fail(
                f"dependence {src_id} -> {dst_id} ({dep.kind} on "
                f"{dep.tensor_name}) reversed: source scheduled in group "
                f"{gs}, sink in earlier group {gd}"
            )
        else:
            pos = pos_of
            if src_id in group_s.fused_producer_ids:
                reason = _check_fused_producer_pair(dep, group_s, pos)
            else:
                reason = _check_liveout_pair(dep, group_s, pos)
            if reason is not None:
                _fail(
                    f"dependence {src_id} -> {dst_id} ({dep.kind} on "
                    f"{dep.tensor_name}) not preserved: {reason}"
                )
        if shape_generic and sym_dims:
            reason = _check_symbolic_distance(dep, sym_dims)
            if reason is not None:
                _fail(
                    f"dependence {src_id} -> {dst_id} ({dep.kind} on "
                    f"{dep.tensor_name}): {reason}"
                )
