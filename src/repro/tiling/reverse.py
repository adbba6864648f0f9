"""The reverse tiling strategy of Zhao & Di [70] (Sec. 4.2 of the paper).

Only the **live-out** iteration space is tiled directly.  The tile shapes
of every **intermediate** (producer) space are *derived*: for a given
live-out tile, the set of producer instances that must have executed is
obtained by chasing flow dependences backwards through the tile
constraints.  For a convolution consuming a bias-added feature map this
yields exactly the overlapped tiles of the paper::

    {(o0, o1) -> S0(h, w) : T*o0 <= h < T*o0 + KH + T - 1 ∧ ... }

The relation feeds an extension node (post-tiling fusion, Sec. 4.3) and
the storage manager (footprints, Sec. 4.4).
"""

from __future__ import annotations

from itertools import chain
from math import floor
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.ir.lower import PolyStatement, TensorAccess
from repro.poly.affine import AffineExpr, Constraint, ratio
from repro.poly.cache import EXTENT_CACHE, MISS, RankSpace
from repro.poly.fm import project_onto, remove_redundant
from repro.poly.maps import BasicMap
from repro.poly.sets import Space, implies
from repro.sched.deps import Dependence


def tile_membership_constraints(
    rows: Sequence[AffineExpr],
    sizes: Sequence[int],
    tile_dims: Sequence[str],
) -> List[Constraint]:
    """Constraints tying a statement instance to its tile indices.

    For each tiled row: ``size * o <= row_expr <= size * o + size - 1``.
    """
    cons: List[Constraint] = []
    for expr, size, o in zip(rows, sizes, tile_dims):
        offset = expr - AffineExpr.variable(o) * size
        cons.append(Constraint.ge(offset, 0))
        cons.append(Constraint.le(offset, size - 1))
    return cons


def liveout_instance_relation(
    stmt: PolyStatement,
    rows: Sequence[AffineExpr],
    sizes: Sequence[int],
    tile_dims: Sequence[str],
) -> BasicMap:
    """Relation ``(tile indices) -> live-out instances`` of one statement.

    An instance belongs to tile ``(o0, ..)`` when every tiled band row of
    the statement falls inside the tile's half-open interval.
    """
    tile_space = Space("T", list(tile_dims))
    cons = list(stmt.domain().constraints)
    cons.extend(tile_membership_constraints(rows, sizes, tile_dims))
    return BasicMap(tile_space, stmt.space, cons)


def producer_tile_relation(
    producer: PolyStatement,
    consumer_relations: Dict[str, Tuple[PolyStatement, BasicMap]],
    deps: Sequence[Dependence],
    tile_dims: Sequence[str],
) -> Optional[BasicMap]:
    """Relation ``(tile indices) -> producer instances`` (reverse strategy).

    ``consumer_relations`` maps already-fused statement ids to their own
    ``tile -> instances`` relation (live-out statements get theirs from
    :func:`liveout_instance_relation`; transitively fused producers get the
    relation computed by an earlier call of this function).  Every flow
    dependence from ``producer`` into a fused consumer contributes its
    preimage; the union is over-approximated by a single basic map through
    rational projection (extra instances only cause redundant recomputation
    of a pure producer, never incorrect results -- the guarantee of [70]).

    Returns ``None`` when no fused consumer depends on the producer.
    """
    tile_space = Space("T", list(tile_dims))
    parts: List[List[Constraint]] = []
    for dep in deps:
        if dep.kind != "flow" or dep.src is not producer or dep.is_self:
            continue
        entry = consumer_relations.get(dep.dst.stmt_id)
        if entry is None:
            continue
        consumer, inst_rel = entry
        # inst_rel's output dims are the consumer's own iter names; the dep
        # relation uses the renamed (primed) consumer dims -- align them.
        renamed_inst = [c.rename(dep.rename) for c in inst_rel.constraints]
        cons: List[Constraint] = list(dep.relation.constraints) + renamed_inst
        keep = list(tile_dims) + list(producer.iter_names)
        projected = project_onto(cons, keep)
        parts.append(remove_redundant(projected))
    if not parts:
        return None
    # Union the parts by bounding-box over-approximation into one map:
    # safe (superset) because the producer is pure; exact for the single-
    # consumer case that dominates DL subgraphs.
    if len(parts) == 1:
        cons = parts[0]
    else:
        cons = _approximate_union(parts)
    relation = BasicMap(tile_space, producer.space, cons)
    return relation


def _approximate_union(parts: List[List[Constraint]]) -> List[Constraint]:
    """Keep only constraints implied by *every* part (a convex superset)."""
    return [c for c in parts[0] if all(implies(p, c) for p in parts[1:])]


def tile_footprint(
    access_map: BasicMap,
    instance_relation: BasicMap,
) -> BasicMap:
    """Relation ``(tile indices) -> tensor elements`` for one access.

    Composes the instance relation (tile -> statement instances) with the
    statement's access relation (instances -> tensor elements).
    """
    return instance_relation.compose(access_map)


def relation_key(relation: BasicMap) -> Hashable:
    """The relation's half of :func:`footprint_key`, made once per
    relation: its constraints with each variable replaced by its position
    in ``tile dims + instance dims``."""
    dims = relation.in_space.dims + relation.out_space.dims
    position = {d: i for i, d in enumerate(dims)}.__getitem__
    shapes = [c.shape() for c in relation.constraints]
    return (
        len(relation.in_space.dims),
        len(relation.out_space.dims),
        tuple(map(position, chain.from_iterable([names for names, _ in shapes]))),
        tuple([numbers for _, numbers in shapes]),
    )


def footprint_key(
    rel_key: Hashable,
    relation: BasicMap,
    access: TensorAccess,
    tile_counts: Sequence[int],
) -> Hashable:
    """Key of "which box does ``access`` touch per tile", made before any
    map is: all of its :func:`positional_footprint`, the tensor's shape
    (the clip) and the tile counts (the box ranges)."""
    position = {d: i for i, d in enumerate(relation.out_space.dims)}.__getitem__
    index = [
        (tuple(map(position, names)), numbers)
        for names, numbers in map(AffineExpr.shape, access.indices)
    ]
    return (rel_key, tuple(index), tuple(access.tensor.shape), tuple(tile_counts))


def positional_footprint(relation: BasicMap, access: TensorAccess) -> BasicMap:
    """:func:`tile_footprint` of one affine access with every dim named by
    its position: tiles ``o00..``, instances ``s00..``, elements ``x00..``.
    No caller-chosen name is left for a solver to rank, so the result is a
    function of :func:`footprint_key` alone (see :mod:`repro.poly.cache`).
    """
    tiles = [f"o{i:02d}" for i in range(len(relation.in_space.dims))]
    iters = [f"s{i:02d}" for i in range(len(relation.out_space.dims))]
    elems = [f"x{i:02d}" for i in range(len(access.indices))]
    rename = dict(zip(relation.in_space.dims + relation.out_space.dims, tiles + iters))
    cons = [c.rename(rename) for c in relation.constraints]
    instances = BasicMap(Space("T", tiles), Space("S", iters), cons)
    indices = [e.rename(rename) for e in access.indices]
    access_map = BasicMap.from_exprs(instances.out_space, Space("X", elems), indices)
    return tile_footprint(access_map, instances)


def affine_extent_bounds(
    constraints: Sequence[Constraint],
    dims: Sequence[str],
    box_ranges: Dict[str, Tuple[int, int]],
) -> List[Optional[int]]:
    """Tight upper bound on the extent of each of ``dims`` over any point
    of a box.

    The constraints relate each dim to box variables (tile indices) whose
    ranges are given.  For every (upper, lower) affine-bound pair the true
    per-point extent satisfies ``extent <= u(p) - l(p) + 1``; maximising
    the affine difference over the box is closed-form (pick each variable's
    end by coefficient sign), and the minimum over pairs is a sound, and in
    the common single-pair case exact, extent bound.  A dim without a
    finite bound pair gets ``None``.

    A pure function of the constraints, the dim and the box, posed once
    per tensor dimension for every tile candidate: each bound is memoized
    in :data:`repro.poly.cache.EXTENT_CACHE` under the name-free rows of
    the system, the rank of the dim and the box range of each variable.
    The system is ranked once for all of ``dims``, and a miss hands that
    ranking on to the projection.
    """
    space = RankSpace(constraints)
    box = tuple([box_ranges.get(name) for name in space.names])
    bounds: List[Optional[int]] = []
    for dim in dims:
        key = (space.rows, space.rank.get(dim), box)
        bound = EXTENT_CACHE.lookup(key)
        if bound is MISS:
            bound = _extent_bound_uncached(space, dim, box_ranges)
            EXTENT_CACHE.store(key, bound)
        bounds.append(bound)
    return bounds


def _extent_bound_uncached(
    space: RankSpace,
    dim: str,
    box_ranges: Dict[str, Tuple[int, int]],
) -> Optional[int]:
    keep = list(box_ranges) + [dim]
    projected = project_onto(space.constraints, keep, space)
    lowers: List[AffineExpr] = []
    uppers: List[AffineExpr] = []
    for c in projected:
        a = c.expr.coeff(dim)
        if a == 0:
            continue
        rest = c.expr - AffineExpr({dim: a})
        bound = rest * ratio(-1, a)  # dim (>=, <=, ==) -rest/a
        if c.is_equality or a > 0:
            lowers.append(bound)
        if c.is_equality or a < 0:
            uppers.append(bound)
    if not lowers or not uppers:
        return None
    best: Optional[int] = None
    for u in uppers:
        for lo in lowers:
            diff = u - lo
            # Maximise the affine difference over the box.
            value = diff.const
            ok = True
            for v, coeff in diff.coeffs.items():
                if v not in box_ranges:
                    ok = False
                    break
                lo_v, hi_v = box_ranges[v]
                value += coeff * (hi_v if coeff > 0 else lo_v)
            if not ok:
                continue
            ext = floor(value) + 1
            if best is None or ext < best:
                best = ext
    return best
