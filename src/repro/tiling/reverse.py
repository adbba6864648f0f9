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

**A live-out tile is a box; a producer tile is a projection.**  A
live-out statement tiled by identity band rows has a tile window
(:attr:`repro.fusion.posttile.TiledGroup.windows`), and its per-tile
extents and footprints are interval arithmetic over that window, with no
relation asked.  What reaches this module is the rest: the fused
producers' projected relations and any statement without a window.
Those questions are answered on the rows Fourier-Motzkin works on
(:data:`repro.poly.fm.Row`), never through ``AffineExpr`` arithmetic:
:func:`tile_membership_constraints` builds its two rows per band row
directly; :func:`footprint_bounds` solves a footprint from its
:func:`footprint_key`, with no map built; and :func:`affine_extent_bounds`
projects only the bounded dim's component and bounds it in integers.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.ir.lower import PolyStatement
from repro.poly.affine import AffineExpr, Constraint, _add_into
from repro.poly.cache import EXTENT_CACHE, MISS, RankSpace
from repro.poly.fm import (
    Row,
    make_row,
    project_onto,
    project_rows,
    remove_redundant,
    remove_redundant_rows,
    rows_of,
)
from repro.poly.maps import BasicMap
from repro.poly.sets import Space, implies
from repro.sched.deps import Dependence


def tile_membership_constraints(
    rows: Sequence[AffineExpr],
    sizes: Sequence[int],
    tile_dims: Sequence[str],
) -> List[Constraint]:
    """Constraints tying a statement instance to its tile indices.

    For each tiled row: ``size * o <= row_expr <= size * o + size - 1``,
    built as the two rows ``row - size*o >= 0`` and ``size - 1 - row +
    size*o >= 0`` in the coefficient order ``AffineExpr`` arithmetic gives
    them, each normalised once.  The tile dim's key is the very string
    object :meth:`AffineExpr.variable` holds for it, as that arithmetic
    would put there: pickles share strings by identity, so an equal but
    fresh string would change the bytes of every pickled relation.
    """
    cons: List[Constraint] = []
    for expr, size, o in zip(rows, sizes, tile_dims):
        (o,) = AffineExpr.variable(o).coeffs
        coeffs = dict(expr.coeffs)
        _add_into(coeffs, ((o, -size),))
        cons.append(Constraint(AffineExpr._of(coeffs, expr.const), False))
        negated = {n: -c for n, c in coeffs.items()}
        cons.append(Constraint(AffineExpr._of(negated, size - 1 - expr.const), False))
    return cons


def liveout_instance_relation(
    stmt: PolyStatement,
    rows: Sequence[AffineExpr],
    sizes: Sequence[int],
    tile_dims: Sequence[str],
    origins: Optional[Sequence[int]] = None,
) -> BasicMap:
    """Relation ``(tile indices) -> live-out instances`` of one statement.

    An instance belongs to tile ``(o0, ..)`` when every tiled band row of
    the statement falls inside the tile's half-open interval, counted
    from the row's ``origin`` (0 when ``origins`` is omitted): ``size * o
    <= row - origin <= size * o + size - 1``.  A band's rows are aligned
    across its statements, so every statement of a band is counted from
    one origin per row, the row's least value over all of their boxes
    (:func:`~repro.fusion.posttile.band_row_spans`); a row whose origin is
    0 is passed on as it is.
    """
    if origins is not None:
        rows = [row - lo if lo else row for row, lo in zip(rows, origins)]
    cons = list(stmt.domain().constraints)
    cons.extend(tile_membership_constraints(rows, sizes, tile_dims))
    return BasicMap(Space("T", list(tile_dims)), stmt.space, cons)


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


def positional(exprs: Sequence[AffineExpr], dims: Sequence[str]) -> Hashable:
    """``exprs`` name-free: each as its variables' positions in ``dims``
    (in coefficient-dict order) and its numbers."""
    position = {d: i for i, d in enumerate(dims)}.__getitem__
    return tuple(
        [
            (tuple(map(position, names)), numbers)
            for names, numbers in map(AffineExpr.shape, exprs)
        ]
    )


def relation_key(relation: BasicMap) -> Hashable:
    """The relation's half of :func:`footprint_key`: its constraints with
    each variable replaced by its position in ``tile dims + instance
    dims``."""
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
    index: Hashable,
    shape: Sequence[int],
    tile_counts: Sequence[int],
) -> Hashable:
    """Key of "which box does an access touch per tile", made before any
    map is: the instance relation's :func:`relation_key`, the access's
    index expressions over iteration-dim positions (:func:`positional`),
    the tensor's shape (the clip) and the tile counts (the box ranges).
    :func:`footprint_bounds` solves it."""
    return (rel_key, index, tuple(shape), tuple(tile_counts))


#: How a footprint's solver errors name a rank.
_position = "position {}".format


def footprint_bounds(key: Hashable) -> List[Optional[int]]:
    """The extent bound of every tensor dim of a :func:`footprint_key`, solved
    on the key's own rows: a pure function of the key, so a table hit is
    the fresh solve.

    Positions are tiles ``0..T-1``, instances ``T..T+S-1`` and elements
    ``T+S..``.  The relation's rows plus one row ``x_k - e_k = 0`` per
    index (in the coefficient order ``Constraint.eq(x_k, e_k)`` gives)
    become the ``tile -> elements`` composition once the instance
    positions that occur are eliminated, in ascending order.  Each element position is then bounded over the box
    ``0 <= o < count`` as :func:`affine_extent_bounds` bounds a dim.  Index
    expressions are integral, as lowering makes them.
    """
    (n_tiles, n_iters, flat, numbers), index, _shape, counts = key
    rows = rows_of((flat, numbers))
    base = n_tiles + n_iters
    used = set(flat)
    for k, (iters, expr) in enumerate(index):
        positions = [n_tiles + i for i in iters]
        used.update(positions)
        coeffs = {base + k: 1}
        coeffs.update(zip(positions, [-c for c in expr]))
        rows.append(make_row(coeffs, -expr[-1], True))
    rows = remove_redundant_rows(
        project_rows(rows, sorted(used.difference(range(n_tiles))), _position)
    )
    box = tuple([(0, n - 1) for n in counts]) + (None,) * (n_iters + len(index))
    return [_extent_of_rows(rows, base + k, box, _position) for k in range(len(index))]


def affine_extent_bounds(
    constraints: Sequence[Constraint],
    dims: Sequence[str],
    box_ranges: Dict[str, Tuple[int, int]],
) -> List[Optional[int]]:
    """Tight upper bound on the extent of each of ``dims`` over any point
    of a box.

    The constraints relate each dim to box variables (tile indices) whose
    ranges are given.

    **Only the dim's component is projected.**  The variables off the box
    that share a row with the dim, transitively, are eliminated from the
    rows that mention them; the rest of the system is left alone.  A full
    projection gives the same bound: eliminating a variable of another
    component only combines rows that mention neither the dim nor any
    variable of its component, so it never creates, changes or reorders
    (relative to each other) the rows that do, and what the deduplication
    of each step keeps of those is decided among them alone.

    **The bound is integer.**  For every upper bound ``a_u*dim + R_u >= 0``
    (``a_u < 0``, or an equality) and lower bound ``a_l*dim + R_l >= 0``
    (``a_l > 0``, or an equality) left, the per-point extent is at most
    ``u - l + 1 = N / d + 1`` with ``N = a_u*R_l - a_l*R_u`` and ``d =
    a_u*a_l``, both negated when ``d < 0``.  ``N`` is affine over the box,
    so its maximum picks each variable's end by coefficient sign, and
    ``max N // d + 1`` is that bound exactly, with no ``Fraction`` made.
    The minimum over pairs is a sound, and in the common single-pair case
    exact, extent bound; a dim without a finite bound pair gets ``None``.

    A pure function of the constraints, the dim and the box, posed once
    per tensor dimension for every tile candidate: each bound is memoized
    in :data:`repro.poly.cache.EXTENT_CACHE` under the name-free rows of
    the system, the rank of the dim and the box range of each variable.
    The system is ranked once for all of ``dims``, and a miss is solved on
    those rows.
    """
    space = RankSpace(constraints)
    box = tuple([box_ranges.get(name) for name in space.names])
    rows: Optional[List[Row]] = None
    bounds: List[Optional[int]] = []
    for dim in dims:
        rank = space.rank.get(dim)
        key = (space.rows, rank, box)
        bound = EXTENT_CACHE.lookup(key)
        if bound is MISS:
            if rows is None:
                rows = rows_of(space.rows, constraints)
            bound = _extent_of_rows(rows, rank, box, space.names.__getitem__)
            EXTENT_CACHE.store(key, bound)
        bounds.append(bound)
    return bounds


def _extent_of_rows(
    rows: List[Row],
    dim: Optional[int],
    box: Sequence[Optional[Tuple[int, int]]],
    name: Callable[[int], str],
) -> Optional[int]:
    """:func:`affine_extent_bounds`' bound of rank ``dim`` of ``rows``;
    ``box[r]`` is rank ``r``'s range, ``None`` off the box."""
    coupled = {dim}
    taken = [False] * len(rows)
    grown = True
    while grown:
        grown = False
        for i, row in enumerate(rows):
            if taken[i] or coupled.isdisjoint(row[0]):
                continue
            taken[i] = True
            for r in row[0]:
                if box[r] is None and r not in coupled:
                    coupled.add(r)
                    grown = True
    coupled.discard(dim)
    block = [row for row, t in zip(rows, taken) if t]
    projected = project_rows(block, sorted(coupled), name)
    lowers = []
    uppers = []
    for coeffs, const, eq, _, _ in projected:
        a = coeffs.get(dim)
        if a is None:
            continue
        if eq or a > 0:
            lowers.append((a, coeffs, const))
        if eq or a < 0:
            uppers.append((a, coeffs, const))
    best: Optional[int] = None
    for a_u, u, k_u in uppers:
        for a_l, lo, k_l in lowers:
            d = a_u * a_l
            f_u, f_l = (-a_l, a_u) if d > 0 else (a_l, -a_u)
            value = f_u * k_u + f_l * k_l
            for v in {**u, **lo}:
                if v == dim:
                    continue
                n = f_u * u.get(v, 0) + f_l * lo.get(v, 0)
                lo_v, hi_v = box[v]
                value += n * (hi_v if n > 0 else lo_v)
            ext = value // abs(d) + 1
            if best is None or ext < best:
                best = ext
    return best
