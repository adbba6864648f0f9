"""The reverse tiling strategy of Zhao & Di [70] (Sec. 4.2 of the paper).

Only the **live-out** iteration space is tiled directly.  The tile shapes
of every **intermediate** (producer) space are *derived*: for a given
live-out tile, the producer instances that must have executed are those
the tile's reads reach, chased backwards through the fused statements.
For a convolution consuming a bias-added feature map this yields exactly
the overlapped tiles of the paper::

    {(o0, o1) -> S0(h, w) : T*o0 <= h < T*o0 + KH + T - 1 ∧ ... }

**Every tile of a paper workload is a box.**  Live-out statements and
the fused producers their windows imply have tile windows
(:attr:`repro.fusion.posttile.TiledGroup.windows`): a live-out one from
its identity band rows, a producer's by interval arithmetic on its
readers' (:meth:`~repro.fusion.posttile.TiledGroup.add_window`), which
also places each interval in every tile (its span).  Code generation,
the recompute guard and promotion read the windows alone.  The
``tile -> instances`` relations built here -- a live-out's from its band
rows (:func:`liveout_instance_relation`), a producer's from its span
(:func:`producer_instance_relation`) -- are read by replay, the
verifier, the shrink rule's link graph and the footprints of a
statement without a window.  :func:`affine_extent_bounds` and
:func:`footprint_bounds` answer, unmemoized, only such a statement (a
shifted or skewed live-out), on the rows Fourier-Motzkin works on
(:data:`repro.poly.fm.Row`), projecting only the bounded dim's component
and bounding it in integers; :func:`tile_membership_constraints` builds
its two rows per band row directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.lower import PolyStatement
from repro.poly.affine import AffineExpr, Constraint, _add_into
from repro.poly.cache import RankSpace
from repro.poly.fm import Row, project_rows, rows_of
from repro.poly.maps import BasicMap
from repro.poly.sets import Space


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


def producer_instance_relation(
    stmt: PolyStatement,
    span: Sequence[Tuple[Sequence[int], int, int]],
    tile_dims: Sequence[str],
) -> BasicMap:
    """Relation ``(tile indices) -> fused producer instances``, read off
    the producer's span (:meth:`~repro.fusion.posttile.TiledGroup.add_window`)
    as :func:`liveout_instance_relation` reads a live-out's off its band
    rows: per iteration dim ``(rate, low, length)``, ``low + rate . o <= x
    <= low + rate . o + length - 1``, plus the statement's domain.  A dim
    whose interval is the same in every tile gets only the bounds its
    domain does not already give."""
    cons = list(stmt.domain().constraints)
    for name, extent, (rate, low, length) in zip(stmt.iter_names, stmt.iter_extents, span):
        coeffs = {name: 1}
        for o, r in zip(tile_dims, rate):
            if r:
                coeffs[o] = -r
        moving = len(coeffs) > 1
        if moving or low > 0:
            cons.append(Constraint(AffineExpr._of(coeffs, -low)))
        if moving or low + length < extent:
            negated = {n: -c for n, c in coeffs.items()}
            cons.append(Constraint(AffineExpr._of(negated, low + length - 1)))
    return BasicMap(Space("T", list(tile_dims)), stmt.space, cons)


def footprint_bounds(
    relation: BasicMap,
    indices: Sequence[AffineExpr],
    tile_counts: Sequence[int],
) -> List[Optional[int]]:
    """The extent bound of every tensor dim an access with ``indices``
    touches per tile of ``relation``, over the box ``0 <= o < count``: the
    relation's rows plus ``x_k = e_k`` per index, every element ``x_k``
    bounded by :func:`affine_extent_bounds`, with no map built.  Dims are
    named by position (tiles, then instances, then elements), so the
    answer is the same under any names the relation carries."""
    names = {d: f"o{i:03d}" for i, d in enumerate(relation.in_space.dims)}
    names.update({d: f"s{i:03d}" for i, d in enumerate(relation.out_space.dims)})
    elements = [f"x{k:03d}" for k in range(len(indices))]
    cons = [c.rename(names) for c in relation.constraints]
    cons += [
        Constraint.eq(AffineExpr.variable(x), e.rename(names))
        for x, e in zip(elements, indices)
    ]
    box = {names[d]: (0, n - 1) for d, n in zip(relation.in_space.dims, tile_counts)}
    return affine_extent_bounds(cons, elements, box)


def affine_extent_bounds(
    constraints: Sequence[Constraint],
    dims: Sequence[str],
    box_ranges: Dict[str, Tuple[int, int]],
) -> List[Optional[int]]:
    """Tight upper bound on the extent of each of ``dims`` over any point
    of a box: the constraints relate each dim to box variables (tile
    indices) whose ranges are given.  The system is ranked once
    (:class:`RankSpace`) and every dim bounded on those rows.

    **Only the dim's component is projected**: the off-box variables that
    share a row with the dim, transitively.  A full projection gives the
    same bound, since eliminating a variable of another component never
    creates, changes or reorders a row that mentions the component.

    **The bound is integer.**  For every upper bound ``a_u*dim + R_u >= 0``
    and lower bound ``a_l*dim + R_l >= 0`` left (an equality is both), the
    per-point extent is at most ``N / d + 1`` with ``N = a_u*R_l -
    a_l*R_u`` and ``d = a_u*a_l``, both negated when ``d < 0``; ``N`` is
    affine over the box, so ``max N // d + 1`` is that bound exactly, with
    no ``Fraction`` made.  The minimum over pairs is a sound, and in the
    common single-pair case exact, bound; a dim without a finite bound pair
    gets ``None``.
    """
    space = RankSpace(constraints)
    box = [box_ranges.get(name) for name in space.names]
    rows = rows_of(space.rows, constraints)
    name = space.names.__getitem__
    return [_extent_of_rows(rows, space.rank.get(dim), box, name) for dim in dims]


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
