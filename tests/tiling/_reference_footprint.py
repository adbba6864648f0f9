"""Reference implementation: footprints and extents through named maps.

This is the path ``repro.tiling.reverse`` and ``repro.storage.promote``
took before a tile probe solved integer rows: a footprint renames its
relation to positional names (``o00``, ``s00``, ``x00``), composes it
with the access map through :func:`compose`, and bounds every tensor
dimension with a full Fourier-Motzkin projection per dimension, whose
upper/lower bound pairs are subtracted as ``AffineExpr``s over
``Fraction``s; tile membership is built through ``AffineExpr``
arithmetic.  It is the oracle for ``test_footprint_rows``: production
must give the same bound for every dimension and the same membership
constraints, coefficient-dict order and string objects included.

:func:`tile_dependence` is the shrink rule's question asked the same way:
which tile dims each tensor's composed ``tile -> elements`` relation links
a tensor dim to.  It is the oracle for ``test_tile_dependence``.

Not imported by anything under ``src/``.
"""

from __future__ import annotations

import itertools
from math import floor
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.poly.affine import AffineExpr, Constraint, ratio
from repro.poly.fm import project_onto, remove_redundant
from repro.poly.maps import BasicMap
from repro.poly.sets import Space


_fresh_counter = itertools.count()


def compose(first: BasicMap, after: BasicMap) -> BasicMap:
    """Relation ``first ; after`` (apply ``first``, then ``after``): the
    middle dims get globally fresh names and Fourier-Motzkin projects them
    out."""
    if len(after.in_space.dims) != len(first.out_space.dims):
        raise ValueError("arity mismatch in map composition")
    mid = {d: f"{d}__{next(_fresh_counter)}" for d in first.out_space.dims}
    first_cons = [c.rename(mid) for c in first.constraints]
    after_rename = dict(zip(after.in_space.dims, [mid[d] for d in first.out_space.dims]))
    after_cons = [c.rename(after_rename) for c in after.constraints]
    keep = list(first.in_space.dims) + list(after.out_space.dims)
    cons = project_onto(first_cons + after_cons, keep)
    return BasicMap(first.in_space, after.out_space, remove_redundant(cons))


def tile_dependence(group) -> Dict[str, set]:
    """Which tile dims each tensor's footprint depends on, by composition:
    the tile dims of every constraint of the composed relation that
    mentions a tensor dim (pure tile-range bounds do not make a footprint
    vary with the tile)."""
    deps: Dict[str, set] = {}
    tile_dims = set(group.tile_dims)
    for stmt in group.statements:
        for access in [stmt.write] + list(stmt.reads):
            used = deps.setdefault(access.tensor.name, set())
            if not access.is_affine:
                continue
            rel = group.instance_relations[stmt.stmt_id]
            fp = compose(rel, access.as_map(stmt.space))
            tensor_dims = set(fp.out_space.dims)
            for con in fp.constraints:
                names = set(con.variables())
                if names & tensor_dims:
                    used.update(names & tile_dims)
    return deps


def tile_membership_constraints(
    rows: Sequence[AffineExpr],
    sizes: Sequence[int],
    tile_dims: Sequence[str],
) -> List[Constraint]:
    """``size * o <= row_expr <= size * o + size - 1`` per tiled row."""
    cons: List[Constraint] = []
    for expr, size, o in zip(rows, sizes, tile_dims):
        offset = expr - AffineExpr.variable(o) * size
        cons.append(Constraint.ge(offset, 0))
        cons.append(Constraint.le(offset, size - 1))
    return cons


def positional_footprint(
    relation: BasicMap, indices: Sequence[AffineExpr]
) -> BasicMap:
    """``tile -> tensor elements`` of one affine access, every dim named by
    its position: tiles ``o00..``, instances ``s00..``, elements ``x00..``."""
    tiles = [f"o{i:02d}" for i in range(len(relation.in_space.dims))]
    iters = [f"s{i:02d}" for i in range(len(relation.out_space.dims))]
    elems = [f"x{i:02d}" for i in range(len(indices))]
    rename = dict(zip(relation.in_space.dims + relation.out_space.dims, tiles + iters))
    cons = [c.rename(rename) for c in relation.constraints]
    instances = BasicMap(Space("T", tiles), Space("S", iters), cons)
    renamed = [e.rename(rename) for e in indices]
    access_map = BasicMap.from_exprs(instances.out_space, Space("X", elems), renamed)
    return compose(instances, access_map)


def extent_bound(
    constraints: Sequence[Constraint],
    dim: str,
    box_ranges: Dict[str, Tuple[int, int]],
) -> Optional[int]:
    """The tightest ``u(p) - l(p) + 1`` over the box of any (upper, lower)
    bound pair of ``dim``, after projecting onto the box and ``dim``."""
    keep = list(box_ranges) + [dim]
    projected = project_onto(constraints, keep)
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


def footprint_bounds(
    relation: BasicMap,
    indices: Sequence[AffineExpr],
    tile_counts: Sequence[int],
) -> List[Optional[int]]:
    """The extent bound of every tensor dim an access touches per tile."""
    fp = positional_footprint(relation, indices)
    box_ranges = {d: (0, n - 1) for d, n in zip(fp.in_space.dims, tile_counts)}
    return [extent_bound(fp.constraints, d, box_ranges) for d in fp.out_space.dims]


def relation_of_key(key: Hashable) -> Tuple[BasicMap, List[AffineExpr], List[int]]:
    """The relation, index expressions and tile counts a
    ``repro.tiling.reverse.footprint_key`` was made of, rebuilt under
    positional names -- which is all :func:`positional_footprint` keeps."""
    (n_tiles, n_iters, flat, numbers), index, _shape, counts = key
    names = [f"o{i:02d}" for i in range(n_tiles)] + [
        f"s{i:02d}" for i in range(n_iters)
    ]
    cons = []
    start = 0
    for row in numbers:
        end = start + len(row) - 2
        coeffs = dict(zip([names[p] for p in flat[start:end]], row))
        cons.append(Constraint(AffineExpr(coeffs, row[-2]), row[-1]))
        start = end
    relation = BasicMap(Space("T", names[:n_tiles]), Space("S", names[n_tiles:]), cons)
    exprs = [
        AffineExpr(dict(zip([names[n_tiles + p] for p in ranks], row)), row[-1])
        for ranks, row in index
    ]
    return relation, exprs, list(counts)
