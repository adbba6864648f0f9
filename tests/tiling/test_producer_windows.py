"""Fused producers' tile windows and span relations against enumeration
and Fourier-Motzkin.

A fused producer's per-tile box is derived from its readers' windows
(``TiledGroup.add_window``): per written dim, the hull of the reading
subscripts' ranges over the readers' spans, clipped to the producer's
extent and to the subscripts' range over the readers' whole boxes.  Its
``tile -> instances`` relation is read off that span
(``reverse.producer_instance_relation``).  The oracle is the reverse
strategy as fusion once derived it: the Fourier-Motzkin preimage of the
readers' relations through the flow dependences, unioned into one convex
relation (``_reference_footprint.producer_tile_relation``).  Held here:

(a) on seeded random kernels -- ``C[y, z] = sum_k P[a*y + b*k + c]``
    (``test_tile_dependence._window_kernel``), and the same consumer
    reading ``P`` twice at other offsets through a chain of two producers
    -- at random tile sizes, in every tile the span relation holds every
    instance the tile needs (enumerated) and lies inside FM's relation,
    and the window is no longer than FM's bound;
(b) on every fused producer a cold build of the golden kernels and the
    five full-size networks' unique subgraphs asks about, the window
    equals FM's bound, every footprint read off it equals the one solved
    on FM's relation, and the span relation contains FM's in every tile;
(c) windows, spans and relations are not pickled: a restored group
    derives the same.
"""

import pickle
import random
from collections import Counter
from itertools import product
from math import ceil, floor

import pytest

from repro.core import diskcache
from repro.core.compiler import build
from repro.fusion.posttile import TiledGroup, fm_extents
from repro.graph import network
from repro.graph.pipeline import partition
from repro.ir import lower, ops
from repro.ir.tensor import compute, placeholder, reduce_axis, te_sum
from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.cache import clear_solver_caches
from repro.poly.fm import interval_of
from repro.sched.deps import compute_dependences
from repro.storage import promote
from repro.tiling.reverse import footprint_bounds

from tests.core.test_golden_programs import GOLDEN
from tests.tiling._reference_footprint import fm_producer_relations
from tests.tiling.test_tile_dependence import _window_kernel


def _hull_kernel(rng):
    """``C[y, z] = sum_k P[a*y + b*k + c] + P[a*y + d]`` with ``P`` fed by
    ``Q``: two reads of one producer at other offsets (their hull), and a
    producer whose consumer is itself a fused producer."""
    a, b = rng.choice((1, 2)), rng.choice((0, 1, 2))
    c, d = rng.randint(0, 2), rng.randint(0, 3)
    ys, zs, ks = rng.randint(1, 8), rng.randint(1, 4), rng.randint(1, 4)
    n = max(a * (ys - 1) + b * (ks - 1) + c, a * (ys - 1) + d) + 1
    q = ops.relu(placeholder((n,), name="A"), name="Q")
    p = ops.scalar_add(q, 1.0, name="P")
    k = reduce_axis((0, ks), "k")
    out = compute(
        (ys, zs),
        lambda y, z: te_sum(p[y * a + k * b + c] + p[y * a + d], axis=k),
        name="C",
    )
    kernel = lower(out)
    return kernel, compute_dependences(kernel)


def _fused(kernel, sizes):
    """The consumer's statements tiled by identity rows over ``y`` and
    ``z`` (sizes clamped), every other statement fused under them, nearest
    first: the group fusion would build, without the rank-change barrier
    that keeps a 1-D producer out of a 2-D nest."""
    *producers, init, update = kernel.statements
    sizes = [min(s, n) for s, n in zip(sizes, update.iter_extents)]
    counts = [-(-n // s) for s, n in zip(sizes, update.iter_extents)]
    band_rows = {s.stmt_id: [var(d) for d in s.iter_names[:2]] for s in (init, update)}
    return TiledGroup(
        ["o0", "o1"], sizes, counts, list(kernel.statements),
        [s.stmt_id for s in producers], [init.stmt_id, update.stmt_id], band_rows,
    )


def _boxes(stmt):
    return product(*[range(n) for n in stmt.iter_extents])


def _needed(group):
    """Per statement, per tile, the instances the tile runs (a live-out
    statement) or reads (a fused producer), enumerated: a live-out
    instance is in the tile its identity band rows fall in."""
    by_id = {s.stmt_id: s for s in group.statements}
    needed = {}
    for sid, rows in group.band_rows.items():
        stmt = by_id[sid]
        tiles = needed[sid] = {}
        for point in _boxes(stmt):
            env = dict(zip(stmt.iter_names, point))
            tile = tuple(
                int(row.evaluate(env)) // size for row, size in zip(rows, group.tile_sizes)
            )
            tiles.setdefault(tile, set()).add(point)
    for sid in reversed(group.fused_producer_ids):
        stmt = by_id[sid]
        writers = {}
        for point in _boxes(stmt):
            writers.setdefault(stmt.write_index(point), []).append(point)
        tiles = needed[sid] = {}
        for cid, by_tile in list(needed.items()):
            reads = [r for r in by_id[cid].reads if r.tensor.name == stmt.tensor.name]
            for tile, points in by_tile.items():
                for point in points:
                    env = dict(zip(by_id[cid].iter_names, point))
                    for read in reads:
                        element = tuple(int(e.evaluate(env)) for e in read.indices)
                        tiles.setdefault(tile, set()).update(writers.get(element, ()))
    return needed


def _members(relation, stmt, tile_dims, tile):
    """The instances of ``stmt`` that ``relation`` maps ``tile`` to."""
    env = dict(zip(tile_dims, tile))
    out = set()
    for point in _boxes(stmt):
        env.update(zip(stmt.iter_names, point))
        if all(c.satisfied(env) for c in relation.constraints):
            out.add(point)
    return out


def test_producer_windows_hold_the_instances_and_are_within_fm():
    rng = random.Random(20261019)
    seen = Counter()
    for case in range(160):
        make = _window_kernel if case % 2 else _hull_kernel
        kernel, deps = make(rng)
        sizes = [rng.choice((1, 2, 3, 4, 8)) for _ in range(2)]
        group = _fused(kernel, sizes)
        fm_relations = fm_producer_relations(group, deps)
        needed = _needed(group)
        tiles = list(product(*[range(n) for n in group.tile_counts]))
        for sid in group.fused_producer_ids:
            stmt = next(s for s in group.statements if s.stmt_id == sid)
            relation = group.instance_relations[sid]
            fm = fm_relations[sid]
            for tile in tiles:
                span = _members(relation, stmt, group.tile_dims, tile)
                assert needed[sid].get(tile, set()) <= span, (sid, tile)
                assert span <= _members(fm, stmt, group.tile_dims, tile), (sid, tile)
            window = group.windows[sid]
            bound = fm_extents(stmt, fm, group.tile_dims, group.tile_counts)
            assert all(w <= f for w, f in zip(window, bound)), (sid, window, bound)
            seen["equal" if window == bound else "tighter"] += 1
            seen["chained"] += any(
                c.stmt_id in group.fused_producer_ids
                for c in group.statements
                for r in c.reads
                if r.tensor.name == stmt.tensor.name
            )
            seen["halo"] += window[0] > min(sizes[0], stmt.iter_extents[0])
    # A producer read at two offsets gets the reads' hull; FM's union of the
    # two projections keeps only the rows both imply, so it is looser.
    assert seen["equal"] >= 150 and seen["tighter"] >= 30, seen
    assert seen["chained"] >= 30 and seen["halo"] >= 50, seen


# -- (b) every fused producer of the golden kernels and full-size networks -------


@pytest.fixture(scope="module")
def producers():
    """Every (group, producer, dependences) whose extents or footprints a
    cold build of the golden kernels and of the five full-size networks'
    unique subgraphs asked."""
    asked = {}
    extents, footprints = TiledGroup.instance_extents, promote.footprint_extents

    def record(group, stmt_id):
        if stmt_id in group.fused_producer_ids:
            asked.setdefault((id(group), stmt_id), (group, stmt_id))

    def extents_of(group, stmt_id):
        record(group, stmt_id)
        return extents(group, stmt_id)

    def footprint_of(group, stmt, access):
        record(group, stmt.stmt_id)
        return footprints(group, stmt, access)

    builds = [(GOLDEN[name][0], name) for name in sorted(GOLDEN)]
    for net in ("resnet50", "mobilenetv2", "ssd300", "alexnet", "bert21128"):
        builds += [
            (lambda spec=spec: list(spec.canonical_outputs), spec.name)
            for spec in partition(network(net)).unique.values()
        ]
    out = []
    with pytest.MonkeyPatch.context() as patch, diskcache.disabled():
        patch.setattr(TiledGroup, "instance_extents", extents_of)
        patch.setattr(promote, "footprint_extents", footprint_of)
        for make, name in builds:
            clear_solver_caches()
            deps = build(make(), name).deps
            out += [(group, sid, deps) for group, sid in asked.values()]
            asked.clear()
    clear_solver_caches()
    return out


def _offset_range(relation, tile_dims, tile_counts, dim, rate):
    """``(min, max)`` of ``dim - rate . o`` over ``relation`` with every
    tile dim ``o`` on its grid, rounded inward (the offset is an integer);
    ``None`` when the relation is empty there."""
    offset = AffineExpr.variable(dim)
    cons = list(relation.constraints)
    for o, r, count in zip(tile_dims, rate, tile_counts):
        offset = offset - AffineExpr.variable(o) * r
        cons += [Constraint.ge(var(o), 0), Constraint.le(var(o), count - 1)]
    cons.append(Constraint.eq(var("__offset__"), offset))
    interval = interval_of(cons, "__offset__")
    if interval is None:
        return None
    return ceil(interval[0]), floor(interval[1])


def test_every_network_producer_window_equals_fm(producers):
    footprints = looser = 0
    for group, sid, deps in producers:
        stmt = next(s for s in group.statements if s.stmt_id == sid)
        relation = fm_producer_relations(group, deps)[sid]
        assert group.windows[sid] == fm_extents(
            stmt, relation, group.tile_dims, group.tile_counts
        ), (group, sid)
        for access in [stmt.write] + stmt.reads:
            if not access.is_affine:
                continue
            bounds = footprint_bounds(relation, access.indices, group.tile_counts)
            want = [
                n if b is None else max(min(b, n), 1)
                for b, n in zip(bounds, access.tensor.shape)
            ]
            assert promote.footprint_extents(group, stmt, access) == want, (sid, access)
            footprints += 1
        # In every tile, what FM maps the tile to lies in the span's interval.
        for dim, (rate, low, length) in group.spans[sid].items():
            reach = _offset_range(relation, group.tile_dims, group.tile_counts, dim, rate)
            if reach is None:
                continue
            assert low <= reach[0] and reach[1] <= low + length - 1, (group, sid, dim)
            looser += (low, low + length - 1) != reach
    # Over the whole grid the span reaches exactly as far as FM does: the
    # two differ at most in a tile at the grid's edge.
    assert looser == 0, looser
    assert len(producers) >= 240 and footprints >= 650, (len(producers), footprints)


# -- (c) a restored group derives the same windows, spans and relations ---------------


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_restored_group_gives_every_statement_the_same_extents(name):
    with diskcache.disabled():
        clear_solver_caches()
        result = build(GOLDEN[name][0](), name)
    for group in result.groups:
        restored = pickle.loads(pickle.dumps(group))
        assert "windows" not in restored.__dict__ and "spans" not in restored.__dict__
        for stmt in group.statements:
            assert restored.instance_extents(stmt.stmt_id) == group.instance_extents(
                stmt.stmt_id
            ), stmt.stmt_id
        assert restored.windows == group.windows
        assert repr(restored.instance_relations) == repr(group.instance_relations)
