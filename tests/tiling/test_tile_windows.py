"""Tile windows against Fourier-Motzkin.

A live-out statement tiled by identity band rows on distinct dims reads
its per-tile instance extents and its footprints off its tile window
(``TiledGroup.windows``): per dim the clamped tile size, or the extent of
an untiled dim, and per subscript ``1 + sum |a_j| * (L_j - 1)`` clipped to
the tensor.  The oracle is the path every other statement still takes:
``affine_extent_bounds`` on the statement's ``tile -> instances`` relation
and ``footprint_bounds`` on its ``footprint_key``.  They must agree

(a) on a seeded corpus of statements, windows and subscripts built for
    the cases a wrong formula shows on, and
(b) on every windowed statement of the golden kernels, the benchmark's
    compile rows (tuner sweeps included) and ``mobilenetv2_tiny``'s
    unique subgraphs, at every size Auto Tiling and the tuner probe.

(c) pins that a cold compile of every benchmark compile row without a
    fused producer asks neither the extent nor the footprint table.
"""

import random
from collections import Counter

import pytest

from repro.autotune.tuner import tune_tile_sizes
from repro.core import diskcache
from repro.core.compiler import build
from repro.fusion.posttile import TiledGroup
from repro.graph import compile_network, network
from repro.ir.expr import FloatImm
from repro.ir.lower import PolyStatement, TensorAccess
from repro.ir.tensor import Tensor
from repro.poly.affine import AffineExpr, var
from repro.poly.cache import clear_solver_caches, solver_cache_stats
from repro.storage import promote
from repro.tiling.reverse import (
    affine_extent_bounds,
    footprint_bounds,
    footprint_key,
    positional,
    relation_key,
)

from tests.core.test_golden_programs import GOLDEN

#: The tuner sweep of the benchmark's compile rows.
TUNE_PARAMS = dict(seed=0, first_round=8, round_size=4, max_rounds=2, parallel=False)


def _clip(bounds, extents):
    return [n if b is None else max(min(b, n), 1) for b, n in zip(bounds, extents)]


def _fm_extents(group, stmt):
    rel = group.instance_relations[stmt.stmt_id]
    box = {d: (0, c - 1) for d, c in zip(group.tile_dims, group.tile_counts)}
    bounds = affine_extent_bounds(rel.constraints, stmt.iter_names, box)
    return _clip(bounds, stmt.iter_extents)


def _fm_footprint(group, stmt, access):
    key = footprint_key(
        relation_key(group.instance_relations[stmt.stmt_id]),
        positional(access.indices, stmt.iter_names),
        access.tensor.shape,
        group.tile_counts,
    )
    return _clip(footprint_bounds(key), access.tensor.shape)


# -- (a) a seeded corpus ------------------------------------------------------------


def _subscript(rng, dims, seen):
    """One affine subscript over ``dims``."""
    i, j = rng.choice(dims), rng.choice(dims)
    kind = rng.choice(
        ("plain", "offset", "negative", "scaled", "sum", "mixed", "constant")
    )
    seen[kind] += 1
    return {
        "plain": lambda: var(i),
        "offset": lambda: var(i) + rng.randint(-2, 3),
        # A[N - 1 - i]
        "negative": lambda: AffineExpr.constant(rng.randint(4, 40)) - var(i),
        "scaled": lambda: var(i) * rng.choice((2, 3, -2)) + rng.randint(0, 2),
        "sum": lambda: var(i) + var(j),  # h + kh
        "mixed": lambda: var(i) * 2 - var(j) * 3 + 1,
        "constant": lambda: AffineExpr.constant(rng.randint(0, 3)),
    }[kind]()


def _case(rng, seen):
    """A statement over a random box, tiled by identity rows over a random
    subset of its dims, in random order, with sizes of 1, the whole extent,
    a partial tile, or more than the extent (a size clamped to a longer
    statement of the same band)."""
    dims = rng.sample(["h", "w", "c", "kh", "n", "k_ax0"], rng.randint(1, 4))
    extents = [rng.choice((1, 1, 2, 3, 5, 8, 13, 16)) for _ in dims]
    seen["unit_extent"] += 1 in extents
    tiled = rng.sample(range(len(dims)), rng.randint(0, len(dims)))
    seen["untiled_dim"] += len(tiled) < len(dims)
    rows, sizes = [], []
    for k in tiled:
        rows.append(var(dims[k]))
        kind = rng.choice(("one", "whole", "partial", "over"))
        seen[kind] += 1
        sizes.append({
            "one": 1,
            "whole": extents[k],
            "partial": rng.randint(1, max(extents[k] - 1, 1)),
            "over": extents[k] + rng.randint(1, 4),
        }[kind])
    counts = [-(-extents[k] // size) for k, size in zip(tiled, sizes)]
    seen["partial_last_tile"] += any(
        extents[k] % size for k, size in zip(tiled, sizes)
    )
    out = Tensor("O", tuple(extents), "fp32")
    reads = []
    for _ in range(rng.randint(1, 3)):
        indices = [_subscript(rng, dims, seen) for _ in range(rng.randint(1, 3))]
        # A shape below the subscript's range clips the footprint.
        shape = tuple(rng.randint(1, 48) for _ in indices)
        reads.append(TensorAccess(Tensor("A", shape, "fp32"), indices))
    stmt = PolyStatement(
        stmt_id="S0",
        tensor=out,
        iter_names=dims,
        iter_extents=extents,
        data_rank=len(dims),
        write=TensorAccess(out, [var(d) for d in dims]),
        reads=reads,
        expr=FloatImm(0.0),
        kind="compute",
    )
    group = TiledGroup(
        tile_dims=[f"o{i}" for i in range(len(rows))],
        tile_sizes=sizes,
        tile_counts=counts,
        statements=[stmt],
        fused_producer_ids=[],
        liveout_ids=["S0"],
        band_rows={"S0": rows},
    )
    return group, stmt


def test_windows_equal_fm_on_a_seeded_corpus():
    seen = Counter()
    rng = random.Random(20261018)
    for _ in range(400):
        group, stmt = _case(rng, seen)
        assert stmt.stmt_id in group.windows
        assert group.instance_extents(stmt.stmt_id) == _fm_extents(group, stmt)
        window = group.windows[stmt.stmt_id]
        for access in [stmt.write] + stmt.reads:
            got = promote.footprint_extents(group, stmt, access)
            assert got == _fm_footprint(group, stmt, access), (access, window)
            spreads = [stmt.box_bounds(e, window) for e in access.indices]
            seen["clipped"] += any(
                hi - lo + 1 > n for (lo, hi), n in zip(spreads, access.tensor.shape)
            )
    for path in (
        "plain", "offset", "negative", "scaled", "sum", "mixed", "constant",
        "one", "whole", "partial", "over", "partial_last_tile", "unit_extent",
        "untiled_dim", "clipped",
    ):
        assert seen[path] >= 10, (path, seen)


@pytest.mark.parametrize(
    "rows",
    [
        [var("h") + var("w")],  # skewed
        [var("h") * 2],  # scaled
        [var("w") - 3],  # shifted, as the scheduler shifts a mirrored copy
        [var("h"), var("h")],  # one dim twice
        [var("x")],  # a dim outside the box
    ],
)
def test_a_statement_without_identity_rows_has_no_window(rows):
    out = Tensor("O", (8, 6), "fp32")
    stmt = PolyStatement(
        "S0", out, ["h", "w"], [8, 6], 2,
        TensorAccess(out, [var("h"), var("w")]), [], FloatImm(0.0), "compute",
    )
    group = TiledGroup(
        [f"o{i}" for i in range(len(rows))], [4] * len(rows), [2] * len(rows),
        [stmt], [], ["S0"], {"S0": rows},
    )
    assert group.windows == {}


def test_an_empty_box_has_no_window():
    out = Tensor("O", (8, 1), "fp32")
    stmt = PolyStatement(
        "S0", out, ["h", "w"], [8, 0], 2,
        TensorAccess(out, [var("h"), var("w")]), [], FloatImm(0.0), "compute",
    )
    group = TiledGroup(["o0"], [4], [2], [stmt], [], ["S0"], {"S0": [var("h")]})
    assert group.windows == {}


# -- (b) every windowed answer of the paper workloads --------------------------------


@pytest.fixture(scope="module")
def asked():
    """Every (group, statement) whose extents and every (group, statement,
    access) whose footprint a windowed statement answered, over cold
    compiles of the golden kernels (Table 1 and the benchmark's compile
    rows), the benchmark's tuner rows and ``mobilenetv2_tiny``."""
    seen = {"extents": [], "footprints": []}
    extents, footprints = TiledGroup.instance_extents, promote.footprint_extents

    def extents_of(group, stmt_id):
        if stmt_id in group.windows:
            seen["extents"].append((group, stmt_id))
        return extents(group, stmt_id)

    def footprint_of(group, stmt, access):
        if access.is_affine and stmt.stmt_id in group.windows:
            seen["footprints"].append((group, stmt, access))
        return footprints(group, stmt, access)

    with pytest.MonkeyPatch.context() as patch, diskcache.disabled():
        patch.setattr(TiledGroup, "instance_extents", extents_of)
        patch.setattr(promote, "footprint_extents", footprint_of)
        for name in sorted(GOLDEN):
            clear_solver_caches()
            build(GOLDEN[name][0](), name)
        for name in ("add_relu_128x512", "matmul_256", "softmax_32x64"):
            clear_solver_caches()
            tune_tile_sizes(GOLDEN[name][0](), name, **TUNE_PARAMS)
        clear_solver_caches()
        compile_network(network("mobilenetv2_tiny"))
    clear_solver_caches()
    return seen


def test_every_windowed_extent_equals_fm(asked):
    checked = set()
    for group, stmt_id in asked["extents"]:
        if (id(group), stmt_id) in checked:
            continue
        checked.add((id(group), stmt_id))
        stmt = next(s for s in group.statements if s.stmt_id == stmt_id)
        assert group.windows[stmt_id] == _fm_extents(group, stmt), (group, stmt_id)
    assert len(checked) >= 100


def test_every_windowed_footprint_equals_fm(asked):
    checked = set()
    for group, stmt, access in asked["footprints"]:
        key = (id(group), stmt.stmt_id, id(access))
        if key in checked:
            continue
        checked.add(key)
        got = promote.footprint_extents(group, stmt, access)
        assert got == _fm_footprint(group, stmt, access), (group, stmt, access)
    assert len(checked) >= 900


# -- (c) the benchmark's compile rows ask neither table --------------------------------

#: The compile_tile and compile_sched rows without a fused producer.
ROWS = {
    "add_relu_128x512": lambda: build(GOLDEN["add_relu_128x512"][0](), "k"),
    "softmax_32x64": lambda: build(GOLDEN["softmax_32x64"][0](), "k"),
    "subgraph2": lambda: build(GOLDEN["subgraph2"][0](), "k"),
    "conv2d_16x32": lambda: build(GOLDEN["conv2d_16x32"][0](), "k"),
    **{
        f"tune_{name}": lambda name=name: tune_tile_sizes(
            GOLDEN[name][0](), name, **TUNE_PARAMS
        )
        for name in ("add_relu_128x512", "matmul_256", "softmax_32x64")
    },
    "net_mobilenetv2_tiny": lambda: compile_network(network("mobilenetv2_tiny")),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_a_compile_row_without_fused_producers_asks_no_extent_or_footprint(name):
    with diskcache.disabled():
        clear_solver_caches()
        ROWS[name]()
    stats = solver_cache_stats()
    for table in ("extent", "footprint"):
        assert (stats[table]["hits"], stats[table]["misses"]) == (0, 0), table

