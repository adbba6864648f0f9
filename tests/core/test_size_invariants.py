"""The tile search's per-front-end state is exact, private and unpickled.

:meth:`~repro.core.frontend.FrontEnd.invariants` answers what no tile
size changes once per front-end.  Held here:

(a) every tuner candidate built from the shared, warm front-end is the
    program a fresh cold ``build`` emits at the same sizes, and every
    statement's tile window is what Fourier-Motzkin bounds on its
    relation;
(b) a front-end pickles to the same bytes before and after backend builds
    ran on it (disk-cache entries and the parallel tuner's payload);
(c) two cold builds of one kernel in one process share no tile-search
    state, and concurrent first use of one front-end makes one table.
"""

import pickle
import threading

import pytest

from repro.autotune.tuner import tune_frontend
from repro.core import diskcache
from repro.core.compiler import AkgOptions, backend_build, build
from repro.core.frontend import run_frontend
from repro.poly.cache import clear_solver_caches
from repro.tiling.reverse import affine_extent_bounds

from tests.core.test_golden_programs import GOLDEN

#: The tuner rows of the repo benchmark, and its sweep.
TUNED = ("add_relu_128x512", "matmul_256", "softmax_32x64")
SWEEP = dict(seed=0, first_round=8, round_size=4, max_rounds=2)


@pytest.mark.parametrize("name", TUNED)
def test_every_candidate_from_the_shared_front_end_equals_a_cold_build(name):
    make = GOLDEN[name][0]
    with diskcache.disabled():
        clear_solver_caches()
        frontend = run_frontend(make(), name)
        _best, records = tune_frontend(frontend, **SWEEP)
        assert len(records) >= 8
        for record in records:
            options = AkgOptions(tile_sizes=record.sizes)
            shared = backend_build(frontend, options)
            clear_solver_caches()
            cold = build(make(), name, options=options)
            assert shared.program.dump() == cold.program.dump(), record.sizes
            assert shared.cycles() == cold.cycles() == record.cycles
            assert pickle.dumps(shared.groups) == pickle.dumps(cold.groups)
            assert pickle.dumps(shared.plans) == pickle.dumps(cold.plans)
            for group in shared.groups:
                box = {
                    d: (0, c - 1) for d, c in zip(group.tile_dims, group.tile_counts)
                }
                for stmt in group.statements:
                    rel = group.instance_relations[stmt.stmt_id]
                    bounds = affine_extent_bounds(rel.constraints, stmt.iter_names, box)
                    assert group.windows[stmt.stmt_id] == [
                        max(min(b, n), 1) for b, n in zip(bounds, stmt.iter_extents)
                    ], stmt.stmt_id


@pytest.mark.parametrize("name", TUNED + ("subgraph5",))
def test_a_front_end_pickles_the_same_after_backend_builds(name):
    with diskcache.disabled():
        frontend = run_frontend(GOLDEN[name][0](), name)
        before = pickle.dumps(frontend)
        result = backend_build(frontend)
        backend_build(frontend, AkgOptions(tile_sizes=[max(s // 2, 1) for s in result.tile_sizes]))
        assert pickle.dumps(frontend) == before
        clone = pickle.loads(before)
        assert clone.invariants() is not frontend.invariants()
        assert backend_build(clone).program.dump() == result.program.dump()


def test_subgraph5_builds_its_split_variant():
    """The row above covers a front-end whose lazy split schedule ran."""
    with diskcache.disabled():
        frontend = run_frontend(GOLDEN["subgraph5"][0](), "subgraph5")
        backend_build(frontend)
        assert frontend._split is not None


def _owned(result):
    """Every object of a result the tile search made."""
    objects = []
    for group in result.groups:
        objects += [group, group.instance_relations, group.tile_sizes, group.tile_counts]
        objects += list(group.instance_relations.values())
    for plan in result.plans:
        objects += [plan, plan.allocations, plan.moves]
        objects += list(plan.allocations.values()) + list(plan.moves)
    objects += list(result.assignments)
    return {id(o): o for o in objects}


@pytest.mark.parametrize("name", ("softmax_32x64", "subgraph5"))
def test_two_cold_builds_share_no_tile_search_state(name):
    with diskcache.disabled():
        first = build(GOLDEN[name][0](), name)
        second = build(GOLDEN[name][0](), name)
    assert first.program.dump() == second.program.dump()
    assert not _owned(first).keys() & _owned(second).keys()


def test_concurrent_first_use_makes_one_table():
    with diskcache.disabled():
        frontend = run_frontend(GOLDEN["softmax_32x64"][0](), "softmax_32x64")
    start = threading.Barrier(4)
    seen = []

    def first_use():
        start.wait()
        seen.append(frontend.invariants())

    threads = [threading.Thread(target=first_use) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(table) for table in seen}) == 1


@pytest.mark.parametrize("name", ("subgraph2", "softmax_32x64"))
def test_a_probe_whose_footprints_hit_builds_no_map(name, monkeypatch):
    from repro.poly.affine import Constraint
    from repro.poly.maps import BasicMap
    from repro.tiling.policy import probe_plan

    with diskcache.disabled():
        frontend = run_frontend(GOLDEN[name][0](), name)
    sizes = [min(4, e) for e in frontend.extents]
    first = probe_plan(frontend, AkgOptions(), sizes)
    built = []
    for cls in (Constraint, BasicMap):
        init = cls.__init__

        def counted(self, *args, _init=init, **kw):
            built.append(type(self).__name__)
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counted)
    assert probe_plan(frontend, AkgOptions(), sizes) == first
    assert built == []
    # New sizes are new tile windows: every statement has one, so no map
    # is built for them either.
    probe_plan(frontend, AkgOptions(), [min(8, e) for e in frontend.extents])
    assert built == []
