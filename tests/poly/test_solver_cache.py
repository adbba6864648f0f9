"""Tests for the polyhedral solver memoization layer."""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from repro.autotune.tuner import tune_tile_sizes
from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.ir import ops
from repro.core.context import counters, reset_counters
from repro.ir.tensor import placeholder
from repro.poly.affine import Constraint, var
from repro.poly.cache import (
    ILP_CACHE,
    MISS,
    SolveCache,
    clear_solver_caches,
    set_solver_cache_enabled,
    solver_cache_stats,
)
from repro.poly.fm import project_onto
from repro.poly.ilp import IlpProblem, IlpStatus

from tests.poly._counts import hits_misses
from tests.poly.test_simplex_equivalence import _mirrored


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_solver_caches()
    yield
    clear_solver_caches()


def _box_problem():
    return IlpProblem(
        [
            Constraint.ge(var("i"), 0),
            Constraint.le(var("i"), 7),
            Constraint.ge(var("j"), 0),
            Constraint.le(var("j"), 5),
            Constraint.ge(var("i") - var("j"), -2),
        ]
    )


class TestIlpCache:
    def test_repeat_solve_hits_cache(self):
        obj = var("i") + var("j")
        first = _box_problem().minimize(obj)
        assert hits_misses("ilp") == (0, 1)
        second = _box_problem().minimize(obj)
        assert solver_cache_stats()["ilp"]["hits"] == 1
        assert second.status is first.status
        assert second.value == first.value
        assert second.assignment == first.assignment

    def test_cached_result_is_isolated_from_mutation(self):
        obj = var("i")
        first = _box_problem().minimize(obj)
        first.assignment["i"] = Fraction(999)
        second = _box_problem().minimize(obj)
        assert second.assignment["i"] != Fraction(999)

    def test_distinct_objectives_do_not_collide(self):
        p = _box_problem()
        lo = p.minimize(var("i"))
        hi = p.maximize(var("i"))
        assert (lo.value, hi.value) == (0, 7)

    def test_infeasible_results_are_cached_too(self):
        bad = IlpProblem(
            [Constraint.ge(var("x"), 3), Constraint.le(var("x"), 1)]
        )
        assert bad.minimize(var("x")).status is IlpStatus.INFEASIBLE
        bad2 = IlpProblem(
            [Constraint.ge(var("x"), 3), Constraint.le(var("x"), 1)]
        )
        assert bad2.minimize(var("x")).status is IlpStatus.INFEASIBLE
        assert solver_cache_stats()["ilp"]["hits"] == 1

    def test_stats_shape(self):
        _box_problem().minimize(var("i"))
        stats = solver_cache_stats()
        assert set(stats) == {"ilp", "fm"}
        for row in stats.values():
            assert {"hits", "misses", "entries", "hit_rate"} <= set(row)

    def test_ilp_row_carries_the_simplex_work(self):
        """Pivots and tableau rows ride on the ``ilp`` entry alone: summed
        over solves, untouched by a hit, zeroed with the other counters."""
        obj = var("i") * 2 - var("j")
        _box_problem().minimize(obj)
        stats = solver_cache_stats()
        work = {k: stats["ilp"][k] for k in ("pivots", "rows")}
        assert work == {"pivots": 1, "rows": 3}  # two boxes + one coupling row
        assert "pivots" not in stats["fm"]
        _box_problem().minimize(obj)  # a hit does no work
        assert solver_cache_stats()["ilp"]["rows"] == 3
        reset_counters("solver.")
        stats = solver_cache_stats()["ilp"]
        assert (stats["pivots"], stats["rows"], stats["entries"]) == (0, 0, 1)

    def test_reset_stats_keeps_entries(self):
        """``reset_counters("solver.")`` zeroes the counters without
        dropping the memo: subsequent identical solves still hit."""
        obj = var("i") + var("j")
        _box_problem().minimize(obj)
        _box_problem().minimize(obj)
        assert hits_misses("ilp") == (1, 1)
        entries = len(ILP_CACHE)
        reset_counters("solver.")
        assert hits_misses("ilp") == (0, 0)
        assert len(ILP_CACHE) == entries
        _box_problem().minimize(obj)
        assert hits_misses("ilp") == (1, 0)
        stats = solver_cache_stats()
        assert stats["ilp"]["hits"] == 1


class TestFmCache:
    def test_repeat_projection_hits_cache(self):
        cons = [
            Constraint.ge(var("i"), 0),
            Constraint.le(var("i"), 7),
            Constraint.eq(var("j") - var("i"), 1),
        ]
        first = project_onto(cons, ["j"])
        assert solver_cache_stats()["fm"]["misses"] >= 1
        hits_before = solver_cache_stats()["fm"]["hits"]
        second = project_onto(list(cons), ["j"])
        assert solver_cache_stats()["fm"]["hits"] == hits_before + 1
        assert second == first

    def test_cached_list_is_a_copy(self):
        cons = [Constraint.ge(var("i"), 0), Constraint.le(var("i"), 3)]
        first = project_onto(cons, ["i"])
        first.append(Constraint.ge(var("i"), 99))
        second = project_onto(cons, ["i"])
        assert Constraint.ge(var("i"), 99) not in second


# -- cached == uncached on whole compiles -----------------------------------------


def _compiled(make):
    result = build(make(), "k", options=AkgOptions(emit_trace=True))
    return result.program.dump(), result.cycles()


def _tuned(make):
    best, history = tune_tile_sizes(
        make(), "k", seed=0, first_round=8, round_size=4, max_rounds=2, parallel=False
    )
    return best, [(r.sizes, r.cycles) for r in history]


def _elementwise_4d(op, shape):
    def make():
        x = placeholder(shape, "fp16", name="X")
        y = placeholder(shape, "fp16", name="Y")
        b = placeholder(shape[1:2], "fp16", name="B")
        return {
            "relu": lambda: ops.relu(x, name="out"),
            "add": lambda: ops.add(ops.relu(x, name="r"), y, name="out"),
            "bias_add": lambda: ops.broadcast_add_channel(x, b, name="out"),
        }[op]()

    return make


# Each kernel beside a mirrored copy of its output: its own dependences
# are answered in closed form, the copy's pose the ILP.  The scheduler
# shifts the original's last band row, so it has no tile window: its
# footprints and extents are solved, unmemoized, not read off a window.
PIPELINES = {
    "relu_8x16x4x4": (_compiled, _mirrored(_elementwise_4d("relu", (8, 16, 4, 4)))),
    "add_4x8x8x8": (_compiled, _mirrored(_elementwise_4d("add", (4, 8, 8, 8)))),
    "bias_add_8x16x4x4": (
        _compiled, _mirrored(_elementwise_4d("bias_add", (8, 16, 4, 4)))
    ),
    "tune_relu_4x8x8x8": (_tuned, _mirrored(_elementwise_4d("relu", (4, 8, 8, 8)))),
}


class TestCacheBehaviour:
    def test_disable_bypasses_lookup_and_store(self):
        set_solver_cache_enabled(False)
        try:
            _box_problem().minimize(var("i"))
            _box_problem().minimize(var("i"))
            assert hits_misses("ilp") == (0, 0)
            assert len(ILP_CACHE) == 0
        finally:
            set_solver_cache_enabled(True)

    def test_eviction_bounds_size(self):
        cache = SolveCache("t", maxsize=3)
        for i in range(5):
            cache.store(i, i)
        assert len(cache) == 3
        assert cache.lookup(0) is MISS  # oldest evicted
        assert cache.lookup(4) == 4

    def test_none_is_a_value_not_a_miss(self):
        cache = SolveCache("t")
        assert cache.lookup("k") is MISS
        cache.store("k", None)
        assert cache.lookup("k") is None
        assert counters("solver.t.") == {"hits": 1, "misses": 1}

    def test_cache_equivalence_on_pipeline(self):
        """Cached and uncached compilation produce byte-identical programs,
        cycle counts and tuner histories, auto-tiling included.

        The persistent disk cache is off here: this test isolates the
        in-process solver memoization (a disk hit would skip the solvers
        entirely and prove nothing about them)."""
        for name, (run, make) in PIPELINES.items():
            with diskcache.disabled():
                set_solver_cache_enabled(False)
                try:
                    uncached = run(make)
                finally:
                    set_solver_cache_enabled(True)
                clear_solver_caches()
                cold = run(make)
                # The cold run solved ILPs.  ``fm`` is unreached: each
                # projection these pipelines pose is an extent or a
                # footprint, solved on its own rows.
                stats = solver_cache_stats()
                assert stats["ilp"]["misses"] and stats["ilp"]["entries"], name
                assert (stats["fm"]["hits"], stats["fm"]["misses"]) == (0, 0), name
                reset_counters("solver.")
                warm = run(make)
            # A warm re-run solves no ILP anew: the table answers it.
            stats = solver_cache_stats()
            assert not any(r["misses"] for r in stats.values()), name
            assert stats["ilp"]["hits"], name
            assert stats["fm"]["hits"] == 0, name
            assert uncached == cold == warm, name


def test_threads_compiling_renamed_twins_share_entries():
    """Four threads compile differently-named twins of one kernel at once.
    Entries are shared across names, so the threads read and fill the
    same lines; every dump must equal that twin's own serial compile.  Each
    twin's 4-D output is mirrored, so its dependences pose the ILP."""
    def twin(prefix):
        def make():
            x = placeholder((8, 16, 4, 4), "fp16", name=prefix + "X")
            y = placeholder((8, 16, 4, 4), "fp16", name=prefix + "Y")
            return ops.relu(
                ops.add(ops.relu(x, name=prefix + "r"), y, name=prefix + "s"),
                name=prefix + "out",
            )

        return _mirrored(make)

    twins = [twin(prefix) for prefix in ("a_", "kk_", "m3_", "zz_")]
    with diskcache.disabled():
        serial = []
        for make in twins:
            clear_solver_caches()
            serial.append(_compiled(make))
        stats = solver_cache_stats()
        misses_of_one = stats["ilp"]["misses"] + stats["fm"]["misses"]
        assert len({dump for dump, _ in serial}) == len(twins)  # names differ

        clear_solver_caches()
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(_compiled, twins))
    assert threaded == serial
    # Four name-carrying problem sets would be four times one compile's
    # misses; racing threads may each miss a line once before it is stored.
    stats = solver_cache_stats()
    assert stats["ilp"]["misses"] + stats["fm"]["misses"] < 4 * misses_of_one
    assert stats["ilp"]["hits"] + stats["fm"]["hits"] > 0
