"""The persistent compilation cache: store semantics and end-to-end reuse.

Covers the three layers separately:

- :class:`~repro.core.diskcache.DiskCache` itself (round trips, corrupt
  entries, eviction, kill switches);
- the fingerprints (identity-independence, sensitivity to every semantic
  attribute);
- the wiring (warm ``run_frontend``/``build`` hit the cache and return
  byte-identical programs; the tuner replays measurements and converges
  on the same best sizes).
"""

import hashlib
import os
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core import diskcache, faults
from repro.core.compiler import AkgOptions, build
from repro.core.context import counters
from repro.core.frontend import FrontEnd, run_frontend
from repro.hw.spec import HardwareSpec
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.tools import perf


def _disk_counts():
    """The ``diskcache.*`` counters (a missing label reads 0)."""
    return Counter(counters("diskcache."))


def _relu_kernel(shape=(16, 24)):
    x = placeholder(shape, dtype="fp16", name="X")
    return ops.relu(x, name="out")


def _matmul_kernel(m=12, k=10, n=8):
    a = placeholder((m, k), dtype="fp16", name="A")
    b = placeholder((k, n), dtype="fp16", name="B")
    return ops.matmul(a, b, name="out")


#: A shape per op of the ``akgc``/``akgd`` demo-kernel catalog.
CATALOG_SHAPES = {
    "relu": [8, 32],
    "add": [8, 32],
    "softmax": [8, 32],
    "matmul": [16, 16, 16],
    "conv2d": [1, 4, 10, 10],
}


def catalog_graphs():
    """``(label, outputs)`` of every demo-kernel catalog op, concrete and
    symbolic-batch, then of every golden row (the Table 1 subgraphs too)."""
    from repro.service.wire import DEMO_OPS, demo_kernel
    from tests.core.test_golden_programs import GOLDEN

    for op in DEMO_OPS:
        shape = CATALOG_SHAPES[op]
        for batch_max in (None, shape[0]):
            yield f"{op}:{batch_max}", demo_kernel(op, shape, batch_max=batch_max)
    for name in sorted(GOLDEN):
        yield name, GOLDEN[name][0]()


class TestDiskCacheStore:
    def test_round_trip(self, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("unit", "round-trip")
        assert cache.get(key) is None
        assert cache.put(key, {"payload": [1, 2, 3]})
        assert cache.get(key) == {"payload": [1, 2, 3]}
        stats = _disk_counts()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("unit", "corrupt")
        cache.put(key, "fine")
        path = cache._path(key)
        with open(path, "wb") as fh:
            fh.write(b"\x80\x05 this is not a pickle")
        assert cache.get(key) is None
        assert not os.path.exists(path)
        assert _disk_counts()["errors"] == 1
        # The next put/get pair works again.
        cache.put(key, "fine again")
        assert cache.get(key) == "fine again"

    def test_truncated_entry_tolerated(self, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("unit", "truncated")
        cache.put(key, list(range(1000)))
        path = cache._path(key)
        with open(path, "rb") as fh:
            head = fh.read(10)
        with open(path, "wb") as fh:
            fh.write(head)
        assert cache.get(key) is None

    def test_unpicklable_value_degrades_to_not_cached(self, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("unit", "unpicklable")
        assert not cache.put(key, lambda: None)
        assert cache.get(key) is None

    def test_eviction_bounds_entry_count(self, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"), max_entries=3)
        keys = [diskcache.digest("unit", f"evict-{i}") for i in range(6)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert len(cache) <= 3
        assert _disk_counts()["evictions"] >= 3

    def test_clear(self, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        for i in range(4):
            cache.put(diskcache.digest("unit", f"clear-{i}"), i)
        cache.clear()
        assert len(cache) == 0


class TestConcurrentWriters:
    def test_racing_same_key_writers_leave_a_verifiable_entry(self, tmp_path):
        """N threads race put() on one key: whichever whole entry wins the
        ``os.replace`` must pass the sha256 header check — interleaved
        bytes would fail ``_decode`` and count as a corruption."""
        import threading

        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("unit", "writer-race")
        threads = 8
        rounds = 25
        barrier = threading.Barrier(threads)
        failures = []

        def writer(tid):
            # Distinct payloads (and sizes) per writer make byte
            # interleaving detectable.
            value = {"writer": tid, "blob": bytes([tid]) * (1000 + tid * 97)}
            barrier.wait()
            for _ in range(rounds):
                if not cache.put(key, value):
                    failures.append(tid)

        pool = [
            threading.Thread(target=writer, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        assert not failures
        survivor = cache.get(key)
        assert survivor is not None
        tid = survivor["writer"]
        assert survivor["blob"] == bytes([tid]) * (1000 + tid * 97)
        assert _disk_counts()["corruptions"] == 0
        assert _disk_counts()["errors"] == 0
        assert _disk_counts()["stores"] == threads * rounds
        # No temp-file debris left behind by the rename dance.
        shard = os.path.dirname(cache._path(key))
        assert [n for n in os.listdir(shard) if n.endswith(".tmp")] == []

    def test_racing_distinct_keys_all_land(self, tmp_path):
        import threading

        cache = diskcache.DiskCache(str(tmp_path / "c"))
        keys = [diskcache.digest("unit", f"k{i}") for i in range(32)]
        barrier = threading.Barrier(4)

        def writer(chunk):
            barrier.wait()
            for key in chunk:
                cache.put(key, key)

        pool = [
            threading.Thread(target=writer, args=(keys[i::4],))
            for i in range(4)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        for key in keys:
            assert cache.get(key) == key
        assert _disk_counts()["corruptions"] == 0


class TestKillSwitches:
    def test_env_disable(self, monkeypatch):
        key = diskcache.digest("unit", "env-disable")
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        assert not diskcache.enabled()
        assert not diskcache.store(key, "x")
        assert diskcache.load(key) is None
        assert diskcache.disk_cache_stats() == {
            "hits": 0, "misses": 0, "stores": 0, "evictions": 0,
            "errors": 0, "corruptions": 0, "bytes_read": 0, "bytes_written": 0,
            "entries": 0, "hit_rate": 0.0, "enabled": False,
        }
        monkeypatch.delenv("REPRO_NO_DISK_CACHE")
        assert diskcache.enabled()

    def test_programmatic_disable_and_context(self):
        key = diskcache.digest("unit", "prog-disable")
        diskcache.set_disk_cache_enabled(False)
        try:
            assert not diskcache.enabled()
        finally:
            diskcache.set_disk_cache_enabled(True)
        with diskcache.disabled():
            assert not diskcache.enabled()
            assert not diskcache.store(key, "x")
        assert diskcache.enabled()

    def test_cache_dir_override_rebinds(self, tmp_path):
        diskcache.set_cache_dir(str(tmp_path / "override"))
        try:
            assert diskcache.get_cache().root == str(tmp_path / "override")
            key = diskcache.digest("unit", "override")
            diskcache.store(key, 42)
            assert diskcache.load(key) == 42
        finally:
            diskcache.set_cache_dir(None)
        assert diskcache.get_cache().root != str(tmp_path / "override")

    def test_none_key_is_never_cached(self):
        assert diskcache.load(None) is None
        assert not diskcache.store(None, "x")


class TestFingerprints:
    def test_identity_independent(self):
        # Two structurally identical DAGs built separately (fresh Python
        # objects, fresh auto-named axes) fingerprint identically.
        assert diskcache.ir_fingerprint(_matmul_kernel()) == (
            diskcache.ir_fingerprint(_matmul_kernel())
        )

    def test_sensitive_to_shape_dtype_and_op(self):
        base = diskcache.ir_fingerprint(_relu_kernel((16, 24)))
        assert diskcache.ir_fingerprint(_relu_kernel((16, 25))) != base
        x32 = placeholder((16, 24), dtype="fp32", name="X")
        assert diskcache.ir_fingerprint(ops.relu(x32, name="out")) != base
        x = placeholder((16, 24), dtype="fp16", name="X")
        assert diskcache.ir_fingerprint(ops.abs_op(x, name="out")) != base

    def test_digest_changes_with_parts(self):
        assert diskcache.digest("a") != diskcache.digest("b")
        assert diskcache.digest("a", "b") != diskcache.digest("ab")

    def test_stable_value_rejects_exotic_types(self):
        with pytest.raises(diskcache.FingerprintError):
            diskcache._stable_value(object())

    def test_fingerprint_strings_are_pinned(self):
        """The key walk's text, byte for byte, over the catalog: a change
        to how the walk orders or renders a graph moves every key."""
        h = hashlib.sha256()
        for label, graph in catalog_graphs():
            text, symbolic = diskcache.graph_fingerprint(graph)
            h.update(f"{label}={text}:{symbolic}\n".encode())
        assert h.hexdigest() == (
            "5ac7cd4cd64171aa300c70f75dc84ff8e20d8c30af48675a08e4c62931051860"
        )

    def test_options_fingerprint_distinguishes_tile_sizes(self):
        a = diskcache.options_fingerprint(AkgOptions(tile_sizes=[8, 8]))
        b = diskcache.options_fingerprint(AkgOptions(tile_sizes=[8, 16]))
        assert a != b


class TestCompilationReuse:
    def test_frontend_warm_hit(self):
        fe1 = run_frontend(_matmul_kernel(), "reuse")
        assert fe1.cache_key is not None
        stats = diskcache.disk_cache_stats()
        assert stats["stores"] >= 1 and stats["hits"] == 0
        fe2 = run_frontend(_matmul_kernel(), "reuse")
        assert fe2 is not fe1  # unpickled, not the same object
        assert fe2.cache_key == fe1.cache_key
        assert diskcache.disk_cache_stats()["hits"] >= 1
        assert fe2.extents == fe1.extents
        assert len(fe2.deps) == len(fe1.deps)

    def test_build_warm_dump_is_byte_identical(self):
        cold = build(_matmul_kernel(), "dump")
        warm = build(_matmul_kernel(), "dump")
        with diskcache.disabled():
            nocache = build(_matmul_kernel(), "dump")
        assert cold.program.dump() == warm.program.dump()
        assert cold.program.dump() == nocache.program.dump()
        assert cold.tile_sizes == warm.tile_sizes == nocache.tile_sizes
        assert cold.cycles() == warm.cycles() == nocache.cycles()

    def test_warm_result_executes_correctly(self):
        """The unpickled program replays: PolyStatement.var_names (an
        ``id()``-keyed map in the live process) survives the round trip."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 10)).astype(np.float32)
        b = rng.standard_normal((10, 8)).astype(np.float32)
        opts = AkgOptions(emit_trace=True)
        cold = build(_matmul_kernel(), "exec", options=opts)
        warm = build(_matmul_kernel(), "exec", options=opts)
        got_cold = cold.execute({"A": a, "B": b})["out"]
        got_warm = warm.execute({"A": a, "B": b})["out"]
        np.testing.assert_allclose(got_warm, got_cold, rtol=1e-5)
        np.testing.assert_allclose(got_warm, a @ b, rtol=1e-2, atol=1e-2)

    def test_older_format_entries_are_never_probed(self, monkeypatch):
        """An entry written under format 6's digest is not reinterpreted
        by format 7 code: the version salts the key, so it simply misses."""
        assert diskcache.CACHE_FORMAT_VERSION == 7
        with monkeypatch.context() as patch:
            patch.setattr(diskcache, "CACHE_FORMAT_VERSION", 6)
            old = run_frontend(_matmul_kernel(), "fmt")
        diskcache.reset_disk_cache_stats()
        new = run_frontend(_matmul_kernel(), "fmt")
        assert new.cache_key != old.cache_key
        stats = diskcache.disk_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] >= 1 and stats["stores"] >= 1
        # The old entry is still there, under a key nothing asks for.
        assert isinstance(diskcache.load(old.cache_key), FrontEnd)

    def test_older_format_results_are_never_probed(self, monkeypatch):
        """A format 3 ``CompileResult`` entry (it pickled ``deps``) sits
        under a key format 7 never derives: the build is a clean miss --
        no error, no recovery event -- and the old entry stays unread."""
        from repro.core.compiler import CompileResult

        def v3_state(result):
            state = dict(result.__dict__)
            state.pop("_replayers", None)
            return state

        with monkeypatch.context() as patch:
            patch.setattr(diskcache, "CACHE_FORMAT_VERSION", 3)
            patch.setattr(CompileResult, "__getstate__", v3_state)
            old = build(_matmul_kernel(), "fmt_result")
            old_keys = _parent_keys(
                _matmul_kernel(), "fmt_result", HardwareSpec(), AkgOptions()
            )
        old_entry = diskcache.get_cache()._path(old_keys[1])
        with open(old_entry, "rb") as fh:
            old_bytes = fh.read()
        diskcache.reset_disk_cache_stats()
        new = build(_matmul_kernel(), "fmt_result")
        stats = diskcache.disk_cache_stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (0, 2, 2)
        assert stats["errors"] == 0 and stats["corruptions"] == 0
        assert not new.resilience.events
        assert _dump_sha(new) == _dump_sha(old)
        assert _parent_keys(
            _matmul_kernel(), "fmt_result", HardwareSpec(), AkgOptions()
        )[1] != old_keys[1]
        with open(old_entry, "rb") as fh:
            assert fh.read() == old_bytes

    def test_frontend_pickle_round_trip_directly(self):
        fe = run_frontend(_matmul_kernel(), "pickle")
        clone = pickle.loads(pickle.dumps(fe))
        assert isinstance(clone, FrontEnd)
        assert clone.extents == fe.extents
        # var_names must come back as a usable id-keyed map.
        for stmt, cstmt in zip(fe.kernel.statements, clone.kernel.statements):
            assert sorted(stmt.var_names.values()) == (
                sorted(cstmt.var_names.values())
            )

    def test_different_options_do_not_collide(self):
        fused = build(_matmul_kernel(), "opt")
        manual = build(
            _matmul_kernel(), "opt", options=AkgOptions(tile_sizes=[4, 4])
        )
        assert manual.tile_sizes == [4, 4]
        assert fused.tile_sizes != manual.tile_sizes or (
            fused.program.dump() == manual.program.dump()
        )

    def test_tuner_warm_agrees_with_cold(self):
        from repro.autotune.tuner import tune_tile_sizes

        params = dict(first_round=4, round_size=2, max_rounds=1, seed=3)
        best_cold, hist_cold = tune_tile_sizes(
            _matmul_kernel(), "tune", **params
        )
        diskcache.reset_disk_cache_stats()
        best_warm, hist_warm = tune_tile_sizes(
            _matmul_kernel(), "tune", **params
        )
        assert best_warm == best_cold
        assert len(hist_warm) == len(hist_cold)
        assert [r.cycles for r in hist_warm] == [r.cycles for r in hist_cold]
        # The warm run replayed measurements from the persistent cache.
        assert diskcache.disk_cache_stats()["hits"] >= len(hist_cold)
        with diskcache.disabled():
            best_nocache, hist_nocache = tune_tile_sizes(
                _matmul_kernel(), "tune", **params
            )
        assert best_nocache == best_cold
        assert len(hist_nocache) == len(hist_cold)


class TestMemosStayOutOfPickles:
    """``FrontEnd`` and ``CompileResult`` travel to disk and to tuner
    workers; what the solver tables or a statement memoised on the way
    must not ride along, or an entry's bytes would depend on what the
    process compiled before."""

    @pytest.mark.parametrize("name", ["subgraph2", "softmax_32x64"])
    def test_bytes_equal_cold_warm_and_uncached(self, name):
        from repro.core.compiler import backend_build
        from repro.poly.cache import clear_solver_caches, set_solver_cache_enabled
        from tests.core.test_golden_programs import GOLDEN

        make = GOLDEN[name][0]

        def blobs():
            frontend = run_frontend(make(), name)
            result = backend_build(frontend, AkgOptions())
            for s in frontend.kernel.statements:
                s.domain()  # a memo the pickles must leave out
            return pickle.dumps(frontend), pickle.dumps(result)

        with diskcache.disabled():
            clear_solver_caches()
            cold = blobs()
            warm = blobs()
            set_solver_cache_enabled(False)
            try:
                uncached = blobs()
            finally:
                set_solver_cache_enabled(True)
        assert cold == warm == uncached

    def test_cached_domain_is_dropped_and_rebuilt(self):
        fe = run_frontend(_matmul_kernel(), "pickle")
        stmt = fe.kernel.statements[-1]
        assert stmt.domain() is stmt.domain()
        assert "_domain" not in stmt.__getstate__()
        clone = pickle.loads(pickle.dumps(stmt))
        assert "_domain" not in clone.__dict__
        assert repr(clone.domain()) == repr(stmt.domain())


def _dump_sha(result) -> str:
    return hashlib.sha256(result.program.dump().encode()).hexdigest()


def _counted(monkeypatch, owner, name):
    """Wrap ``owner.name``; returns the list its calls are appended to."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _parent_keys(outputs, name, hw, options):
    """Both cache keys, composed from the public fingerprints."""
    frontend_key = diskcache.digest(
        "frontend",
        diskcache.ir_fingerprint(outputs),
        name,
        diskcache.hw_fingerprint(hw),
    )
    program_key = diskcache.digest(
        "program", frontend_key, diskcache.options_fingerprint(options)
    )
    return frontend_key, program_key


def _probe_counters():
    stats = diskcache.disk_cache_stats()
    return {k: stats[k] for k in ("hits", "misses", "stores")}


class TestWarmBuildIsOneRead:
    """``build`` probes the program entry first, under a key it derives
    from one walk of the graph; the front-end entry serves program misses
    (and the tuner).  Counted, not timed."""

    def _populate(self, name, options=None):
        options = options or AkgOptions()
        cold = build(_matmul_kernel(), name, options=options)
        keys = _parent_keys(_matmul_kernel(), name, HardwareSpec(), options)
        perf.reset()
        return cold, keys

    def test_all_hit_build_reads_and_unpickles_one_entry(self, monkeypatch):
        cold, (frontend_key, _) = self._populate("one_read")
        loads = _counted(monkeypatch, diskcache.pickle, "loads")
        gets = _counted(monkeypatch, diskcache.DiskCache, "get")
        warm = build(_matmul_kernel(), "one_read")
        assert _probe_counters() == {"hits": 1, "misses": 0, "stores": 0}
        assert len(loads) == 1 and len(gets) == 1
        assert _dump_sha(warm) == _dump_sha(cold)
        # The front-end entry is not needed for it.
        os.remove(diskcache.get_cache()._path(frontend_key))
        diskcache.reset_disk_cache_stats()
        again = build(_matmul_kernel(), "one_read")
        assert _probe_counters() == {"hits": 1, "misses": 0, "stores": 0}
        assert _dump_sha(again) == _dump_sha(cold)

    def test_program_miss_is_served_by_the_frontend_entry(self):
        cold, (_, program_key) = self._populate("fe_serves")
        os.remove(diskcache.get_cache()._path(program_key))
        rebuilt = build(_matmul_kernel(), "fe_serves")
        assert _probe_counters() == {"hits": 1, "misses": 1, "stores": 1}
        stages = perf.report()["stages"]
        assert "frontend.lower" not in stages
        assert "backend.codegen" in stages
        assert _dump_sha(rebuilt) == _dump_sha(cold)

    def test_corrupt_program_entry_recovers_then_hits_cleanly(self):
        cold, _ = self._populate("corrupt_probe")
        with faults.inject("diskcache.read:corrupt@backend.cache_probe"):
            recovered = build(_matmul_kernel(), "corrupt_probe")
        stats = diskcache.disk_cache_stats()
        assert stats["corruptions"] == 1 and stats["errors"] == 1
        assert _probe_counters() == {"hits": 1, "misses": 1, "stores": 1}
        kinds = [e["kind"] for e in recovered.resilience.events]
        assert kinds == ["recovered"]
        assert not recovered.resilience.degraded
        assert _dump_sha(recovered) == _dump_sha(cold)
        diskcache.reset_disk_cache_stats()
        clean = build(_matmul_kernel(), "corrupt_probe")
        stats = diskcache.disk_cache_stats()
        assert _probe_counters() == {"hits": 1, "misses": 0, "stores": 0}
        assert stats["corruptions"] == 0 and not clean.resilience.events
        assert _dump_sha(clean) == _dump_sha(cold)

    def test_cold_build_walks_the_graph_once(self, monkeypatch):
        walks = _counted(monkeypatch, diskcache, "graph_fingerprint")
        fresh = build(_matmul_kernel(), "one_walk")
        assert walks == ["graph_fingerprint"]
        assert _probe_counters() == {"hits": 0, "misses": 2, "stores": 2}
        del walks[:]
        with diskcache.disabled():
            uncached = build(_matmul_kernel(), "one_walk")
        assert walks == []
        assert _dump_sha(uncached) == _dump_sha(fresh)

    def test_unfingerprintable_kernel_compiles_without_a_probe(self, monkeypatch):
        hw = HardwareSpec()
        hw.exotic = object()  # nothing renders this stably
        with pytest.raises(diskcache.FingerprintError):
            diskcache.hw_fingerprint(hw)
        gets = _counted(monkeypatch, diskcache.DiskCache, "get")
        puts = _counted(monkeypatch, diskcache.DiskCache, "put")
        result = build(_matmul_kernel(), "no_key", hw=hw)
        assert gets == [] and puts == []
        assert run_frontend(_matmul_kernel(), "no_key", hw=hw).cache_key is None
        assert _dump_sha(result) == _dump_sha(build(_matmul_kernel(), "no_key"))

    def test_keys_are_the_formulas_earlier_commits_wrote_entries_under(self):
        """Both keys by the old composition, entries stored through it:
        the build must find them (a cache directory populated before the
        probe order changed keeps hitting)."""
        import sys

        import repro

        salt = (
            f"repro={repro.__version__};fmt={diskcache.CACHE_FORMAT_VERSION};"
            f"py={sys.version_info.major}.{sys.version_info.minor}"
        )
        assert diskcache.digest("a", "bc") == hashlib.sha256(
            salt.encode() + b"\x00a\x00bc"
        ).hexdigest()

        options = AkgOptions(tile_sizes=[4, 4])
        with diskcache.disabled():
            frontend = run_frontend(_matmul_kernel(), "compat")
            result = build(_matmul_kernel(), "compat", options=options)
        frontend_key, program_key = _parent_keys(
            _matmul_kernel(), "compat", HardwareSpec(), options
        )
        assert diskcache.store(frontend_key, frontend)
        assert diskcache.store(program_key, result)
        diskcache.reset_disk_cache_stats()
        hit = build(_matmul_kernel(), "compat", options=options)
        assert _probe_counters() == {"hits": 1, "misses": 0, "stores": 0}
        assert _dump_sha(hit) == _dump_sha(result)
        loaded = run_frontend(_matmul_kernel(), "compat")
        assert _probe_counters() == {"hits": 2, "misses": 0, "stores": 0}
        assert loaded.cache_key == frontend_key


class TestProcessConstantKeyParts:
    def test_default_spec_is_rendered_once_per_process(self, monkeypatch):
        diskcache.default_hw_fingerprint.cache_clear()
        renders = _counted(monkeypatch, diskcache, "hw_fingerprint")
        first = run_frontend(_relu_kernel(), "default_hw")
        build(_relu_kernel(), "default_hw")
        build(_matmul_kernel(), "default_hw")
        assert renders == ["hw_fingerprint"]
        # ... and it is the fingerprint of the spec a caller would pass.
        explicit = run_frontend(_relu_kernel(), "default_hw", hw=HardwareSpec())
        assert explicit.cache_key == first.cache_key

    def test_a_callers_spec_is_rendered_every_time(self):
        """A passed-in ``HardwareSpec`` is mutable: editing it between
        two builds must change both keys, never replay a stale render."""
        hw = HardwareSpec()
        before = run_frontend(_relu_kernel(), "own_hw", hw=hw).cache_key
        build(_relu_kernel(), "own_hw", hw=hw)
        hw.buffer_capacity["UB"] //= 2
        diskcache.reset_disk_cache_stats()
        build(_relu_kernel(), "own_hw", hw=hw)
        assert _probe_counters() == {"hits": 0, "misses": 2, "stores": 2}
        assert run_frontend(_relu_kernel(), "own_hw", hw=hw).cache_key != before


class TestSymbolicHasOneDefinition:
    """The shape-class counters bucket on the fingerprint walk's flag;
    it must agree with what lowering calls a symbolic kernel."""

    @pytest.mark.parametrize(
        "op,shape,bmax",
        [("relu", [8, 32], 8), ("matmul", [16, 16, 16], 16), ("conv2d", [1, 4, 10, 10], 4)],
    )
    def test_walk_flag_equals_lowered_sym_dims(self, op, shape, bmax):
        from repro.ir.lower import lower
        from repro.service.wire import demo_kernel

        for batch_max in (bmax, None):
            graph = demo_kernel(op, shape, batch_max=batch_max)
            text, symbolic = diskcache.graph_fingerprint(graph)
            assert text == diskcache.ir_fingerprint(graph)
            assert symbolic == bool(lower(graph, "k").sym_dims)
            assert symbolic == (batch_max is not None)


#: A second value for every option the program key covers; an option
#: added to ``AkgOptions`` fails the test below until it has one here.
SECOND_VALUES = {
    "tile_policy": "S_0: 8@UB, 64@UB",
    "tile_sizes": [8, 8],
    "sync_policy": "naive",
    "double_buffer": False,
    "post_tiling_fusion": False,
    "emit_trace": True,
    "tile_shrink": 1,
}


def test_every_backend_option_moves_the_program_key():
    """A field the fingerprint skipped would serve another option's
    cached program; only ``budget`` and ``verify`` never change one."""
    names = set(vars(AkgOptions())) - {"budget", "verify"}
    assert names == set(SECOND_VALUES)
    base = diskcache.options_fingerprint(AkgOptions())
    for name in sorted(names):
        moved = diskcache.options_fingerprint(AkgOptions(**{name: SECOND_VALUES[name]}))
        assert moved != base, name
