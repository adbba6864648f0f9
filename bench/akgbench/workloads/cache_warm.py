"""cache_warm: the persistent compile cache, reads beside writes.

Read path: ``build()`` against a populated cache with the solver memo
cleared — every probe hits, so the compile layers do nothing and
fingerprint + unpickle + sha256 do everything.  Write path: ``store()``
of each row's ``FrontEnd`` + ``CompileResult`` under fresh keys into an
empty directory.  Both in one workload so a gain for gets that costs
puts (or always-on verification of cached artefacts, ROADMAP correctness
(c)) shows.  Rows span cheap to expensive entries.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from typing import Dict

from repro.core import compiler, diskcache, frontend
from repro.core.compiler import AkgOptions
from repro.poly.cache import clear_solver_caches, solver_cache_stats

from akgbench import harness, rows
from akgbench.rows import Checker, healthy

ROWS = {
    "conv2d_16x32": lambda: rows.conv2d(16, 32),
    "subgraph5": rows.subgraph(5),
    "softmax_32x64": lambda: rows.softmax(32, 64),
    "subgraph2": rows.subgraph(2),
    "matmul_256": lambda: rows.matmul(256),
}
#: All-hit builds per read sample: about 0.25 s of CPU for every row (a
#: hit costs 1.2 ms for matmul_256, 9 ms for subgraph2), never under 50.
READ_BATCH = {
    "conv2d_16x32": 100,
    "subgraph5": 50,
    "softmax_32x64": 100,
    "subgraph2": 50,
    "matmul_256": 200,
}
#: Kernels stored per write sample.  Not more: a put gets dearer with the
#: files written since the last sync (matmul_256: 1.3 ms at 30 a sample,
#: 2.5-3.2 ms at 150) and its run-to-run spread grows with it (9% -> 14%).
PUT_BATCH = 30
OPTIONS = dict(emit_trace=True)


def _sha(result) -> str:
    return hashlib.sha256(result.program.dump().encode()).hexdigest()


class State:
    def __init__(self, root: str):
        self.root = root  # the populated cache
        self.cold: Dict[str, object] = {}  # row -> cold-built CompileResult
        self.cold_sha: Dict[str, str] = {}
        self.frontends: Dict[str, object] = {}
        self.loaded: Dict[str, object] = {}  # row -> last cache-hit result


def setup(ctx) -> State:
    state = State(tempfile.mkdtemp(prefix="populated-", dir=ctx.scratch))
    diskcache.set_disk_cache_enabled(True)
    diskcache.set_cache_dir(state.root)
    for name, source in ROWS.items():
        clear_solver_caches()
        state.cold[name] = compiler.build(source(), name, options=AkgOptions(**OPTIONS))
        state.cold_sha[name] = _sha(state.cold[name])
        state.frontends[name] = frontend.run_frontend(source(), name)
    os.sync()
    return state


def teardown(ctx, state: State) -> None:
    diskcache.set_cache_dir(None)
    shutil.rmtree(state.root, ignore_errors=True)


def _hit(name: str):
    clear_solver_caches()
    return compiler.build(ROWS[name](), name, options=AkgOptions(**OPTIONS))


def _put_sample(state: State, name: str, target: str) -> bool:
    """Store PUT_BATCH kernels (front-end + result each) into the empty
    directory ``target``; a private ``DiskCache`` so the populated
    cache's hit/miss counters keep counting the read path only."""
    cache = diskcache.DiskCache(target)
    ok = True
    for i in range(PUT_BATCH):
        key = diskcache.digest("bench-put", name, str(i))
        ok &= cache.put(key + "f", state.frontends[name])
        ok &= cache.put(key + "p", state.cold[name])
    return ok


def one_round(ctx, state: State, sampler: harness.Sampler) -> None:
    for name in ROWS:
        ctx.row(name)

        def read(name=name):
            for _ in range(READ_BATCH[name]):
                result = _hit(name)
            return result

        loaded = sampler.sample("get." + name, read, ops=READ_BATCH[name])
        state.loaded[name] = loaded
        ctx.tally.record(
            _sha(loaded) == state.cold_sha[name],
            f"{name}: cached program differs from the cold build",
        )
        target = os.path.join(ctx.scratch, "put")
        stored = sampler.sample(
            "put." + name, lambda: _put_sample(state, name, target), ops=PUT_BATCH
        )
        shutil.rmtree(target, ignore_errors=True)
        # Unflushed writes make the next ones dearer (a put went from 2.3
        # to 3.3 ms over 45 s of back-to-back samples; with a sync between
        # samples it stays at 2.3), so no backlog crosses a sample.
        os.sync()
        ctx.tally.record(bool(stored), f"{name}: DiskCache.put refused an entry")
    ctx.row(None)


def measure(ctx, state: State) -> Dict[str, float]:
    ctx.phase("count")
    kcalls = {}
    for name in ROWS:
        _result, calls = harness.count_calls(lambda: _hit(name))
        kcalls[name] = calls / 1000.0

    ctx.phase("timed")
    before = diskcache.disk_cache_stats()
    sampler = ctx.sampler("timed")
    harness.rounds_until(ctx.budget(), lambda: one_round(ctx, state, sampler))
    after = diskcache.disk_cache_stats()
    ctx.tally.record(
        after["misses"] == before["misses"],
        f"read path missed the cache {after['misses'] - before['misses']} times",
    )
    cycles = {name: int(state.loaded[name].cycles()) for name in ROWS}
    for name in ROWS:
        healthy(ctx.tally, name, state.loaded[name])
        ctx.rows[name] = {
            "get_cpu_ms": sampler.median("get." + name),
            "put_cpu_ms": sampler.median("put." + name),
            "get_raw_cpu_ms": sampler.median("get." + name, "raw_ms"),
            "samples": len(sampler.rows["get." + name]),
            "kcalls": kcalls[name],
            "cycles": cycles[name],
        }
    ctx.extras["calib_cv"] = sampler.calib_cv()
    return {
        "op_cpu_ms": sampler.geomean_of_medians(["get." + n for n in ROWS]),
        "aux_cpu_ms": sampler.geomean_of_medians(["put." + n for n in ROWS]),
        "kcalls": harness.geomean(list(kcalls.values())),
        "sim_cycles_geomean": harness.geomean(list(cycles.values())),
        "code_instrs": sum(len(state.loaded[n].program.instructions) for n in ROWS),
    }


def check(ctx, state: State) -> None:
    """The *unpickled* programs still execute to the reference answer."""
    checker = Checker(ctx.tally, ctx.seed)
    for name in ("conv2d_16x32", "subgraph5", "matmul_256"):
        checker.replay_equals_kernel(name, state.loaded[name])
    checker.vectorized_equals_scalar("conv2d_16x32", rows.conv2d(4, 8))
    checker.vectorized_equals_scalar("subgraph5", rows.stencil_chain_twin())
    checker.vectorized_equals_scalar("matmul_256", rows.matmul(12))


def layers(ctx, state: State) -> Dict[str, float]:
    tracer = ctx.tracer
    out: Dict[str, float] = {}
    ctx.phase("timed")
    diskcache.reset_disk_cache_stats()
    traced = ctx.sampler("traced")
    harness.rounds_until(ctx.budget(0.4), lambda: one_round(ctx, state, traced))
    stats = diskcache.disk_cache_stats()
    out["diskcache.hit_ratio"] = stats["hits"] / max(stats["hits"] + stats["misses"], 1)
    out["bench.compile_spans_in_timed"] = sum(
        1 for s in tracer.spans if s.phase == "timed" and s.name == "backend.backend_build"
    )
    tracer.uninstall()
    ctx.phase("untraced")
    plain = ctx.sampler("untraced")
    harness.rounds_until(ctx.budget(0.3), lambda: one_round(ctx, state, plain))
    keys = list(plain.rows)
    out["bench.trace_overhead_ratio"] = sum(traced.median(k) for k in keys) / sum(
        plain.median(k) for k in keys
    )
    out["bench.raw_cpu_ms"] = sum(plain.median(k, "raw_ms") for k in keys)
    out["bench.wall_ms"] = sum(plain.median(k, "wall_ms") for k in keys)
    out["bench.calib_cv"] = plain.calib_cv()

    # An all-hit build must not reach the solvers at all.
    _hit("conv2d_16x32")
    solver = solver_cache_stats()
    for cache in ("ilp", "fm"):
        out[f"poly.{cache}_queries"] = solver[cache]["hits"] + solver[cache]["misses"]
        out[f"poly.{cache}_solves"] = solver[cache]["misses"]

    ctx.phase("probe")
    probe = ctx.sampler("probe")
    entries = [
        os.path.join(folder, f)
        for folder, _dirs, files in os.walk(state.root)
        for f in files
        if f.endswith(".pkl")
    ]
    entry_keys = [os.path.basename(p)[: -len(".pkl")] for p in entries]
    out["diskcache.entry_kb"] = sum(os.path.getsize(p) for p in entries) / 1024.0 / len(entries)
    reps = 20
    probe.sample(
        "load",
        lambda: [diskcache.load(k) for _ in range(reps) for k in entry_keys],
        ops=reps * len(entry_keys),
    )
    out["diskcache.load_us"] = 1000.0 * probe.median("load")
    graphs = [source() for source in ROWS.values() for _ in range(reps)]
    probe.sample(
        "fingerprint",
        lambda: [diskcache.ir_fingerprint(g) for g in graphs],
        ops=len(graphs),
    )
    out["diskcache.fingerprint_us"] = 1000.0 * probe.median("fingerprint")
    # One kernel is two stores (front-end + result).
    out["diskcache.store_us"] = 1000.0 * harness.geomean(
        [plain.median("put." + n) for n in ROWS]
    ) / 2.0

    # What an enabled-but-empty cache adds to a cold compile.
    cold_rows = ("conv2d_16x32", "softmax_32x64", "matmul_256")
    for i, name in enumerate(cold_rows):
        empty = os.path.join(ctx.scratch, f"empty-{i}")
        diskcache.set_cache_dir(empty)
        probe.sample("cold_on", lambda: _hit(name))
        diskcache.set_cache_dir(state.root)
        shutil.rmtree(empty, ignore_errors=True)
        with diskcache.disabled():
            probe.sample("cold_off", lambda: _hit(name))
    out["diskcache.cold_overhead_ratio"] = sum(
        s.cal_ms for s in probe.rows["cold_on"]
    ) / sum(s.cal_ms for s in probe.rows["cold_off"])
    for name in ROWS:
        ctx.rows[name] = {
            "get_cpu_ms": plain.median("get." + name),
            "traced_get_cpu_ms": traced.median("get." + name),
            "put_cpu_ms": plain.median("put." + name),
        }
    ctx.extras["span_totals"] = tracer.totals("timed")
    return out
