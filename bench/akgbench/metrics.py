"""Metric names, units and bounds: the one table ``BENCHMARK.json``,
the runner and the tests agree on.

The driver contract wants every end-to-end metric from every workload,
so the gated names are generic and each workload states which of its
own quantities fills each (``ALIASES``).  ``bound`` is the share of the
parent's median by which a metric may worsen; exact metrics (they repeat
bit-for-bit) carry 1e-6 — "any worsening" without relying on how a
comparison against 0 is written.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("compile_sched", "cold compiles of scheduler-bound inputs: ILP scheduling and dependence analysis are 75-95% of the CPU, the backend does little"),
    ("compile_tile", "cold compiles and tuner sweeps of backend-bound inputs: tile search and codegen dominate, the scheduler is under 10%"),
    ("cache_warm", "disk cache reads beside writes: compile layers idle, fingerprint, pickle and sha256 do everything"),
    ("exec_replay", "execution only, compiled in set-up: kernel-level, compiled-program and network-plan replay; compiler layers idle"),
    ("serve_mix", "the akgd daemon over TCP with 2 closed-loop clients: a cold phase (miss, coalesce) and a warm phase (memo hits)"),
)

EXACT = 1e-6

#: name, unit, better, bound
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("op_cpu_ms", "ms", "lower", 0.15),
    ("aux_cpu_ms", "ms", "lower", 0.20),
    ("kcalls", "kcalls", "lower", 0.005),
    ("sim_cycles_geomean", "cycles", "lower", EXACT),
    ("code_instrs", "count", "lower", EXACT),
)

#: workload -> generic metric -> the workload's own name for it (the
#: names ISSUE 11 defined; what a later issue claims against is the pair
#: "<own name> = <generic> on <workload>").
ALIASES: Dict[str, Dict[str, str]] = {
    "compile_sched": {
        "op_cpu_ms": "compile_cpu_ms",
        "aux_cpu_ms": "net_compile_cpu_ms",
        "kcalls": "compile_kcalls",
    },
    "compile_tile": {
        "op_cpu_ms": "compile_cpu_ms",
        "aux_cpu_ms": "tune_cpu_ms",
        "kcalls": "compile_kcalls",
    },
    "cache_warm": {
        "op_cpu_ms": "warm_compile_cpu_ms",
        "aux_cpu_ms": "cache_put_cpu_ms",
        "kcalls": "compile_kcalls",
    },
    "exec_replay": {
        "op_cpu_ms": "exec_cpu_ms",
        "aux_cpu_ms": "first_exec_cpu_ms",
        "kcalls": "exec_kcalls",
    },
    "serve_mix": {
        "op_cpu_ms": "warm_req_cpu_ms",
        "aux_cpu_ms": "cold_req_cpu_ms",
        "kcalls": "warm_req_kcalls",
    },
}

#: Quantities ISSUE 11 listed as end-to-end that only one workload has;
#: printed with the run, not gated (see README "Deviations").
UNGATED_UNITS: Dict[str, str] = {
    "fail_ratio": "ratio",
    "tuned_cycles_geomean": "cycles",
    "warm_req_per_cpu_s": "1/s",
    "cold_req_per_cpu_s": "1/s",
    "warm_p50_ms": "ms",
}

#: name, unit, better.  Every workload reports every one; a layer that
#: is idle in a workload reports 0 there, which is the prediction.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("ir.lower_cpu_ms", "ms", "lower"),
    ("ir.stmts", "count", "lower"),
    ("sched.deps_cpu_ms", "ms", "lower"),
    ("sched.deps_count", "count", "lower"),
    ("sched.cluster_cpu_ms", "ms", "lower"),
    ("sched.schedule_cpu_ms", "ms", "lower"),
    ("sched.tree_nodes", "count", "lower"),
    ("sched.share_of_compile", "ratio", "lower"),
    ("poly.ilp_queries", "count", "lower"),
    ("poly.ilp_solves", "count", "lower"),
    ("poly.ilp_hit_ratio", "ratio", "higher"),
    ("poly.fm_queries", "count", "lower"),
    ("poly.fm_solves", "count", "lower"),
    ("poly.fm_hit_ratio", "ratio", "higher"),
    ("poly.solve_cpu_ms", "ms", "lower"),
    ("backend.build_cpu_ms", "ms", "lower"),
    ("tiling.select_cpu_ms", "ms", "lower"),
    ("tiling.fit_cpu_ms", "ms", "lower"),
    ("tiling.fit_calls", "count", "lower"),
    ("codegen.emit_cpu_ms", "ms", "lower"),
    ("fusion.groups", "count", "lower"),
    ("codegen.instrs", "count", "lower"),
    ("codegen.flat_instrs", "count", "lower"),
    ("codegen.syncs", "count", "lower"),
    ("hw.sim_us_per_instr", "us", "lower"),
    ("hw.cycles", "cycles", "lower"),
    ("hw.cube_util", "ratio", "higher"),
    ("hw.vector_util", "ratio", "higher"),
    ("hw.mte2_util", "ratio", "higher"),
    ("hw.dma_bytes", "B", "lower"),
    ("hw.sync_count", "count", "lower"),
    ("autotune.candidates", "count", "lower"),
    ("autotune.cpu_ms_per_candidate", "ms", "lower"),
    ("autotune.best_over_auto_cycles", "ratio", "lower"),
    ("autotune.tuned_cycles_geomean", "cycles", "lower"),
    ("graph.fuse_cpu_ms", "ms", "lower"),
    ("graph.unique_subgraphs", "count", "lower"),
    ("graph.dedup_reuses", "count", "higher"),
    ("graph.arena_peak_bytes", "B", "lower"),
    ("graph.arena_savings_ratio", "ratio", "higher"),
    ("graph.plan_replay_cpu_ms", "ms", "lower"),
    ("diskcache.fingerprint_us", "us", "lower"),
    ("diskcache.load_us", "us", "lower"),
    ("diskcache.store_us", "us", "lower"),
    ("diskcache.entry_kb", "kB", "lower"),
    ("diskcache.hit_ratio", "ratio", "higher"),
    ("diskcache.cold_overhead_ratio", "ratio", "lower"),
    ("runtime.plan_cpu_ms", "ms", "lower"),
    ("runtime.melems_per_cpu_s", "Melem/s", "higher"),
    ("runtime.vectorized_stmts", "count", "higher"),
    ("runtime.scalar_fallbacks", "count", "lower"),
    ("replay.prepare_cpu_ms", "ms", "lower"),
    ("replay.over_kernel_ratio", "ratio", "lower"),
    ("service.inproc_hit_us", "us", "lower"),
    ("wire.parse_us", "us", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("service.tcp_overhead_us", "us", "lower"),
    ("service.memo_hits", "count", "higher"),
    ("service.coalesced", "count", "higher"),
    ("service.shed", "count", "lower"),
    ("service.warm_p50_ms", "ms", "lower"),
    ("service.warm_p99_ms", "ms", "lower"),
    ("service.cold_p50_ms", "ms", "lower"),
    ("verify.cpu_ms", "ms", "lower"),
    ("verify.over_compile_ratio", "ratio", "lower"),
    ("verify.mutants_killed_ratio", "ratio", "higher"),
    ("baseline.tvm_over_akg_cycles", "ratio", "higher"),
    ("baseline.expert_over_akg_cycles", "ratio", "higher"),
    ("bench.compile_spans_in_timed", "count", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.calib_cv", "ratio", "lower"),
    ("bench.raw_cpu_ms", "ms", "lower"),
    ("bench.wall_ms", "ms", "lower"),
)

END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _b in PER_LAYER}


def benchmark_json(command: List[str], paths: List[str], run_seconds: int) -> dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
