"""exec_replay: execution only; everything is compiled in set-up.

Three levels of the same engine: kernel-level ``evaluate_kernel`` (rows
``k_*``), compiled-program ``ProgramReplay.run`` (``p_*``) and
plan-level ``NetworkPlan.replay`` at batch 8 (``n_*``).  Only
``runtime`` / ``codegen.program_exec`` / ``graph.plan`` work here
(ROADMAP hot layer (c): sequential per-step-cast reductions make the
matmul rows several times the conv and element-wise rows), so a
compiler optimisation must show no change, and cost moved between
``ProgramReplay`` preparation and ``run`` shows in ``first_exec_cpu_ms``
and ``setup_s``.

``n_alexnet_tiny`` is not a row: its fp16 max-pool initialises the
reduction with a value that overflows the fp16 cast under a
``RuntimeWarning`` on every replay, whatever the inputs (README,
"Known defects"); a workload may not contain an operation that fails.
"""

from __future__ import annotations

import math
import time
import warnings
from typing import Dict

import numpy as np

from repro.codegen import program_exec
from repro.core import compiler, diskcache
from repro.core.compiler import AkgOptions
from repro.graph import network, pipeline
from repro.ir.lower import lower
from repro.runtime import reference, vectorized

from akgbench import harness, rows
from akgbench.rows import Checker, kernel_inputs, plan_feeds
from akgbench.trace import COMPILE_SPANS

KERNEL_ROWS = {
    "k_matmul_256_fp32": (lambda: rows.matmul(256, "fp32"), lambda: rows.matmul(12, "fp32")),
    "k_conv_16x32_fp16": (lambda: rows.conv2d(16, 32), lambda: rows.conv2d(4, 8)),
    "k_fused_512_fp16": (lambda: rows.fused_elementwise(512), lambda: rows.fused_elementwise(8)),
    "k_softmax_256x512_fp32": (
        lambda: rows.softmax(256, 512, "fp32"),
        lambda: rows.softmax(8, 16, "fp32"),
    ),
}
PROGRAM_ROWS = {
    "p_matmul_256_fp16": lambda: rows.matmul(256),
    "p_conv_16x32": lambda: rows.conv2d(16, 32),
    "p_fused_128": lambda: rows.fused_elementwise(128),
}
PLAN_ROWS = {"n_mobilenetv2_tiny": "mobilenetv2_tiny"}
PLAN_BATCH = 8
#: Every sample repeats its row until it has used about this much CPU.
SAMPLE_CPU_S = 0.2


class State:
    def __init__(self):
        self.runs: Dict[str, object] = {}  # row -> callable doing one execution
        self.repeat: Dict[str, int] = {}  # row -> executions per sample
        self.fresh: Dict[str, object] = {}  # p_ row -> prepare + first run
        self.compiled: Dict[str, object] = {}  # p_ row -> CompileResult
        self.plans: Dict[str, object] = {}
        self.kernels: Dict[str, object] = {}
        self.first = harness.Sampler()  # first (planning) execution per row


def setup(ctx) -> State:
    diskcache.set_disk_cache_enabled(False)
    state = State()
    for name, (source, _twin) in KERNEL_ROWS.items():
        kernel = state.kernels[name] = lower(source(), name)
        inputs = kernel_inputs(kernel, ctx.seed)
        # Through the module, so the traced run sees the call.
        state.runs[name] = lambda k=kernel, i=inputs: reference.evaluate_kernel(
            k, i, engine="vectorized"
        )
    for name, source in PROGRAM_ROWS.items():
        result = state.compiled[name] = compiler.build(
            source(), name, options=AkgOptions(emit_trace=True)
        )
        inputs = kernel_inputs(result.kernel, ctx.seed)
        replayer = program_exec.ProgramReplay(result.program, "vectorized")
        state.runs[name] = lambda r=replayer, i=inputs: r.run(i)
        state.fresh[name] = lambda p=result.program, i=inputs: program_exec.ProgramReplay(
            p, "vectorized"
        ).run(i)
    for name, model in PLAN_ROWS.items():
        plan = state.plans[name] = pipeline.compile_network(network(model)).plan
        feeds = plan_feeds(plan, ctx.seed, PLAN_BATCH)
        state.runs[name] = lambda p=plan, f=feeds: p.replay(f)
    for name, run in state.runs.items():
        # The first execution builds vectorisation plans, replay
        # schedules and arena buffers; the second is steady state.
        state.first.sample(name, run)
        state.repeat[name] = _repeats(run)
    for name, fresh in state.fresh.items():
        state.repeat["first." + name] = _repeats(fresh)
    return state


def _repeats(run) -> int:
    """How many calls of ``run`` make a sample of about SAMPLE_CPU_S."""
    start = time.process_time()
    run()
    return max(1, math.ceil(SAMPLE_CPU_S / max(time.process_time() - start, 1e-4)))


def teardown(ctx, state: State) -> None:
    diskcache.set_disk_cache_enabled(True)


def _finite(outputs) -> bool:
    if isinstance(outputs, list):  # plan replay: one dict per inference
        return all(_finite(o) for o in outputs)
    return all(np.isfinite(v).all() for v in outputs.values())


def one_round(ctx, state: State, sampler: harness.Sampler) -> None:
    for name, run in state.runs.items():
        ctx.row(name)
        n = state.repeat[name]

        def repeated(run=run, n=n):
            for _ in range(n):
                out = run()
            return out

        # One plan replay is PLAN_BATCH inferences.
        per_call = PLAN_BATCH if name in PLAN_ROWS else 1
        out = sampler.sample(name, repeated, ops=n * per_call)
        ctx.tally.record(_finite(out), f"{name}: non-finite output")
    for name, fresh in state.fresh.items():
        ctx.row("first." + name)
        n = state.repeat["first." + name]
        sampler.sample("first." + name, lambda: [fresh() for _ in range(n)], ops=n)
    ctx.row(None)


def _timed(ctx, state: State, sampler: harness.Sampler, share: float) -> None:
    """Rounds under a warning trap: a numeric RuntimeWarning anywhere in
    the timed region is a failed operation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        harness.rounds_until(
            ctx.budget(share), lambda: one_round(ctx, state, sampler)
        )
    numeric = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    ctx.tally.record(
        not numeric,
        f"{len(numeric)} RuntimeWarning(s) while executing, first: "
        f"{numeric[0].message if numeric else ''}",
    )


def measure(ctx, state: State) -> Dict[str, float]:
    ctx.phase("count")
    kcalls = {}
    for name, run in state.runs.items():
        _out, calls = harness.count_calls(run)
        kcalls[name] = calls / 1000.0

    ctx.phase("timed")
    sampler = ctx.sampler("timed")
    _timed(ctx, state, sampler, 1.0)
    for name in state.runs:
        ctx.rows[name] = {
            "cpu_ms": sampler.median(name),
            "raw_cpu_ms": sampler.median(name, "raw_ms"),
            "first_cpu_ms": state.first.median(name),
            "per_sample": state.repeat[name],
            "samples": len(sampler.rows[name]),
            "kcalls": kcalls[name],
        }
    ctx.extras["calib_cv"] = sampler.calib_cv()
    cycles = [int(r.cycles()) for r in state.compiled.values()]
    cycles += [int(p.total_cycles()) for p in state.plans.values()]
    programs = list(state.compiled.values()) + [
        r for p in state.plans.values() for r in p.programs.values()
    ]
    return {
        "op_cpu_ms": sampler.geomean_of_medians(list(state.runs)),
        "aux_cpu_ms": sampler.geomean_of_medians(["first." + n for n in state.fresh]),
        "kcalls": harness.geomean(list(kcalls.values())),
        "sim_cycles_geomean": harness.geomean(cycles),
        "code_instrs": sum(len(r.program.instructions) for r in programs),
    }


def check(ctx, state: State) -> None:
    checker = Checker(ctx.tally, ctx.seed)
    for name, result in state.compiled.items():
        checker.replay_equals_kernel(name, result)
    for name, (_source, twin) in KERNEL_ROWS.items():
        checker.vectorized_equals_scalar(name, twin())
    for name, plan in state.plans.items():
        checker.plan_equals_oracle(name, plan)


def layers(ctx, state: State) -> Dict[str, float]:
    tracer = ctx.tracer
    out: Dict[str, float] = {}
    ctx.phase("timed")
    traced = ctx.sampler("traced")
    _timed(ctx, state, traced, 0.4)
    out["bench.compile_spans_in_timed"] = sum(
        1 for s in tracer.spans if s.phase == "timed" and s.name in COMPILE_SPANS
    )
    ctx.tally.record(
        out["bench.compile_spans_in_timed"] == 0,
        "a compile span appeared inside the execution-only timed region",
    )
    tracer.uninstall()
    ctx.phase("untraced")
    vectorized.reset_exec_stats()
    plain = ctx.sampler("untraced")
    _timed(ctx, state, plain, 0.4)
    stats = vectorized.exec_stats()
    keys = list(state.runs)
    out["bench.trace_overhead_ratio"] = sum(traced.median(k) for k in keys) / sum(
        plain.median(k) for k in keys
    )
    out["bench.raw_cpu_ms"] = sum(plain.median(k, "raw_ms") for k in keys)
    out["bench.wall_ms"] = sum(plain.median(k, "wall_ms") for k in keys)
    out["bench.calib_cv"] = plain.calib_cv()

    out["runtime.plan_cpu_ms"] = sum(
        max(0.0, state.first.median(k) - plain.median(k)) for k in KERNEL_ROWS
    )
    elements = sum(
        math.prod(t.shape) for k in KERNEL_ROWS for t in state.kernels[k].outputs
    )
    out["runtime.melems_per_cpu_s"] = (
        elements / 1e6 / (sum(plain.median(k) for k in KERNEL_ROWS) / 1000.0)
    )
    out["runtime.vectorized_stmts"] = stats["vectorized"]
    out["runtime.scalar_fallbacks"] = stats["scalar_fallback"]
    ctx.tally.record(
        stats["scalar_fallback"] == 0,
        f"{stats['scalar_fallback']} statements fell back to the scalar engine",
    )
    out["replay.prepare_cpu_ms"] = sum(plain.median("first." + k) for k in state.fresh)
    out["replay.over_kernel_ratio"] = plain.median("p_conv_16x32") / plain.median(
        "k_conv_16x32_fp16"
    )
    plan_name, plan = next(iter(state.plans.items()))
    out["graph.plan_replay_cpu_ms"] = plain.median(plan_name) * PLAN_BATCH
    out["graph.unique_subgraphs"] = plan.unique_subgraphs()
    out["graph.dedup_reuses"] = len(plan.steps) - plan.unique_subgraphs()
    out["graph.arena_peak_bytes"] = plan.arena.planned_peak_bytes
    out["graph.arena_savings_ratio"] = plan.arena.savings_ratio
    programs = list(state.compiled.values()) + list(plan.programs.values())
    out.update(rows.sim_summary(programs))
    for name in keys:
        ctx.rows[name] = {
            "cpu_ms": plain.median(name),
            "traced_cpu_ms": traced.median(name),
            "first_cpu_ms": state.first.median(name),
        }
    ctx.extras["span_totals"] = tracer.totals("timed")
    return out
