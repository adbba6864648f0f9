"""Shared driver of the two cold-compile workloads.

A sample is one *cold* compile: solver memo tables cleared, disk cache
off, a fresh tensor graph.  ``compile_sched`` and ``compile_tile``
differ only in their row tables — which layer owns the CPU.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.autotune import tuner
from repro.cce import cce_expert_build
from repro.core import compiler, diskcache
from repro.core.compiler import AkgOptions
from repro.core.errors import VerificationError
from repro.graph import network, pipeline
from repro.hw.isa import Barrier, Loop, SetFlag, WaitFlag
from repro.poly.cache import clear_solver_caches, solver_cache_stats
from repro.tools import perf
from repro.tvmbaseline.compiler import tvm_build
from repro.verify import verify_network_plan, verify_result
from repro.verify.mutate import seeded_mutations

from akgbench import harness
from akgbench.rows import Checker, healthy, sim_summary
from akgbench.trace import COMPILE_SPANS

#: The serial sweep of ISSUE 11: one front-end, 11-13 backend builds +
#: simulations.  The tuner seed is fixed, not taken from ``--seed``: the
#: candidates it draws decide both the sweep's cost and its best cycles,
#: and those must compare across runs with different seeds.
TUNE_PARAMS = dict(seed=0, first_round=8, round_size=4, max_rounds=2, parallel=False)


class Row:
    """One input program: ``kind`` is build | network | tune."""

    def __init__(
        self,
        name: str,
        kind: str,
        source,
        batch: int = 1,
        twin: Optional[Callable[[], object]] = None,
        replayable: bool = False,
        single_op: bool = False,
        dear: bool = False,
    ):
        self.name = name
        self.kind = kind
        self.source = source  # tensor-graph builder, or a network name
        self.batch = batch  # cold compiles per sample (cheap rows)
        self.twin = twin  # small same-op-kind graph for the scalar oracle
        self.replayable = replayable  # timed shape small enough to execute
        self.single_op = single_op  # has TVM / expert-CCE baselines
        # End-to-end run: sampled every other round and not call-counted
        # (a counted compile costs 2.7 plain ones).
        self.dear = dear


class Compiled:
    """What one cold compile of a row produced, reduced to the exact
    quantities the metrics need."""

    def __init__(self, row: Row, product):
        self.row = row
        self.product = product
        if row.kind == "build":
            self.results = [product]
            self.cycles = int(product.cycles())
        elif row.kind == "network":
            self.results = list(product.plan.programs.values())
            self.cycles = int(product.plan.total_cycles())
        else:
            best, records = product
            self.results = []
            self.records = records
            self.cycles = int(min(r.cycles for r in records if r.cycles is not None))
        self.instrs = sum(len(r.program.instructions) for r in self.results)
        self.solver = solver_cache_stats()


class State:
    def __init__(self, rows: Sequence[Row]):
        self.rows = list(rows)
        self.compiled: Dict[str, Compiled] = {}
        self.rounds = 0


def setup(ctx, rows: Sequence[Row]) -> State:
    diskcache.set_disk_cache_enabled(False)
    # Building every graph once is all the set-up these workloads have.
    for row in rows:
        if row.kind == "network":
            network(row.source).builder()
        else:
            row.source()
    return State(rows)


def compile_once(row: Row, cold: bool = True):
    if cold:
        clear_solver_caches()
    if row.kind == "build":
        return compiler.build(
            row.source(), row.name, options=AkgOptions(emit_trace=True)
        )
    if row.kind == "network":
        return pipeline.compile_network(network(row.source))
    return tuner.tune_tile_sizes(row.source(), row.name, **TUNE_PARAMS)


def one_round(ctx, state: State, sampler: harness.Sampler, thin: bool = False) -> None:
    """One cold compile (``batch`` of them) of every row; with ``thin``,
    a ``dear`` row sits out every other round, so that a row costing as
    much as the others together does not halve their sample count."""
    state.rounds += 1
    for row in state.rows:
        if thin and row.dear and state.rounds % 2 == 0:
            continue
        ctx.row(row.name)

        def batch(row=row):
            product = None
            for _ in range(row.batch):
                product = compile_once(row)
            return product

        product = sampler.sample(row.name, batch, ops=row.batch)
        state.compiled[row.name] = Compiled(row, product)
    ctx.row(None)


def measure(ctx, state: State, aux_rows: Sequence[str]) -> Dict[str, float]:
    # Counted pass first, rows in table order: the process state every
    # count starts from is then the same in every run.
    kcalls: Dict[str, float] = {}
    ctx.phase("count")
    for row in state.rows:
        if row.dear:
            continue
        product, calls = harness.count_calls(lambda: compile_once(row))
        kcalls[row.name] = calls / 1000.0
        state.compiled[row.name] = Compiled(row, product)

    ctx.phase("timed")
    sampler = ctx.sampler("timed")
    state.rounds = 0
    harness.rounds_until(
        ctx.budget(), lambda: one_round(ctx, state, sampler, thin=True)
    )
    for row in state.rows:
        compiled = state.compiled[row.name]
        ctx.tally.record(True)  # a compile that raised never gets here
        for result in compiled.results:
            healthy(ctx.tally, row.name, result)
        ctx.rows[row.name] = {
            "cpu_ms": sampler.median(row.name),
            "raw_cpu_ms": sampler.median(row.name, "raw_ms"),
            "wall_ms": sampler.median(row.name, "wall_ms"),
            "samples": len(sampler.rows[row.name]),
            "cycles": compiled.cycles,
            "instrs": compiled.instrs,
        }
        if not row.dear:
            ctx.rows[row.name]["kcalls"] = kcalls[row.name]
    names = [r.name for r in state.rows]
    main_rows = [n for n in names if n not in aux_rows]
    ctx.extras["calib_cv"] = sampler.calib_cv()
    tuned = [state.compiled[r.name].cycles for r in state.rows if r.kind == "tune"]
    if tuned:
        ctx.extras["tuned_cycles_geomean"] = harness.geomean(tuned)
    return {
        "op_cpu_ms": sampler.geomean_of_medians(main_rows),
        "aux_cpu_ms": sampler.geomean_of_medians(list(aux_rows)),
        "kcalls": harness.geomean(list(kcalls.values())),
        "sim_cycles_geomean": harness.geomean(
            [state.compiled[n].cycles for n in names]
        ),
        "code_instrs": sum(state.compiled[n].instrs for n in names),
    }


def check(ctx, state: State) -> None:
    checker = Checker(ctx.tally, ctx.seed)
    for row in state.rows:
        compiled = state.compiled[row.name]
        if row.replayable:
            checker.replay_equals_kernel(row.name, compiled.product)
        if row.twin is not None:
            checker.vectorized_equals_scalar(row.name, row.twin())
        if row.kind == "network":
            checker.plan_equals_oracle(row.name, compiled.product.plan)


def teardown(ctx, state: State) -> None:
    diskcache.set_disk_cache_enabled(True)


# -- the traced run ---------------------------------------------------------------


def _round_total(sampler: harness.Sampler, field: str) -> float:
    """CPU ms of one pass over the rows: the sum of their medians."""
    return sum(sampler.median(row, field) for row in sampler.rows)


def layers(ctx, state: State) -> Dict[str, float]:
    # Traced rounds (spans + perf stages), then the same rounds with the
    # patches removed: the ratio is what tracing costs.
    ctx.phase("timed")
    perf.reset()
    traced = ctx.sampler("traced")
    n_traced = harness.rounds_until(
        ctx.budget(0.5), lambda: one_round(ctx, state, traced)
    )
    stages = perf.report()["stages"]
    ctx.tracer.uninstall()
    ctx.phase("untraced")
    plain = ctx.sampler("untraced")
    harness.rounds_until(ctx.budget(0.4), lambda: one_round(ctx, state, plain))

    out = {
        "bench.trace_overhead_ratio": _round_total(traced, "cal_ms")
        / _round_total(plain, "cal_ms"),
        "bench.raw_cpu_ms": _round_total(plain, "raw_ms"),
        "bench.wall_ms": _round_total(plain, "wall_ms"),
        "bench.calib_cv": plain.calib_cv(),
    }
    out.update(_span_metrics(ctx, state, traced, n_traced, stages))
    out.update(_exact_counts(state))
    ctx.phase("probe")
    out.update(_probes(ctx, state, plain))
    for row in state.rows:
        ctx.rows[row.name] = {
            "cpu_ms": plain.median(row.name),
            "traced_cpu_ms": traced.median(row.name),
            "cycles": state.compiled[row.name].cycles,
        }
    return out


def _span_metrics(ctx, state, traced, n_traced, stages) -> Dict[str, float]:
    """Per-round CPU ms inside each layer's spans and perf stages."""
    # Span CPU is raw thread time; scale it like the samples around it.
    raw_total = sum(
        s.raw_ms * row.batch for row in state.rows for s in traced.rows[row.name]
    )
    cal_total = sum(
        s.cal_ms * row.batch for row in state.rows for s in traced.rows[row.name]
    )
    scale = 1000.0 * (cal_total / raw_total) / n_traced
    totals = ctx.extras["span_totals"] = ctx.tracer.totals("timed")

    def span_ms(name: str) -> float:
        return scale * totals.get(name, {}).get("cpu_s", 0.0)

    def stage_ms(name: str) -> float:
        # perf stages are wall seconds of a single-threaded compile.
        return 1000.0 * stages.get(name, {}).get("seconds", 0.0) / n_traced

    out = {
        "ir.lower_cpu_ms": span_ms("ir.lower"),
        "sched.deps_cpu_ms": span_ms("sched.compute_dependences"),
        "sched.cluster_cpu_ms": span_ms("sched.conservative_clustering"),
        "sched.schedule_cpu_ms": span_ms("sched.schedule_kernel"),
        "backend.build_cpu_ms": span_ms("backend.backend_build"),
        "graph.fuse_cpu_ms": span_ms("graph.fuse_graph"),
        "tiling.select_cpu_ms": stage_ms("backend.tile_select"),
        "tiling.fit_cpu_ms": stage_ms("backend.tile_fit"),
        "tiling.fit_calls": stages.get("backend.tile_fit", {}).get("calls", 0) / n_traced,
        "codegen.emit_cpu_ms": stage_ms("backend.codegen"),
        # Here the compiler *is* the timed region (exec_replay and
        # serve_mix's warm phase must report 0).
        "bench.compile_spans_in_timed": sum(
            row["calls"] for name, row in totals.items() if name in COMPILE_SPANS
        )
        / n_traced,
    }
    compile_ms = scale * sum(
        s.cpu for s in ctx.tracer.spans if s.phase == "timed" and s.parent is None
    )
    out["sched.share_of_compile"] = (
        out["sched.deps_cpu_ms"] + out["sched.cluster_cpu_ms"] + out["sched.schedule_cpu_ms"]
    ) / compile_ms
    return out


def _exact_counts(state: State) -> Dict[str, float]:
    """Counts that repeat bit-for-bit, from the last cold compile of
    every row."""
    compiled = [state.compiled[r.name] for r in state.rows]
    results = [res for c in compiled for res in c.results]
    out: Dict[str, float] = {}
    for cache in ("ilp", "fm"):
        hits = sum(c.solver[cache]["hits"] for c in compiled)
        misses = sum(c.solver[cache]["misses"] for c in compiled)
        out[f"poly.{cache}_queries"] = hits + misses
        out[f"poly.{cache}_solves"] = misses
        out[f"poly.{cache}_hit_ratio"] = hits / max(hits + misses, 1)
    out["ir.stmts"] = sum(len(r.kernel.statements) for r in results)
    out["sched.deps_count"] = sum(len(r.deps) for r in results)
    out["sched.tree_nodes"] = sum(sum(1 for _ in r.tree.walk()) for r in results)
    out["fusion.groups"] = sum(len(r.groups) for r in results)
    out["codegen.instrs"] = sum(len(r.program.instructions) for r in results)
    out["codegen.flat_instrs"] = sum(r.program.flat_count() for r in results)
    out["codegen.syncs"] = sum(_static_syncs(r.program.instructions) for r in results)
    out.update(sim_summary(results))
    for c in compiled:
        if c.row.kind == "network":
            plan = c.product.plan
            out["graph.unique_subgraphs"] = c.product.unique_compiles
            out["graph.dedup_reuses"] = c.product.dedup_reuses
            out["graph.arena_peak_bytes"] = plan.arena.planned_peak_bytes
            out["graph.arena_savings_ratio"] = plan.arena.savings_ratio
    tuned = [c for c in compiled if c.row.kind == "tune"]
    if tuned:
        out["autotune.candidates"] = sum(len(c.records) for c in tuned)
        out["autotune.tuned_cycles_geomean"] = harness.geomean([c.cycles for c in tuned])
        out["autotune.best_over_auto_cycles"] = harness.geomean(
            [c.cycles / compiler.build(c.row.source(), c.row.name).cycles() for c in tuned]
        )
    single = [c for c in compiled if c.row.single_op]
    out["baseline.tvm_over_akg_cycles"] = harness.geomean(
        [tvm_build(c.row.source(), c.row.name).cycles() / c.cycles for c in single]
    )
    out["baseline.expert_over_akg_cycles"] = harness.geomean(
        [cce_expert_build(c.row.source(), c.row.name).cycles() / c.cycles for c in single]
    )
    return out


def _probes(ctx, state: State, plain: harness.Sampler) -> Dict[str, float]:
    """Calibrated samples of single public calls: the memo-warm compile,
    the verifier (and its seeded mutants), the simulator."""
    probe = ctx.sampler("probe")
    out: Dict[str, float] = {}
    compiled = [state.compiled[r.name] for r in state.rows if r.kind != "tune"]
    cold_ms = warm_ms = verify_ms = 0.0
    killed = mutants = 0
    for c in compiled:
        row = c.row
        # Memo tables left warm by the same row's cold compile: what
        # remains is everything but the solves.
        compile_once(row)
        probe.sample("warm." + row.name, lambda: compile_once(row, cold=False))
        cold_ms += plain.median(row.name)
        warm_ms += probe.median("warm." + row.name)
        if row.kind == "network":
            probe.sample("verify." + row.name, lambda: verify_network_plan(c.product.plan))
        else:
            probe.sample("verify." + row.name, lambda: verify_result(c.product))
            for _name, mutant in seeded_mutations(c.product):
                mutants += 1
                try:
                    verify_result(mutant)
                except VerificationError:
                    killed += 1
        verify_ms += probe.median("verify." + row.name)
    out["poly.solve_cpu_ms"] = cold_ms - warm_ms
    out["verify.cpu_ms"] = verify_ms
    out["verify.over_compile_ratio"] = verify_ms / cold_ms
    out["verify.mutants_killed_ratio"] = killed / max(mutants, 1)
    ctx.tally.record(killed == mutants, f"verifier killed {killed}/{mutants} mutants")

    results = [res for c in compiled for res in c.results]
    flat = sum(r.program.flat_count() for r in results)
    reps = max(1, 200 // len(results))
    probe.sample("simulate", lambda: [r.simulate() for _ in range(reps) for r in results])
    out["hw.sim_us_per_instr"] = 1000.0 * probe.median("simulate") / (reps * flat)

    tuned = [r.name for r in state.rows if r.kind == "tune"]
    if tuned:
        out["autotune.cpu_ms_per_candidate"] = sum(plain.median(n) for n in tuned) / sum(
            len(state.compiled[n].records) for n in tuned
        )
    return out


def _static_syncs(instrs) -> int:
    total = 0
    for instr in instrs:
        if isinstance(instr, Loop):
            total += _static_syncs(instr.body)
        elif isinstance(instr, (SetFlag, WaitFlag, Barrier)):
            total += 1
    return total
