"""Decoupled access-execute pipeline simulator.

Each pipe executes its instructions in order; ``set_flag``/``wait_flag``
pairs are the only cross-pipe ordering (exactly the DAE model of Sec. 5.2).
The simulator walks the instruction stream once, maintaining a time cursor
per pipe and FIFO queues of pending flag events; the kernel's execution
time is the maximum cursor at the end.

``Loop`` bodies are unrolled for small trip counts; large loops are
simulated for a few warm-up iterations and then extrapolated at the
steady-state period (the per-iteration advance of the bottleneck pipe).
This keeps end-to-end network simulation fast while preserving the
double-buffering overlap behaviour that the paper's memory-latency-hiding
optimisation produces.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.hw.isa import Instr, Loop, Pipe, Program, walk
from repro.hw.spec import HardwareSpec


class SimReport:
    """Result of simulating one program."""

    def __init__(self):
        self.total_cycles: int = 0
        self.busy_cycles: Dict[Pipe, float] = {p: 0.0 for p in Pipe}
        self.instr_counts: Dict[str, int] = {}
        self.sync_count: int = 0
        self.dma_bytes: int = 0

    def utilization(self, pipe: Pipe) -> float:
        """Fraction of total time the pipe was busy."""
        if self.total_cycles == 0:
            return 0.0
        return self.busy_cycles[pipe] / self.total_cycles

    def __repr__(self) -> str:
        return (
            f"SimReport(cycles={self.total_cycles}, syncs={self.sync_count}, "
            f"dma={self.dma_bytes}B)"
        )


class DeadlockError(RuntimeError):
    """A wait_flag had no matching set_flag earlier in the stream."""


class _State:
    """Mutable simulation state (pipe cursors + flag queues)."""

    def __init__(self):
        self.pipe_time: Dict[Pipe, float] = {p: 0.0 for p in Pipe}
        self.flags: Dict[Tuple[Pipe, Pipe, int], Deque[float]] = {}

    def snapshot(self) -> Dict[Pipe, float]:
        return dict(self.pipe_time)

    def shift(self, delta: float) -> None:
        """Advance every cursor and pending flag by ``delta`` cycles."""
        for p in self.pipe_time:
            self.pipe_time[p] += delta
        for q in self.flags.values():
            for i in range(len(q)):
                q[i] += delta


class Simulator:
    """Cycle-approximate simulator for one DaVinci core."""

    # Loops longer than this get steady-state extrapolation.
    UNROLL_LIMIT = 8
    WARMUP_ITERS = 4

    def __init__(self, spec: Optional[HardwareSpec] = None):
        self.spec = spec or HardwareSpec()

    def run(self, program: Program) -> SimReport:
        """Simulate and return the report (cycles, utilisation, syncs)."""
        report = SimReport()
        state = _State()
        self._run_block(program.instructions, state, report)
        report.total_cycles = int(max(state.pipe_time.values()))
        return report

    # -- internals -------------------------------------------------------------

    def _run_block(
        self, instrs: Sequence[Instr], state: _State, report: SimReport
    ) -> None:
        for instr in instrs:
            if isinstance(instr, Loop):
                self._run_loop(instr, state, report)
            else:
                self._step(instr, state, report)

    def _run_loop(self, loop: Loop, state: _State, report: SimReport) -> None:
        if loop.count == 0:
            return
        if loop.count <= self.UNROLL_LIMIT:
            for _ in range(loop.count):
                self._run_block(loop.body, state, report)
            return
        # Warm up, then extrapolate the steady-state period.
        iters = min(self.WARMUP_ITERS, loop.count)
        per_iter_deltas: List[Dict[Pipe, float]] = []
        for _ in range(iters):
            snap = state.snapshot()
            self._run_block(loop.body, state, report)
            per_iter_deltas.append(
                {p: state.pipe_time[p] - snap[p] for p in Pipe}
            )
        remaining = loop.count - iters
        last = per_iter_deltas[-1]
        period = max(last.values())
        state.shift(period * remaining)
        # Account the skipped iterations' work in the aggregate counters.
        spec = self.spec
        for _, scale, instr, _, _ in walk(loop.body, scale=remaining):
            name = type(instr).__name__
            report.instr_counts[name] = report.instr_counts.get(name, 0) + scale
            if instr.sync is not None:
                report.sync_count += scale
                continue
            report.busy_cycles[instr.pipe] += instr.cycles(spec) * scale
            if instr.dma:
                report.dma_bytes += instr.nbytes * scale

    def _step(self, instr: Instr, state: _State, report: SimReport) -> None:
        spec = self.spec
        name = type(instr).__name__
        report.instr_counts[name] = report.instr_counts.get(name, 0) + 1
        sync = instr.sync
        if sync is None:
            cycles = instr.cycles(spec)
            p = instr.pipe
            state.pipe_time[p] += cycles
            report.busy_cycles[p] += cycles
            if instr.dma:
                report.dma_bytes += instr.nbytes
            return
        if sync == "wait":
            key = (instr.src_pipe, instr.dst_pipe, instr.event)
            queue = state.flags.get(key)
            if not queue:
                raise DeadlockError(
                    f"wait_flag {instr.describe()} has no pending set_flag"
                )
            set_time = queue.popleft()
            p = instr.pipe
            state.pipe_time[p] = (
                max(state.pipe_time[p], set_time) + spec.sync_cycles / 2
            )
        elif sync == "set":
            p = instr.pipe
            state.pipe_time[p] += spec.sync_cycles / 2
            key = (instr.src_pipe, instr.dst_pipe, instr.event)
            state.flags.setdefault(key, deque()).append(state.pipe_time[p])
        else:  # a barrier: every pipe waits for the slowest
            t = max(state.pipe_time.values()) + spec.sync_cycles
            for p in state.pipe_time:
                state.pipe_time[p] = t
        report.sync_count += 1
