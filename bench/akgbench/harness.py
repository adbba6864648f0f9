"""Timing primitives: calibrated CPU samples, exact call counts, statistics.

Wall clock is unusable on the shared 2-core VMs this runs on (identical
cold compiles: 1.0-4.3 s wall) and CPU time itself drifts in phases of a
second or two (the same build costs 0.57 s or 0.78 s of CPU).  While a
sample runs, a background thread times a tiny fixed pure-Python loop
every 30 ms; the mean of those ticks is the host's speed *during that
sample*, so every timed metric is *calibrated CPU*::

    raw_cpu * TICK_NOMINAL_S / mean(tick CPU seconds during the sample)

Measured on 24 identical cold compiles of conv2d_16x32: raw CPU cv
12.4%, one loop before + one after each sample cv 5.8%, ticks during
the sample cv 1.6%.  The ticks stand for the sample only when both run
on the same CPU, so the workload process pins itself to one
(``worker._pin_to_one_cpu``).  Raw CPU and wall are kept per sample for
the per-layer table only.
"""

from __future__ import annotations

import cProfile
import math
import statistics
import threading
import time
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

#: CPU seconds one tick takes on the reference host; the constant that
#: turns "multiples of the tick" back into milliseconds.  Changing it
#: (or the loop) rescales every timed metric.
TICK_NOMINAL_S = 0.0013

_TICK_STEPS = 400
_TICK_INTERVAL_S = 0.03


def tick() -> float:
    """Thread CPU seconds for the fixed loop: Fraction arithmetic + dict
    churn, the operation mix of the polyhedral solvers and the wire path."""
    start = time.thread_time()
    acc = Fraction(1, 3)
    table: Dict[Tuple[int, int], int] = {}
    for i in range(1, _TICK_STEPS):
        acc = acc * Fraction(i, i + 1) + Fraction(1, i)
        if acc.denominator > 1 << 64:
            acc = Fraction(acc.numerator % 9973, 9973)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + acc.numerator % 7
    return time.thread_time() - start


def normalise(raw_cpu_s: float, ticks: Sequence[float]) -> float:
    """Calibrated CPU seconds for a sample during which ``ticks`` ran."""
    return raw_cpu_s * TICK_NOMINAL_S / statistics.mean(ticks)


class Measure:
    """``with Measure() as m: work()`` — process CPU, wall and calibrated
    CPU seconds of the block (all threads; the ticker's own CPU is
    subtracted)."""

    def __enter__(self) -> "Measure":
        self.ticks: List[float] = []
        self._stop = threading.Event()
        self._ticker = threading.Thread(target=self._run, name="bench-ticker")
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._ticker.start()
        return self

    def _run(self) -> None:
        while True:
            self.ticks.append(tick())
            if self._stop.wait(_TICK_INTERVAL_S):
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._ticker.join()
        self.cpu_s = max(time.process_time() - self._cpu0 - sum(self.ticks), 1e-9)
        self.wall_s = time.perf_counter() - self._wall0
        self.cal_s = normalise(self.cpu_s, self.ticks)


#: Ratios and per-row costs average this way; raises (a ValueError
#: subclass) on an empty or non-positive input.
geomean = statistics.geometric_mean


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


#: Tail percentiles a latency report may quote, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(
    sorted_values: Sequence[float], min_beyond: int = 10
) -> Tuple[float, float]:
    """The highest percentile with at least ``min_beyond`` samples beyond
    it, as ``(q, value)``; falls back to the median for small samples."""
    n = len(sorted_values)
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= min_beyond:
            return q, sorted_values[rank - 1]
    return 50.0, percentile(sorted_values, 50.0)


def count_calls(fn: Callable[[], object]) -> Tuple[object, int]:
    """Run ``fn`` under cProfile; return its result and the exact number
    of Python-level function calls it made.

    The count repeats bit-for-bit across processes (the compiler is
    deterministic), which no timing on this host does.  C builtins are
    not counted: that costs a third less profiler time per run and the
    Python-level count moves with the same changes.
    """
    profiler = cProfile.Profile(builtins=False, subcalls=False)
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    profiler.create_stats()
    return result, sum(entry[1] for entry in profiler.stats.values())


class Sample:
    """One timed call: per-operation calibrated/raw CPU and wall ms."""

    __slots__ = ("cal_ms", "raw_ms", "wall_ms")

    def __init__(self, cal_ms: float, raw_ms: float, wall_ms: float):
        self.cal_ms = cal_ms
        self.raw_ms = raw_ms
        self.wall_ms = wall_ms


class Sampler:
    """Collects calibrated samples per row: ``sample(row, fn, ops)``
    times one call of ``fn`` that performs ``ops`` operations."""

    def __init__(self) -> None:
        self.rows: Dict[str, List[Sample]] = {}
        self.ticks: List[float] = []

    def sample(self, row: str, fn: Callable[[], object], ops: int = 1):
        with Measure() as m:
            result = fn()
        self.ticks.extend(m.ticks)
        scale = 1000.0 / ops
        self.rows.setdefault(row, []).append(
            Sample(scale * m.cal_s, scale * m.cpu_s, scale * m.wall_s)
        )
        return result

    def median(self, row: str, field: str = "cal_ms") -> float:
        return statistics.median(getattr(s, field) for s in self.rows[row])

    def geomean_of_medians(self, rows: Sequence[str]) -> float:
        return geomean([self.median(r) for r in rows])

    def calib_cv(self) -> float:
        """Coefficient of variation of the ticks: the host's CPU-speed
        noise during this run."""
        if len(self.ticks) < 2:
            return 0.0
        return statistics.pstdev(self.ticks) / statistics.mean(self.ticks)


class Tally:
    """Operations attempted / failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, note: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok

    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


#: A budget also ends when this multiple of it has passed on the wall
#: clock: the driver allows a run a fixed time whatever the host does.
WALL_CAP = 1.5


class Budget:
    """``seconds`` of *process CPU*, or ``WALL_CAP`` times that on the
    wall clock, whichever ends first.

    A wall-clock deadline measures less work the busier the host is (a
    10 s region held 3 cold compiles per row on a quiet host and 1 when a
    neighbour took the cores), so the sample count, and with it the
    spread of every median, followed the host's load.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()

    def left(self) -> float:
        """CPU seconds left (<= 0 when spent), as the tighter of the two clocks."""
        cpu = self.seconds - (time.process_time() - self._cpu0)
        wall = self.seconds - (time.perf_counter() - self._wall0) / WALL_CAP
        return min(cpu, wall)

    def spent(self) -> bool:
        return self.left() <= 0.0


def rounds_until(budget: Budget, one_round: Callable[[], None]) -> int:
    """Run whole rounds until ``budget`` is spent: at least one, and never
    start a round unlikely to finish in time."""
    done = 0
    longest = 0.0
    while True:
        before = budget.left()
        one_round()
        done += 1
        longest = max(longest, before - budget.left())
        if budget.left() < 0.5 * longest:
            return done
