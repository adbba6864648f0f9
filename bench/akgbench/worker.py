"""One workload in one fresh process (``python -m akgbench.worker``).

The runner starts this with ``PYTHONHASHSEED=0``, the repo's ``src`` on
``PYTHONPATH`` and ``REPRO_CACHE_DIR`` inside a scratch directory under
``bench/out`` — never ``~/.cache/repro-akg``.  It writes one result JSON
and exits 0, or 1 when any operation failed.
"""

from __future__ import annotations

import time

_WALL0 = time.perf_counter()
_CPU0 = time.process_time()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from akgbench import harness, metrics  # noqa: E402
from akgbench.trace import Tracer  # noqa: E402

#: Set-up repeats until it has run three times or used this much CPU.
SETUP_BUDGET_S = 1.5
#: Interpreter start + imports are timed in this many fresh interpreters
#: (this one included); they are most of set-up for three workloads.
IMPORT_REPEATS = 3


class Context:
    """What a workload needs from the run: the seed, the time budget,
    the shared tally, and the tracer when this is the traced run."""

    def __init__(self, args: argparse.Namespace):
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = args.seconds
        self.scratch: str = args.scratch
        self.rng = random.Random(args.seed)
        self.tally = harness.Tally()
        self.tracer: Optional[Tracer] = Tracer() if args.trace else None
        self.rows: Dict[str, Dict[str, float]] = {}
        self.extras: Dict[str, float] = {}
        self.samplers: Dict[str, harness.Sampler] = {}

    def sampler(self, label: str) -> harness.Sampler:
        """A fresh sampler whose raw samples go into the result file."""
        self.samplers[label] = harness.Sampler()
        return self.samplers[label]

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def row(self, name: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.row = name

    def budget(self, share: float = 1.0) -> harness.Budget:
        """A fresh budget of ``share`` of ``--seconds``, starting now."""
        return harness.Budget(share * self.seconds)


def _pin_to_one_cpu() -> None:
    """Keep every thread of this process (and the interpreters it
    starts) on one CPU, the last it is allowed.

    The calibration ticks run on a second thread.  Left free, the kernel
    puts that thread on the other core, and the ticks then report *that*
    core's state: beside a memory-hungry neighbour they slowed by 60-90%
    while the compile on this core slowed by 25% (calibrated cv over 60
    identical cold compiles: 9.1% free, 2.3% pinned).  The program's own
    threads share the GIL, so one CPU costs them nothing.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program() -> None:
    # repro.core first: repro.graph / repro.poly imported first hit a
    # known import cycle.
    import numpy  # noqa: F401
    import repro.core  # noqa: F401
    import repro.graph  # noqa: F401
    import repro.autotune  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.verify  # noqa: F401


def _timed_imports() -> float:
    """Calibrated CPU seconds from interpreter start to program imported."""
    with harness.Measure() as m:
        _import_program()
    # Interpreter start-up happened before the ticker could run.
    return harness.normalise(m.cpu_s + _CPU0, m.ticks)


def _imports_elsewhere() -> float:
    """The same measurement in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-m", "akgbench.worker", "--imports-only"],
        check=True,
        capture_output=True,
        text=True,
    )
    return float(out.stdout)


def _timed_setup(ctx: Context, module) -> tuple:
    """Run set-up until three repeats or the CPU budget; return the last
    state and the median calibrated CPU seconds of one set-up."""
    samples: List[float] = []
    spent = 0.0
    while True:
        with harness.Measure() as m:
            state = module.setup(ctx)
        samples.append(m.cal_s)
        spent += m.cpu_s
        if len(samples) >= 3 or spent > SETUP_BUDGET_S:
            return state, statistics.median(samples)
        module.teardown(ctx, state)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--imports-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch")
    parser.add_argument("--result")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    _pin_to_one_cpu()
    import_s = _timed_imports()
    if args.imports_only:
        print(repr(import_s))
        return 0
    import_s = statistics.median(
        [import_s] + [_imports_elsewhere() for _ in range(IMPORT_REPEATS - 1)]
    )
    ctx = Context(args)
    module = importlib.import_module(f"akgbench.workloads.{args.workload}")

    if ctx.tracer is not None:
        ctx.tracer.install()
    ctx.phase("setup")
    state, setup_median_s = _timed_setup(ctx, module)
    setup_wall_s = time.perf_counter() - _WALL0
    try:
        if ctx.tracer is None:
            values = module.measure(ctx, state)
            units = metrics.END_TO_END_UNITS
        else:
            values = {name: 0.0 for name in metrics.PER_LAYER_UNITS}
            values.update(module.layers(ctx, state))
            ctx.tracer.uninstall()
            units = metrics.PER_LAYER_UNITS
        ctx.phase("check")
        module.check(ctx, state)
    finally:
        module.teardown(ctx, state)
    if ctx.tracer is not None and args.trace_file:
        ctx.tracer.write_chrome_trace(args.trace_file)

    if ctx.tracer is None:
        values["setup_s"] = import_s + setup_median_s
        # ru_maxrss is kilobytes on Linux.
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    unknown = set(values) - set(units)
    missing = set(units) - set(values)
    if unknown or missing:
        raise SystemExit(f"metric table mismatch: unknown {unknown}, missing {missing}")
    ctx.extras["fail_ratio"] = ctx.tally.ratio()
    ctx.extras["setup_wall_s"] = setup_wall_s
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "failures": ctx.tally.notes,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
        "extras": ctx.extras,
        "rows": ctx.rows,
        "samples": {
            label: {
                row: [[s.cal_ms, s.raw_ms, s.wall_ms] for s in samples]
                for row, samples in sampler.rows.items()
            }
            for label, sampler in ctx.samplers.items()
        },
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0 if ctx.tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
