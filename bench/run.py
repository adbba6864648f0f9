#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads.

    python3 bench/run.py                       # every workload, end to end
    python3 bench/run.py --workload serve_mix --seed 3
    python3 bench/run.py --trace               # per-layer run + Chrome traces
    python3 bench/run.py --quick               # fewer repeats, same rows
    python3 bench/run.py --aa                  # the set twice; do the runs agree?

Each workload runs in a fresh subprocess.  Every metric is printed by
name with its unit; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer
metrics.  Results and traces land in ``bench/out/``.  Exit status is 0
only when no operation failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, BENCH_DIR)
from akgbench import metrics  # noqa: E402

#: The driver allows one run 180 s; a hung child is killed before that.
CHILD_TIMEOUT_S = 170
QUICK_SECONDS = 3.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a fresh interpreter; returns its result dict."""
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    suffix = "_trace" if trace else ""
    result_path = os.path.join(OUT, f"result_{name}{suffix}.json")
    env = dict(os.environ)
    for key in ("REPRO_NO_DISK_CACHE", "REPRO_NO_SOLVER_CACHE", "REPRO_FAULT_SPEC"):
        env.pop(key, None)
    env["PYTHONHASHSEED"] = "0"
    # Transparent-huge-page compaction made identical executions of the
    # matmul rows (64 MB numpy temporaries) cost 60 or 340 ms of kernel
    # time; with 4 KB pages they cost a steady 100 ms.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([BENCH_DIR, SRC])
    env["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    command = [
        sys.executable, "-m", "akgbench.worker",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--scratch", scratch, "--result", result_path,
    ]  # fmt: skip
    if trace:
        command += ["--trace-file", os.path.join(OUT, f"trace_{name}.json")]
    if os.path.exists(result_path):
        os.remove(result_path)
    try:
        # The child's chatter goes to stderr: stdout ends with the result.
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not os.path.exists(result_path):
        raise SystemExit(f"{name}: worker exited {proc.returncode} without a result")
    with open(result_path) as fh:
        return json.load(fh)


def print_result(result: dict) -> None:
    name = result["workload"]
    aliases = {} if result["trace"] else metrics.ALIASES[name]
    print(f"\n== {name}  seed={result['seed']}  seconds={result['seconds']}"
          f"  {'per-layer (traced)' if result['trace'] else 'end-to-end'} ==")
    for metric, cell in result["metrics"].items():
        own = aliases.get(metric, "")
        print(f"  {metric:<34}{cell['value']:>16.6g} {cell['unit']:<8}{own}")
    for extra, value in result["extras"].items():
        if extra in metrics.UNGATED_UNITS:
            print(f"  {extra:<34}{value:>16.6g} {metrics.UNGATED_UNITS[extra]:<8}(not gated)")
    if result["rows"]:
        columns = sorted({k for row in result["rows"].values() for k in row})
        print("  " + f"{'row':<26}" + "".join(f"{c:>15}" for c in columns))
        for row, cells in result["rows"].items():
            print("  " + f"{row:<26}" + "".join(
                f"{cells[c]:>15.6g}" if c in cells else f"{'-':>15}" for c in columns))
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for note in result["failures"]:
        print(f"  FAILED: {note}")


def last_line(results: List[dict]) -> str:
    """The driver's line.  One workload: its metrics by name.  Several:
    each metric prefixed with its workload."""
    if len(results) == 1:
        merged = results[0]["metrics"]
    else:
        merged = {
            f"{r['workload']}.{m}": cell
            for r in results
            for m, cell in r["metrics"].items()
        }
    return json.dumps(
        {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": merged,
        }
    )


def aa_table(first: List[dict], second: List[dict]) -> int:
    """Compare two sets of runs of the same code; the number of metrics
    that disagree by more than their bound."""
    bounds = {name: bound for name, _u, _b, bound in metrics.END_TO_END}
    better = {name: b for name, _u, b, _bound in metrics.END_TO_END}
    b_by_name = {r["workload"]: r for r in second}
    bad = 0
    print(f"\n== A/A ==\n  {'workload':<15}{'metric':<22}{'A':>14}{'B':>14}{'B vs A':>10}{'bound':>10}")
    for a in first:
        b = b_by_name[a["workload"]]
        for metric, cell in a["metrics"].items():
            va, vb = cell["value"], b["metrics"][metric]["value"]
            worse = (vb - va) / va if better[metric] == "lower" else (va - vb) / va
            # Either order of the pair may be the "parent": gate on |diff|.
            verdict = "" if abs(worse) <= bounds[metric] else "  DISAGREE"
            bad += bool(verdict)
            print(f"  {a['workload']:<15}{metric:<22}{va:>14.6g}{vb:>14.6g}"
                  f"{100 * worse:>9.2f}%{100 * bounds[metric]:>9.2f}%{verdict}")
    return bad


def main(argv=None) -> int:
    names = [name for name, _why in metrics.WORKLOADS]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        default_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="process-CPU seconds of the timed region of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s timed regions: fewer repeats, same rows")
    parser.add_argument("--aa", action="store_true",
                        help="run the set twice in alternating order and compare")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    seconds = QUICK_SECONDS if args.quick else args.seconds
    selected = [args.workload] if args.workload else names

    results = [run_workload(n, args.seed, seconds, bool(args.trace)) for n in selected]
    for result in results:
        print_result(result)
    disagreements = 0
    if args.aa:
        again = [
            run_workload(n, args.seed, seconds, bool(args.trace))
            for n in reversed(selected)
        ]
        disagreements = aa_table(results, again) if not args.trace else 0
        print(f"  {disagreements} metric(s) disagree")
    with open(os.path.join(OUT, "result.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    print(last_line(results))
    failed = any(not r["correct"] for r in results)
    return 1 if failed or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
