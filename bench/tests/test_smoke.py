"""``--quick`` runs every workload end to end: same rows, fewer repeats."""

import json
import os
import subprocess
import sys
import time

from akgbench import metrics

from conftest import BENCH_DIR, ROOT


def test_quick_run_of_all_five_workloads():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--quick", "--seed", "5"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 5
    expected = {
        f"{workload}.{name}"
        for workload, _why in metrics.WORKLOADS
        for name, *_ in metrics.END_TO_END
    }
    assert set(last["metrics"]) == expected
    for name, cell in last["metrics"].items():
        assert cell["value"] > 0, name
    # Every metric is printed by name with its unit.
    for name, unit, *_ in metrics.END_TO_END:
        assert f"  {name} " in proc.stdout and f" {unit} " in proc.stdout
    for own in ("compile_cpu_ms", "tune_cpu_ms", "warm_compile_cpu_ms", "cache_put_cpu_ms",
                "exec_cpu_ms", "warm_req_per_cpu_s", "cold_req_per_cpu_s", "warm_p50_ms",
                "compile_kcalls", "tuned_cycles_geomean", "fail_ratio"):
        assert own in proc.stdout, own
    assert elapsed < 60, f"--quick took {elapsed:.0f} s"


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ the run
    must fail without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
