"""Measurer fault handling: worker death, retry, serial parity.

Worker processes inherit ``REPRO_FAULT_SPEC`` through the environment,
so the ``autotune.worker`` site fires *inside* the pool children: a
``crash`` directive hard-exits the worker (``os._exit``), which poisons
the whole ``ProcessPoolExecutor`` — exactly the failure an OOM-killed
child produces in production.
"""

import pytest

from repro.autotune.parallel import Measurer
from repro.core.context import counters, reset_counters
from repro.core.frontend import run_frontend
from repro.ir import ops
from repro.ir.tensor import placeholder


def _frontend():
    a = placeholder((12, 10), dtype="fp16", name="A")
    b = placeholder((10, 8), dtype="fp16", name="B")
    return run_frontend(ops.matmul(a, b, name="out"), "par_fault")


BATCH = [[4, 4], [8, 8], [2, 8], [8, 2]]


class TestWorkerDeath:
    def test_crashing_workers_degrade_to_serial_with_identical_results(
        self, monkeypatch
    ):
        frontend = _frontend()
        with Measurer(frontend, workers=2) as healthy:
            healthy._serial_fallback = True  # force the serial oracle
            expected = healthy.measure(BATCH)
        assert any(c is not None for c in expected)

        monkeypatch.setenv("REPRO_FAULT_SPEC", "autotune.worker:crash")
        reset_counters("resilience.")
        with Measurer(frontend, workers=2) as measurer:
            measurer.RETRY_BACKOFF_SECONDS = 0.01
            got = measurer.measure(BATCH)
            assert measurer._serial_fallback  # pool attempts exhausted
        assert got == expected  # bit-identical to the serial tuner

        stats = counters("resilience.")
        assert stats.get("autotune.pool.retry", 0) >= 1
        assert stats.get("autotune.pool.fallback:serial", 0) >= 1

    def test_injected_worker_error_also_degrades_cleanly(self, monkeypatch):
        # ``error`` mode raises a typed ReproError out of the worker task
        # (not a candidate failure): pool.map surfaces it, the measurer
        # retries and then falls back to serial.
        frontend = _frontend()
        with Measurer(frontend, workers=2) as healthy:
            healthy._serial_fallback = True
            expected = healthy.measure(BATCH)

        monkeypatch.setenv("REPRO_FAULT_SPEC", "autotune.worker:error")
        with Measurer(frontend, workers=2) as measurer:
            measurer.RETRY_BACKOFF_SECONDS = 0.01
            got = measurer.measure(BATCH)
        assert got == expected

    def test_serial_fallback_is_sticky(self, monkeypatch):
        frontend = _frontend()
        monkeypatch.setenv("REPRO_FAULT_SPEC", "autotune.worker:crash")
        with Measurer(frontend, workers=2) as measurer:
            measurer.RETRY_BACKOFF_SECONDS = 0.01
            measurer.measure(BATCH[:2])
            assert measurer._serial_fallback
            monkeypatch.delenv("REPRO_FAULT_SPEC")
            # A later healthy batch must not re-pay pool creation + death.
            assert measurer._pool is None
            got = measurer.measure(BATCH)
        assert any(c is not None for c in got)

    def test_single_candidate_batches_never_touch_the_pool(self):
        frontend = _frontend()
        with Measurer(frontend, workers=2) as measurer:
            got = measurer.measure([BATCH[0]])
            assert measurer._pool is None
        assert got[0] is not None

    def test_healthy_pool_matches_serial(self):
        frontend = _frontend()
        with Measurer(frontend, workers=2) as healthy:
            healthy._serial_fallback = True
            expected = healthy.measure(BATCH)
        with Measurer(frontend, workers=2) as measurer:
            got = measurer.measure(BATCH)
            if measurer._serial_fallback:
                pytest.skip("no working process pool in this environment")
        assert got == expected
