"""Measurer fault handling: worker death, retry, serial parity — for one
kernel (the single-kernel tuner's shape) and for two kernels sharing a
pool (the graph pipeline's).

Worker processes inherit ``REPRO_FAULT_SPEC`` through the environment,
so the ``autotune.worker`` site fires *inside* the pool children: a
``crash`` directive hard-exits the worker (``os._exit``), which poisons
the whole ``ProcessPoolExecutor`` — exactly the failure an OOM-killed
child produces in production.
"""

import pytest

from repro.autotune.parallel import Measurer, measure_candidate
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
        with Measurer({"k": frontend}, workers=2) as healthy:
            healthy._serial_fallback = True  # force the serial oracle
            expected = healthy.measure("k", BATCH)
        assert any(c is not None for c in expected)

        monkeypatch.setenv("REPRO_FAULT_SPEC", "autotune.worker:crash")
        reset_counters("resilience.")
        with Measurer({"k": frontend}, workers=2) as measurer:
            measurer.RETRY_BACKOFF_SECONDS = 0.01
            got = measurer.measure("k", BATCH)
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
        with Measurer({"k": frontend}, workers=2) as healthy:
            healthy._serial_fallback = True
            expected = healthy.measure("k", BATCH)

        monkeypatch.setenv("REPRO_FAULT_SPEC", "autotune.worker:error")
        with Measurer({"k": frontend}, workers=2) as measurer:
            measurer.RETRY_BACKOFF_SECONDS = 0.01
            got = measurer.measure("k", BATCH)
        assert got == expected

    def test_serial_fallback_is_sticky(self, monkeypatch):
        frontend = _frontend()
        monkeypatch.setenv("REPRO_FAULT_SPEC", "autotune.worker:crash")
        with Measurer({"k": frontend}, workers=2) as measurer:
            measurer.RETRY_BACKOFF_SECONDS = 0.01
            measurer.measure("k", BATCH[:2])
            assert measurer._serial_fallback
            monkeypatch.delenv("REPRO_FAULT_SPEC")
            # A later healthy batch must not re-pay pool creation + death.
            assert measurer._pool is None
            got = measurer.measure("k", BATCH)
        assert any(c is not None for c in got)

    def test_single_candidate_batches_never_touch_the_pool(self):
        frontend = _frontend()
        with Measurer({"k": frontend}, workers=2) as measurer:
            got = measurer.measure("k", [BATCH[0]])
            assert measurer._pool is None
        assert got[0] is not None

    def test_healthy_pool_matches_serial(self):
        frontend = _frontend()
        with Measurer({"k": frontend}, workers=2) as healthy:
            healthy._serial_fallback = True
            expected = healthy.measure("k", BATCH)
        with Measurer({"k": frontend}, workers=2) as measurer:
            got = measurer.measure("k", BATCH)
            if measurer._serial_fallback:
                pytest.skip("no working process pool in this environment")
        assert got == expected


def _second_frontend():
    x = placeholder((16, 32), dtype="fp16", name="X")
    y = placeholder((16, 32), dtype="fp16", name="Y")
    return run_frontend(ops.relu(ops.add(x, y, name="s"), name="out"), "par_fault2")


class TestSharedPool:
    """Two kernels, one pool: what ``compile_network(tune=True)`` runs."""

    def _oracle(self, frontends):
        return {
            kid: [measure_candidate(frontend, s) for s in BATCH]
            for kid, frontend in frontends.items()
        }

    def test_two_kernels_share_one_healthy_pool(self):
        frontends = {"mm": _frontend(), "ew": _second_frontend()}
        expected = self._oracle(frontends)
        assert expected["mm"] != expected["ew"]
        with Measurer(frontends, workers=2) as measurer:
            got_mm = measurer.measure("mm", BATCH)
            pool = measurer._pool
            got_ew = measurer.measure("ew", BATCH)
            if measurer._serial_fallback:
                pytest.skip("no working process pool in this environment")
            assert measurer._pool is pool  # the second kernel reused it
        assert {"mm": got_mm, "ew": got_ew} == expected

    def test_crash_retries_then_falls_back_for_every_kernel(self, monkeypatch):
        frontends = {"mm": _frontend(), "ew": _second_frontend()}
        expected = self._oracle(frontends)
        monkeypatch.setenv("REPRO_FAULT_SPEC", "autotune.worker:crash")
        reset_counters("resilience.")
        with Measurer(frontends, workers=2) as measurer:
            measurer.RETRY_BACKOFF_SECONDS = 0.01
            got_mm = measurer.measure("mm", BATCH)
            assert measurer._serial_fallback and measurer._pool is None
            # Sticky across kernels: the other tuner does not re-pay the
            # pool attempts either.
            got_ew = measurer.measure("ew", BATCH)
            assert measurer._pool is None
        assert {"mm": got_mm, "ew": got_ew} == expected
        stats = counters("resilience.")
        assert stats.get("autotune.pool.retry", 0) == 1
        assert stats.get("autotune.pool.fallback:serial", 0) == 1
