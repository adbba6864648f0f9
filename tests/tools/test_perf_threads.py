"""perf counters under thread contention (the compile-service regime)."""

import threading

from repro.core.context import stage
from repro.tools import perf

THREADS = 8
ITERS = 500


class TestPerfThreadSafety:
    def test_hammered_counters_lose_nothing(self):
        """8 threads × 500 adds per stage: exact totals, exact calls.

        The pre-lock implementation's read-modify-write pair drops
        increments under this interleaving almost every run.
        """
        perf.reset()
        barrier = threading.Barrier(THREADS)

        def hammer(tid):
            barrier.wait()  # maximise overlap
            for _ in range(ITERS):
                perf.add("shared.stage", 0.001)
                perf.add(f"private.stage.{tid}", 0.002)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stages = perf.report()["stages"]
        shared = stages["shared.stage"]
        assert shared["calls"] == THREADS * ITERS
        assert abs(shared["seconds"] - THREADS * ITERS * 0.001) < 1e-6
        for i in range(THREADS):
            row = stages[f"private.stage.{i}"]
            assert row["calls"] == ITERS
            assert abs(row["seconds"] - ITERS * 0.002) < 1e-6

    def test_stage_context_manager_from_threads(self):
        perf.reset()

        def work():
            for _ in range(100):
                with stage("ctx.stage"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert perf.report()["stages"]["ctx.stage"]["calls"] == THREADS * 100

    def test_reset_races_with_adds_without_corruption(self):
        """Concurrent reset() + add() never crashes or leaves bad state."""
        perf.reset()
        stop = threading.Event()

        def adder():
            while not stop.is_set():
                perf.add("racy.stage", 0.0001)

        def resetter():
            for _ in range(50):
                perf.reset()

        adders = [threading.Thread(target=adder) for _ in range(4)]
        for t in adders:
            t.start()
        resetter()
        stop.set()
        for t in adders:
            t.join()
        stages = perf.report()["stages"]
        row = stages.get("racy.stage")
        if row is not None:  # whatever survived the last reset is coherent
            assert row["calls"] >= 1
            assert row["seconds"] > 0.0
