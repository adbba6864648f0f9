"""perf counters under thread contention (the compile-service regime)."""

import sys
import threading

from repro.core.context import counters, reset_counters, stage
from repro.ir.lower import lower
from repro.sched.deps import compute_dependences
from repro.tools import perf

from tests.core.test_golden_programs import GOLDEN

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

    def test_dependence_pruning_counters_lose_nothing(self):
        """``CompileService`` workers run dependence analysis at once: 8
        threads x 5 analyses, switching threads every microsecond, count
        exactly 8x what one thread's 5 count.  (CPython's GIL happened to
        keep the unlocked bumps whole too; this pins the locking contract.)"""
        kernel = lower(GOLDEN["softmax_32x64"][0]())
        rounds = 5

        def analyse():
            for _ in range(rounds):
                compute_dependences(kernel)

        analyse()
        one = counters("deps.")
        assert one["pairs_checked"] > 0
        reset_counters("deps.")
        barrier = threading.Barrier(THREADS)

        def racer():
            barrier.wait()
            analyse()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=racer) for _ in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert counters("deps.") == {label: THREADS * n for label, n in one.items()}
