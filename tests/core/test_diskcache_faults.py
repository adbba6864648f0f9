"""Injected cache corruption: detection, deletion, recompilation.

The harness's ``diskcache.read:corrupt`` / ``:truncate`` directives
mangle the *real* entry bytes on disk right before the read, so these
tests exercise the production integrity check (magic + sha256 header),
not a simulated one.
"""

import os
from collections import Counter

import numpy as np

from repro.core import diskcache, faults
from repro.core.compiler import AkgOptions, build
from repro.core.context import counters
from repro.core.frontend import run_frontend
from repro.ir import ops
from repro.ir.tensor import placeholder


def _disk_counts():
    """The ``diskcache.*`` counters (a missing label reads 0)."""
    return Counter(counters("diskcache."))


def _matmul():
    a = placeholder((12, 10), dtype="fp32", name="A")
    b = placeholder((10, 8), dtype="fp32", name="B")
    return ops.matmul(a, b, name="out")


class TestEntryMangling:
    def test_corrupt_entry_detected_deleted_and_recompiled(self, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("unit", "injected-corrupt")
        cache.put(key, {"schedule": list(range(64))})
        path = cache._path(key)

        with faults.inject("diskcache.read:corrupt"):
            assert cache.get(key) is None  # a miss, not a crash
        assert not os.path.exists(path)  # poisoned entry removed
        stats = _disk_counts()
        assert stats["corruptions"] == 1
        assert stats["errors"] == 1

        # The slot is usable again immediately.
        cache.put(key, "healthy")
        assert cache.get(key) == "healthy"

    def test_truncated_entry_detected_and_removed(self, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("unit", "injected-truncate")
        cache.put(key, list(range(1000)))
        path = cache._path(key)
        healthy_size = os.path.getsize(path)

        with faults.inject("diskcache.read:truncate"):
            assert cache.get(key) is None
        assert not os.path.exists(path)
        assert _disk_counts()["corruptions"] == 1
        assert healthy_size > 0

    def test_single_bit_flip_is_caught_by_the_checksum(self, tmp_path):
        # Directly flip one payload byte (no harness): the sha256 header
        # must catch what magic-number checks alone would let through.
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("unit", "bit-flip")
        cache.put(key, {"x": 1})
        path = cache._path(key)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[-1] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert cache.get(key) is None
        assert _disk_counts()["corruptions"] == 1

    def test_mangling_fires_only_under_injection(self, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("unit", "no-spec")
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert _disk_counts()["corruptions"] == 0


class TestPipelineRecovery:
    def test_warm_frontend_recompiles_through_corruption(self):
        fe_cold = run_frontend(_matmul(), "faulted")
        assert fe_cold.cache_key is not None
        diskcache.reset_disk_cache_stats()

        with faults.inject("diskcache.read:corrupt#once"):
            fe_warm = run_frontend(_matmul(), "faulted")

        # Recompiled from scratch (the mangled entry could not be a hit)
        # and semantically identical to the cold result -- not stale, not
        # a crash.
        assert diskcache.disk_cache_stats()["corruptions"] >= 1
        assert fe_warm.extents == fe_cold.extents
        assert len(fe_warm.deps) == len(fe_cold.deps)

        # The recompile re-stored the entry; a healthy read now hits.
        diskcache.reset_disk_cache_stats()
        fe_again = run_frontend(_matmul(), "faulted")
        assert diskcache.disk_cache_stats()["hits"] >= 1
        assert fe_again.extents == fe_cold.extents

    def test_corrupted_warm_build_matches_cold_program_exactly(self):
        opts = AkgOptions(emit_trace=True)
        cold = build(_matmul(), "faulted_build", options=opts)
        with faults.inject("diskcache.read:corrupt"):
            warm = build(_matmul(), "faulted_build", options=opts)
        assert warm.program.dump() == cold.program.dump()
        assert warm.tile_sizes == cold.tile_sizes

        rng = np.random.default_rng(0)
        inputs = {
            "A": rng.standard_normal((12, 10)).astype(np.float32),
            "B": rng.standard_normal((10, 8)).astype(np.float32),
        }
        np.testing.assert_array_equal(
            warm.execute(inputs)["out"], cold.execute(inputs)["out"]
        )

    def test_recovery_is_reported_as_an_event_not_degradation(self):
        run_frontend(_matmul(), "faulted_report")
        from repro.core import resilience

        with faults.inject("diskcache.read:corrupt#once"):
            with resilience.collect() as report:
                run_frontend(_matmul(), "faulted_report")
        kinds = [e["kind"] for e in report.events]
        assert "recovered" in kinds
        assert not report.degraded  # recovery is not a fallback rung

    def test_error_mode_read_fault_does_not_crash_the_build(self):
        # ``diskcache.read:error`` raises CacheCorruptionError out of the
        # directive call itself; the cache layer must absorb it as a miss.
        run_frontend(_matmul(), "faulted_error_mode")
        with faults.inject("diskcache.read:error#once"):
            fe = run_frontend(_matmul(), "faulted_error_mode")
        assert fe.extents
