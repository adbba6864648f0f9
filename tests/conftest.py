"""Shared fixtures: isolate the persistent disk cache and the counter
table per test.

Every test starts from an empty ``repro.core.context.COUNTERS`` table and
gets its own ``REPRO_CACHE_DIR`` under pytest's tmpdir, so

- tests never read (or pollute) the developer's ``~/.cache/repro-akg``;
- cache-hit assertions start from a genuinely cold cache;
- tests that flip the module-level overrides (``set_cache_dir`` /
  ``set_disk_cache_enabled``, e.g. through ``akgc`` flags) are reset
  afterwards.
"""

import cProfile
import gc
import os

import pytest

from repro.core import diskcache, faults
from repro.core.context import reset_counters


@pytest.fixture(autouse=True)
def _isolated_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    diskcache.set_cache_dir(None)
    diskcache.set_disk_cache_enabled(True)
    reset_counters()
    yield
    diskcache.set_cache_dir(None)
    diskcache.set_disk_cache_enabled(True)


@pytest.fixture(autouse=True)
def _no_leaked_fault_spec(monkeypatch):
    """No test inherits fault injection from the environment or a
    neighbour that forgot to clear a programmatic spec.  The module keeps
    the last environment spec it parsed; reading the spec re-syncs it, so
    a spec a neighbour set through the environment costs no test's first
    idle ``fire`` a re-parse."""
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    faults.set_spec(None)
    faults.current_spec()
    yield
    faults.set_spec(None)


@pytest.fixture(scope="session", autouse=True)
def _fault_spec_does_not_outlive_the_session():
    """A test that armed a fault by hand and never disarmed it: the
    per-test fixture above hides that from later tests, this reports it."""
    at_start = os.environ.get("REPRO_FAULT_SPEC")
    yield
    assert os.environ.get("REPRO_FAULT_SPEC") == at_start
    assert faults.current_spec() == at_start


@pytest.fixture()
def python_calls():
    """``python_calls(fn)``: the Python-level calls ``fn`` makes -- what
    the benchmark's ``kcalls`` counts: exact, and blind to C builtins.

    Automatic garbage collection is paused while ``fn`` runs: a collection
    calls every ``gc.callbacks`` hook (hypothesis registers a Python one),
    so whether earlier tests' garbage tipped a collection into ``fn``
    would otherwise change the count."""

    def count(fn):
        profiler = cProfile.Profile(builtins=False, subcalls=False)
        enabled = gc.isenabled()
        gc.disable()
        profiler.enable()
        try:
            fn()
        finally:
            profiler.disable()
            if enabled:
                gc.enable()
        profiler.create_stats()
        return sum(entry[1] for entry in profiler.stats.values())

    return count
