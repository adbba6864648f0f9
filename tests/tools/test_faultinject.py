"""The fault-injection harness: spec grammar, determinism, delivery."""

import pytest

from repro.core import faults, resilience
from repro.core.context import stage
from repro.core.errors import (
    CacheCorruptionError,
    SchedulingError,
    SolverBudgetError,
    StageTimeoutError,
)
from repro.core.resilience import StageBudget


class TestSpecParsing:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.parse_spec("no.such.site:error")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            faults.parse_spec("ilp.solve:explode")

    def test_missing_mode_rejected(self):
        with pytest.raises(ValueError, match="needs site:mode"):
            faults.parse_spec("ilp.solve")

    def test_bad_flag_rejected(self):
        with pytest.raises(ValueError, match="bad fault flag"):
            faults.parse_spec("ilp.solve:error#whenever")

    def test_full_grammar_round_trip(self):
        table = faults.parse_spec(
            "ilp.solve:error@frontend.schedule#skip=2#limit=3, fm.eliminate:delay"
        )
        [d] = table["ilp.solve"]
        assert (d.mode, d.stage, d.skip, d.limit) == (
            "error", "frontend.schedule", 2, 3
        )
        assert table["fm.eliminate"][0].mode == "delay"

    def test_once_is_limit_one(self):
        [d] = faults.parse_spec("ilp.solve:error#once")["ilp.solve"]
        assert d.limit == 1


class TestDelivery:
    def test_disabled_harness_is_a_no_op(self):
        assert faults.current_spec() is None
        faults.fire("ilp.solve")
        assert faults.directive("diskcache.read") is None

    def test_error_mode_raises_the_sites_typed_class(self):
        with faults.inject("ilp.solve:error"):
            with pytest.raises(SolverBudgetError, match="injected fault"):
                faults.fire("ilp.solve")
        faults.fire("ilp.solve")  # spec cleared on exit

    def test_error_carries_the_active_stage(self):
        with faults.inject("sched.pluto_row:error"):
            with stage("frontend.schedule"):
                with pytest.raises(SchedulingError) as info:
                    faults.fire("sched.pluto_row")
        assert info.value.stage == "frontend.schedule"

    def test_other_sites_unaffected(self):
        with faults.inject("ilp.solve:error"):
            faults.fire("fm.eliminate")
            faults.fire("tiling.auto_search")

    def test_skip_then_limit(self):
        with faults.inject("ilp.solve:error#skip=2#limit=1"):
            faults.fire("ilp.solve")  # skipped
            faults.fire("ilp.solve")  # skipped
            with pytest.raises(SolverBudgetError):
                faults.fire("ilp.solve")  # fires
            faults.fire("ilp.solve")  # limit exhausted

    def test_stage_scoping_is_a_prefix_match(self):
        with faults.inject("ilp.solve:error@frontend.schedule"):
            faults.fire("ilp.solve")  # no matching stage active
            with stage("frontend.deps"):
                faults.fire("ilp.solve")  # different stage
            with stage("frontend.schedule[identity-only]"):
                with pytest.raises(SolverBudgetError):
                    faults.fire("ilp.solve")  # ladder rungs match too

    def test_delay_trips_the_active_deadline(self):
        with faults.inject("ilp.solve:delay"):
            with stage("s", StageBudget(stage_seconds=60.0)):
                with pytest.raises(StageTimeoutError):
                    faults.fire("ilp.solve")

    def test_delay_without_deadline_is_harmless(self):
        with faults.inject("ilp.solve:delay"):
            with stage("s"):  # unbudgeted
                faults.fire("ilp.solve")

    def test_directive_returns_mangling_modes(self):
        with faults.inject("diskcache.read:corrupt"):
            assert faults.directive("diskcache.read") == "corrupt"
        with faults.inject("diskcache.read:truncate"):
            assert faults.directive("diskcache.read") == "truncate"

    def test_directive_error_mode_raises(self):
        with faults.inject("diskcache.read:error"):
            with pytest.raises(CacheCorruptionError):
                faults.directive("diskcache.read")

    def test_env_var_activation_and_refresh(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ilp.solve:error")
        with pytest.raises(SolverBudgetError):
            faults.fire("ilp.solve")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "fm.eliminate:error")
        faults.fire("ilp.solve")  # re-read on raw-value change
        with pytest.raises(SolverBudgetError):
            faults.fire("fm.eliminate")
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        faults.fire("fm.eliminate")

    def test_programmatic_spec_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ilp.solve:error")
        with faults.inject("fm.eliminate:error"):
            faults.fire("ilp.solve")  # env spec masked
            with pytest.raises(SolverBudgetError):
                faults.fire("fm.eliminate")

    def test_determinism_same_spec_same_firing_pattern(self):
        def pattern():
            fired = []
            with faults.inject("ilp.solve:error#skip=1#limit=2"):
                for _ in range(5):
                    try:
                        faults.fire("ilp.solve")
                        fired.append(False)
                    except SolverBudgetError:
                        fired.append(True)
            return fired

        assert pattern() == pattern() == [False, True, True, False, False]


class TestThreadLocality:
    """Programmatic specs are per-thread: the compile service installs a
    request's fault_spec on its worker without poisoning siblings."""

    def test_spec_on_one_thread_is_invisible_to_another(self):
        import threading

        from repro.core.errors import SolverBudgetError

        installed = threading.Event()
        checked = threading.Event()
        sibling_fired = []

        def sibling():
            installed.wait(timeout=10)
            # This thread never set a spec; the site must stay silent.
            try:
                faults.fire("ilp.solve")
                sibling_fired.append(False)
            except SolverBudgetError:
                sibling_fired.append(True)
            checked.set()

        t = threading.Thread(target=sibling)
        t.start()
        faults.set_spec("ilp.solve:error")
        try:
            installed.set()
            assert checked.wait(timeout=10)
            # ... while the installing thread still sees it.
            with pytest.raises(SolverBudgetError):
                faults.fire("ilp.solve")
        finally:
            faults.set_spec(None)
        t.join()
        assert sibling_fired == [False]

    def test_env_spec_is_process_global(self, monkeypatch):
        import threading

        from repro.core.errors import SolverBudgetError

        monkeypatch.setenv("REPRO_FAULT_SPEC", "ilp.solve:error")
        hits = []

        def worker():
            try:
                faults.fire("ilp.solve")
                hits.append(False)
            except SolverBudgetError:
                hits.append(True)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hits == [True, True, True]

    def test_inject_restores_the_calling_threads_spec(self):
        faults.set_spec("fm.eliminate:error")
        try:
            with faults.inject("ilp.solve:error"):
                assert faults.current_spec() == "ilp.solve:error"
            assert faults.current_spec() == "fm.eliminate:error"
        finally:
            faults.set_spec(None)
        assert faults.current_spec() in (None, "")
