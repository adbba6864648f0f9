"""Budgets, deadlines, reports and the degradation ladder."""

import time

import pytest

from repro.core import faults, resilience
from repro.core.context import counters, stage
from repro.core.errors import ReproError, StageTimeoutError, TilingError
from repro.core.resilience import (
    ResilienceReport,
    StageBudget,
    with_fallback,
)


class TestStageScopes:
    def test_no_scope_no_stage(self):
        assert resilience.active_stage() is None
        resilience.check_deadline()  # no-op, must not raise

    def test_nesting_and_unwind(self):
        with stage("outer"):
            assert resilience.active_stage() == "outer"
            with stage("inner"):
                assert resilience.active_stage() == "inner"
            assert resilience.active_stage() == "outer"
        assert resilience.active_stage() is None

    def test_unbudgeted_scope_never_times_out(self):
        with stage("free"):
            resilience.check_deadline()

    def test_expired_deadline_raises_typed(self):
        with stage("s", StageBudget(stage_seconds=30.0)):
            assert resilience.backdate_deadline()
            with pytest.raises(StageTimeoutError) as info:
                resilience.check_deadline()
        assert info.value.stage == "s"
        assert info.value.elapsed is not None

    def test_inner_scope_cannot_outlive_outer_deadline(self):
        # check_deadline walks every enclosing frame: a fresh ladder-rung
        # scope does not shield code from the parent stage's deadline.
        with stage("outer", StageBudget(stage_seconds=30.0)):
            assert resilience.backdate_deadline()
            with stage("outer[fallback]"):
                with pytest.raises(StageTimeoutError):
                    resilience.check_deadline()

    def test_budget_inheritance(self):
        budget = StageBudget(solver_nodes=123, fm_constraints=456)
        assert resilience.solver_node_budget(999) == 999
        with stage("outer", budget):
            # budget=None inherits the innermost active budget
            with stage("inner"):
                assert resilience.solver_node_budget(999) == 123
                assert resilience.fm_constraint_budget(999) == 456
        assert resilience.fm_constraint_budget(999) == 999

    def test_backdate_without_deadline_returns_false(self):
        with stage("free"):
            assert not resilience.backdate_deadline()


class TestReports:
    def test_collect_records_events(self):
        with resilience.collect() as report:
            resilience.note_event("x", "fallback", fallback="plan-b")
        assert report.events == [
            {"stage": "x", "kind": "fallback", "fallback": "plan-b"}
        ]
        assert report.degraded
        assert report.summary() == ["x: fallback -> plan-b"]

    def test_nested_collect_shares_the_outer_report(self):
        with resilience.collect() as outer:
            with resilience.collect() as inner:
                assert inner is outer
                resilience.note_event("y", "recovered")
        assert outer.events[0]["kind"] == "recovered"
        assert not outer.degraded  # recoveries are not degradation

    def test_dedupe_suppresses_report_floods_not_counters(self):
        with resilience.collect() as report:
            for _ in range(5):
                resilience.note_event(
                    "exec", "fallback", fallback="scalar", dedupe=True
                )
        assert len(report.events) == 1
        assert counters("resilience.")["exec.fallback:scalar"] == 5

    def test_events_without_active_report_still_count(self):
        resilience.note_event("z", "fallback", fallback="f")
        assert counters("resilience.")["z.fallback:f"] == 1

    def test_report_is_picklable(self):
        import pickle

        report = ResilienceReport()
        report.add("s", "gave_up", error="TilingError")
        clone = pickle.loads(pickle.dumps(report))
        assert clone.events == report.events and clone.degraded


class TestLadder:
    def test_primary_success_records_nothing(self):
        with resilience.collect() as report:
            out = with_fallback("s", ("primary", lambda: 42))
        assert out == 42
        assert report.events == []

    def test_typed_failure_steps_down(self):
        def bad():
            raise TilingError("no fit")

        with resilience.collect() as report:
            out = with_fallback(
                "s", ("auto", bad), ("static", lambda: "fallback-value")
            )
        assert out == "fallback-value"
        [event] = report.events
        assert event["kind"] == "fallback"
        assert event["fallback"] == "static"
        assert event["error"] == "TilingError"

    def test_untyped_failure_propagates_immediately(self):
        def bug():
            raise IndexError("genuine bug")

        with pytest.raises(IndexError), resilience.collect():
            with_fallback("s", ("auto", bug), ("static", lambda: 1))

    def test_all_rungs_fail_reraises_last_typed_error(self):
        def bad_a():
            raise TilingError("a")

        def bad_b():
            raise ReproError("b")

        with resilience.collect() as report:
            with pytest.raises(ReproError, match="b"):
                with_fallback("s", ("a", bad_a), ("b", bad_b))
        assert report.events[-1]["kind"] == "gave_up"
        assert report.degraded

    def test_fallback_rung_gets_a_fresh_deadline(self):
        seen = []

        def bad():
            raise ReproError("burn the budget")

        def probe():
            seen.append(resilience.active_stage())
            resilience.check_deadline()  # fresh deadline: must not raise
            return "ok"

        with stage("s", StageBudget(stage_seconds=30.0)):
            resilience.backdate_deadline()  # primary "used up" the stage
            # The ladder re-arms the stage it runs in before the rung; a
            # frame the rung merely nested could never bind (it expires
            # after its parent) and would not shield it either.
            out = with_fallback("s", ("p", bad), ("q", probe))
            assert 29.0 < resilience.remaining_deadline() <= 30.0
        assert out == "ok"
        assert seen == ["s[q]"]

    def test_rung_cannot_outlive_an_absolute_deadline(self):
        # The ladder re-arms budgeted stages only; the request's deadline
        # is absolute and still stops every rung.
        def bad():
            raise ReproError("primary failed")

        with resilience.collect() as report:
            with stage("service.request", deadline=time.monotonic() - 1.0):
                with stage("s", StageBudget(stage_seconds=30.0)):
                    with pytest.raises(StageTimeoutError) as info:
                        with_fallback("s", ("p", bad), ("q", lambda: "ok"))
        assert info.value.stage == "service.request"
        assert [e["kind"] for e in report.events] == ["gave_up"]


class TestLadderInABuild:
    """The scheduling ladder under a real compile (a relu beside its
    mirrored copy: the Pluto rung poses the ILP, and the identity-only
    rung reaches a cooperative deadline check)."""

    @pytest.fixture(autouse=True)
    def _cold(self):
        from repro.poly.cache import clear_solver_caches
        clear_solver_caches()  # a memoized solve never reaches the site
        faults.set_spec("ilp.solve:delay@frontend.schedule#limit=1")
        yield
        faults.set_spec(None)

    @staticmethod
    def _build():
        from repro.core.compiler import AkgOptions, build
        from repro.service.wire import demo_kernel

        from tests.sched.test_scheduler import mirrored

        options = AkgOptions(budget=StageBudget(stage_seconds=60.0))
        outputs = mirrored(demo_kernel("relu", [16, 12]))
        return build(outputs, "ladder", options=options)

    def test_timed_out_primary_reaches_the_middle_rung(self):
        assert self._build().resilience.summary() == [
            "frontend.schedule: fallback -> identity-only (StageTimeoutError)"
        ]

    def test_no_rung_outlives_an_expired_request(self):
        with resilience.collect() as report:
            with stage("service.request", deadline=time.monotonic() - 1.0):
                with pytest.raises(StageTimeoutError) as info:
                    self._build()
        assert info.value.stage == "service.request"
        assert not any(e["kind"] == "fallback" for e in report.events)


def test_fusion_fault_takes_the_fusionless_rung():
    from repro.core.compiler import build
    from repro.service.wire import demo_kernel
    with faults.inject("fusion.posttile:error"):
        result = build(demo_kernel("relu", [16, 24]), "fusionless")
    assert (
        "backend.fusion: fallback -> fusionless (FusionError)"
        in result.resilience.summary()
    )
