"""Service-grade fault tolerance: admission control, deadlines,
quarantine, worker supervision, ticket abandonment and graceful drain."""

import threading
import time

import pytest

from repro.core import faults
from repro.core.context import stage
from repro.core.errors import (
    QuarantinedError,
    ServiceError,
    ServiceOverloadError,
    exit_code_for,
)
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.service import CompileService, ServiceRequest
from repro.service.handlers import effective_options


def _matmul(m=24):
    a = placeholder((m, m), "fp16", name="A")
    b = placeholder((m, m), "fp16", name="B")
    return ops.matmul(a, b, name="out")


def _mirrored_matmul(m=24):
    """A matmul beside its mirrored copy: dependence analysis poses the
    ILP (``tests.sched.test_scheduler.mirrored``)."""
    from tests.sched.test_scheduler import mirrored

    return mirrored(_matmul(m))


def _relu(shape=(16, 24)):
    x = placeholder(shape, "fp16", name="X")
    return ops.relu(x, name="out")


class TestAdmissionControl:
    def test_queue_full_sheds_with_retry_after(self):
        with CompileService(workers=1, queue_size=1, autostart=False) as svc:
            held = svc.submit(ServiceRequest("compile", _matmul(16), name="q1"))
            with pytest.raises(ServiceOverloadError) as ei:
                svc.submit(ServiceRequest("compile", _matmul(32), name="q2"))
            assert ei.value.retry_after > 0
            assert exit_code_for(ei.value) == 14
            stats = svc.stats()
            assert stats["rejected"] == 1
            # The shed submission left no residue: not in-flight, not
            # counted against any client.
            assert stats["inflight"] == 1
            svc.start()
            assert held.result(timeout=300).ok

    def test_shed_is_still_a_service_error(self):
        """Pre-taxonomy callers catching ServiceError keep working."""
        with CompileService(workers=1, queue_size=1, autostart=False) as svc:
            svc.submit(ServiceRequest("compile", _matmul(16), name="s1"))
            with pytest.raises(ServiceError):
                svc.submit(ServiceRequest("compile", _matmul(32), name="s2"))
            svc.start()

    def test_per_client_fairness_cap(self):
        with CompileService(workers=1, autostart=False, max_per_client=1) as svc:
            t1 = svc.submit(
                ServiceRequest("compile", _matmul(16), name="fa", client_id="a")
            )
            with pytest.raises(ServiceOverloadError):
                svc.submit(
                    ServiceRequest(
                        "compile", _matmul(32), name="fb", client_id="a"
                    )
                )
            # A different client is not starved by a's cap.
            t2 = svc.submit(
                ServiceRequest("compile", _matmul(32), name="fb", client_id="b")
            )
            assert svc.stats()["client_sheds"] == 1
            svc.start()
            assert t1.result(timeout=300).ok
            assert t2.result(timeout=300).ok
            # The cap is released once the build completes.
            t3 = svc.submit(
                ServiceRequest("compile", _relu(), name="fc", client_id="a")
            )
            assert t3.result(timeout=300).ok

    def test_retry_after_hint_in_stats(self):
        with CompileService(workers=2) as svc:
            assert svc.stats()["retry_after_hint"] > 0


class TestDeadlines:
    def test_expired_in_queue_fails_fast(self, fake_clock):
        with CompileService(workers=1, autostart=False, clock=fake_clock) as svc:
            t = svc.submit(
                ServiceRequest(
                    "compile", _matmul(), name="dl", deadline_seconds=0.01
                )
            )
            fake_clock.advance(0.05)
            svc.start()
            res = t.result(timeout=60)
            assert not res.ok
            assert res.error["type"] == "StageTimeoutError"
            assert svc.stats()["deadline_expired"] == 1

    def test_deadline_clamps_stage_budget(self):
        """The end-to-end deadline bounds every stage's budget: a stage
        can never be granted more time than the whole request has left."""
        req = ServiceRequest("compile", _relu(), deadline_seconds=5.0)
        with stage("service.request", deadline=time.monotonic() + 2.0):
            options = effective_options(req, 120.0)
        assert options.budget.stage_seconds <= 2.0

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ServiceError):
            ServiceRequest("compile", _relu(), deadline_seconds=0.0)

    def test_generous_deadline_compiles_fine(self):
        with CompileService(workers=1) as svc:
            res = svc.run(
                ServiceRequest(
                    "compile", _relu(), name="roomy", deadline_seconds=300.0
                ),
                timeout=300,
            )
            assert res.ok


class TestQuarantine:
    def test_breaker_trips_blocks_and_probes(self, fake_clock):
        with CompileService(
            workers=1,
            quarantine_threshold=2,
            default_stage_seconds=5.0,
            clock=fake_clock,
        ) as svc:

            def poison():
                return ServiceRequest(
                    "compile",
                    _mirrored_matmul(),
                    name="poison",
                    fault_spec="ilp.solve:delay",
                )

            first = svc.run(poison(), timeout=300)
            assert not first.ok
            assert first.error["type"] == "StageTimeoutError"
            second = svc.run(poison(), timeout=300)
            assert not second.ok
            # Two consecutive timeouts for this IR digest: breaker open.
            # The clean request is blocked too — the breaker keys the
            # *kernel*, not the fault spec.
            with pytest.raises(QuarantinedError) as ei:
                svc.submit(ServiceRequest("compile", _mirrored_matmul(), name="poison"))
            assert ei.value.retry_after > 0
            assert exit_code_for(ei.value) == 15
            stats = svc.stats()
            assert stats["quarantine_trips"] == 1
            assert stats["quarantine_blocked"] == 1
            assert stats["quarantine_open"] == 1
            # Other kernels keep compiling while one digest is poisoned.
            healthy = svc.run(
                ServiceRequest("compile", _relu(), name="healthy"), timeout=300
            )
            assert healthy.ok
            # After the (default 30 s) cool-down one half-open probe goes
            # through; its success closes the breaker.
            fake_clock.advance(30.5)
            probe = svc.run(
                ServiceRequest("compile", _mirrored_matmul(), name="poison"),
                timeout=300,
            )
            assert probe.ok
            stats = svc.stats()
            assert stats["quarantine_probes"] == 1
            assert stats["quarantine_open"] == 0

    @pytest.mark.parametrize("shed_by", ["fairness cap", "full queue", "cancel"])
    def test_probe_that_never_runs_hands_the_probe_on(
        self, shed_by, fake_clock, worker_arrivals, monkeypatch
    ):
        """The half-open probe is shed at admission, or cancelled in the
        queue: the next submission after the cool-down is the probe (it
        used to be blocked for good, ``probing`` never cleared)."""
        release = threading.Event()
        fire = faults.fire  # worker_arrivals' reporting wrapper

        def fire_and_hold(site, detail=""):
            fire(site, detail)
            if site == "service.worker":
                release.wait(60)

        def clean(client=None):
            return ServiceRequest(
                "compile", _matmul(), name="poison", client_id=client
            )

        with CompileService(
            workers=1,
            queue_size=1,
            max_per_client=1,
            quarantine_threshold=1,
            default_stage_seconds=5.0,
            clock=fake_clock,
        ) as svc:
            # Times out whatever the solver memo holds: the injected
            # overrun is of the request's own deadline.
            poisoned = ServiceRequest(
                "compile",
                _matmul(),
                name="poison",
                fault_spec="service.worker:delay",
                deadline_seconds=60.0,
            )
            assert not svc.run(poisoned, timeout=300).ok
            worker_arrivals.get(timeout=60)
            assert svc.stats()["quarantine_open"] == 1
            fake_clock.advance(30.5)

            # Client "a" occupies the only worker and its whole fair share.
            monkeypatch.setattr(faults, "fire", fire_and_hold)
            held = svc.submit(
                ServiceRequest("compile", _relu(), name="held", client_id="a")
            )
            worker_arrivals.get(timeout=60)
            if shed_by == "fairness cap":
                with pytest.raises(ServiceOverloadError):
                    svc.submit(clean(client="a"))
                assert svc.stats()["client_sheds"] == 1
            elif shed_by == "full queue":
                filler = svc.submit(
                    ServiceRequest("compile", _relu((8, 8)), name="filler")
                )
                with pytest.raises(ServiceOverloadError):
                    svc.submit(clean())
                assert svc.stats()["rejected"] == 1
            else:
                svc.submit(clean()).abandon()
            assert svc.stats()["quarantine_probes"] == 1
            release.set()
            assert held.result(timeout=300).ok
            if shed_by == "full queue":
                assert filler.result(timeout=300).ok

            probe = svc.run(clean(client="b"), timeout=300)
            assert probe.ok
            stats = svc.stats()
            assert stats["quarantine_probes"] == 2
            assert stats["quarantine_blocked"] == 0
            assert stats["quarantine_open"] == 0
            assert stats["cancelled"] == (1 if shed_by == "cancel" else 0)

    def test_deterministic_typed_errors_do_not_quarantine(self):
        """A kernel that fails *deterministically* with a typed pipeline
        error is the request's problem — it must not be quarantined."""
        with CompileService(
            workers=1, quarantine_threshold=2, default_stage_seconds=5.0
        ) as svc:
            for _ in range(4):
                res = svc.run(
                    ServiceRequest(
                        "compile",
                        _matmul(),
                        name="det",
                        fault_spec="service.dispatch:error",
                    ),
                    timeout=300,
                )
                assert not res.ok
            stats = svc.stats()
            assert stats["quarantine_trips"] == 0
            assert stats["quarantine_open"] == 0


class TestSupervision:
    # The watchdog is tens of seconds on a clock only the test moves: a
    # healthy build can never be declared stuck by host load, and a hung
    # one is declared stuck the moment the test says its time is up.

    def test_stuck_worker_requeued_once_and_succeeds(
        self, monkeypatch, fake_clock, worker_arrivals
    ):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "service.worker:hang#limit=1")
        with CompileService(
            workers=1, watchdog_seconds=30.0, clock=fake_clock
        ) as svc:
            ticket = svc.submit(ServiceRequest("compile", _relu(), name="stuck"))
            worker_arrivals.get(timeout=60)  # the hang has the worker
            fake_clock.advance(31.0)
            res = ticket.result(timeout=60)
            assert res.ok
            stats = svc.stats()
            assert stats["supervisor_requeues"] == 1
            assert stats["worker_restarts"] >= 1
            assert stats["zombie_workers"] >= 1
            # The replacement keeps the pool at strength.
            assert stats["live_workers"] >= 1

    def test_stuck_twice_fails_typed(self, monkeypatch, fake_clock, worker_arrivals):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "service.worker:hang#limit=2")
        with CompileService(
            workers=1, watchdog_seconds=30.0, clock=fake_clock
        ) as svc:
            ticket = svc.submit(ServiceRequest("compile", _relu(), name="stuck2"))
            for _strike in range(2):
                worker_arrivals.get(timeout=60)
                fake_clock.advance(31.0)
            res = ticket.result(timeout=60)
            assert not res.ok
            assert res.error["type"] == "StageTimeoutError"
            assert "stuck" in res.error["message"]
            assert svc.stats()["supervisor_requeues"] == 1

    def test_healthy_requests_unsupervised_without_watchdog(self):
        with CompileService(workers=1) as svc:
            res = svc.run(
                ServiceRequest("compile", _relu(), name="calm"), timeout=300
            )
            assert res.ok
            stats = svc.stats()
            assert stats["supervisor_requeues"] == 0
            assert stats["worker_restarts"] == 0


class TestAbandonment:
    def test_last_abandon_cancels_queued_entry(self):
        with CompileService(workers=1, autostart=False) as svc:
            t1 = svc.submit(ServiceRequest("compile", _matmul(), name="ab"))
            t2 = svc.submit(ServiceRequest("compile", _matmul(), name="ab"))
            assert t2.coalesced
            assert svc.stats()["inflight"] == 1
            t1.abandon()
            # One waiter left: the entry stays live (and visible).
            assert svc.stats()["inflight"] == 1
            t2.abandon()
            # Fully abandoned: evicted, not overcounted as in-flight.
            assert svc.stats()["inflight"] == 0
            svc.start()
            svc.close(wait=True)
            assert svc.stats()["cancelled"] == 1

    def test_result_timeout_abandons(self):
        with CompileService(workers=1, autostart=False) as svc:
            t = svc.submit(ServiceRequest("compile", _matmul(), name="to"))
            with pytest.raises(ServiceError):
                t.result(timeout=0.02)
            assert svc.stats()["inflight"] == 0
            with pytest.raises(ServiceError):
                t.result(timeout=0.02)  # an abandoned ticket stays dead
            svc.start()

    def test_abandon_after_completion_is_noop(self):
        with CompileService(workers=1) as svc:
            t = svc.submit(ServiceRequest("compile", _relu(), name="late"))
            res = t.result(timeout=300)
            assert res.ok
            t.abandon()
            assert t.result(timeout=1).ok

    def test_new_submission_after_cancellation_builds_fresh(self):
        with CompileService(workers=1, autostart=False) as svc:
            old = svc.submit(ServiceRequest("compile", _matmul(), name="re"))
            old.abandon()
            fresh = svc.submit(ServiceRequest("compile", _matmul(), name="re"))
            assert not fresh.coalesced
            svc.start()
            assert fresh.result(timeout=300).ok


class TestShutdownPaths:
    def test_graceful_drain_fulfils_queued_and_inflight(self):
        svc = CompileService(workers=2)
        tickets = [
            svc.submit(ServiceRequest("compile", _matmul(m), name=f"dr{m}"))
            for m in (16, 24, 32)
        ]
        svc.initiate_shutdown()
        assert svc.state in ("draining", "stopped")
        with pytest.raises(ServiceError):
            svc.submit(ServiceRequest("compile", _relu(), name="late"))
        results = [t.result(timeout=300) for t in tickets]
        assert all(r.ok for r in results)
        svc.close(wait=True)
        assert svc.state == "stopped"

    def test_shutdown_with_inflight_coalesced_group(self):
        svc = CompileService(workers=1, autostart=False)
        tickets = [
            svc.submit(ServiceRequest("compile", _matmul(), name="grp"))
            for _ in range(5)
        ]
        svc.start()
        svc.initiate_shutdown()
        results = [t.result(timeout=300) for t in tickets]
        assert all(r.ok for r in results)
        assert len({r.request_id for r in results}) == 1
        svc.close(wait=True)

    def test_close_with_full_queue_fulfils_everything(self):
        svc = CompileService(workers=1, queue_size=4, autostart=False)
        tickets = [
            svc.submit(
                ServiceRequest("compile", _relu((8, 8 + 4 * i)), name=f"fq{i}")
            )
            for i in range(4)
        ]
        svc.start()
        svc.close(wait=True)
        results = [t.result(timeout=10) for t in tickets]
        assert all(r.ok for r in results)

    def test_unstarted_close_fails_tickets_typed(self):
        svc = CompileService(workers=1, autostart=False)
        t = svc.submit(ServiceRequest("compile", _matmul(), name="never"))
        svc.close(wait=True)
        res = t.result(timeout=5)
        assert not res.ok
        assert res.error["type"] == "ServiceError"
        assert res.error["exit_code"] == 12
        assert svc.state == "stopped"

    def test_double_close_is_idempotent(self):
        svc = CompileService(workers=1)
        svc.close(wait=True)
        svc.close(wait=True)
        svc.close(wait=False)
        assert svc.state == "stopped"
        with pytest.raises(ServiceError):
            svc.submit(ServiceRequest("compile", _relu(), name="dead"))
