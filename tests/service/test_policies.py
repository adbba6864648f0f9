"""The service's four policies, decision by decision.

No thread, no lock, no sleep: a policy is called the way the service
calls it, and where a decision depends on time the test advances a plain
number.  Entries are stand-ins with just the fields a policy reads.
"""

from types import SimpleNamespace

import pytest

from repro.core.errors import CodegenError, ServiceError, StageTimeoutError
from repro.service.policies import (
    SUPERVISE_GRACE,
    Admission,
    Breaker,
    Coalescer,
    Supervisor,
)


def _entry(digest="d", deadline=None):
    return SimpleNamespace(
        digest=digest,
        waiters=1,
        cancelled=False,
        result=None,
        epoch=0,
        requeues=0,
        deadline=deadline,
    )


TIMEOUT = StageTimeoutError("too slow")


class TestBreaker:
    def test_opens_at_threshold_blocks_probes_once_and_closes(self):
        breaker = Breaker(threshold=2, cooldown=30.0)
        assert breaker.admit("k", 0.0) is None
        assert breaker.record("k", TIMEOUT, 1.0) is False
        assert breaker.admit("k", 1.5) is None  # one strike: still closed
        assert breaker.record("k", TIMEOUT, 2.0) is True  # tripped
        assert breaker.open_count() == 1
        assert breaker.admit("k", 3.0) == "blocked"
        assert breaker.retry_after("k", 12.0) == 20.0
        assert breaker.admit("k", 31.9) == "blocked"
        assert breaker.admit("other", 3.0) is None  # per key
        # Cool-down over: exactly one half-open probe.
        assert breaker.admit("k", 32.0) == "probe"
        assert breaker.admit("k", 32.1) == "blocked"
        assert breaker.retry_after("k", 40.0) == 0.0
        assert breaker.record("k", None, 33.0) is False  # the probe passed
        assert breaker.open_count() == 0
        assert breaker.admit("k", 33.1) is None

    def test_failed_probe_reopens_with_a_fresh_cooldown(self):
        breaker = Breaker(threshold=1, cooldown=10.0)
        assert breaker.record("k", TIMEOUT, 0.0) is True
        assert breaker.admit("k", 10.0) == "probe"
        assert breaker.record("k", TIMEOUT, 11.0) is True
        assert breaker.admit("k", 20.9) == "blocked"  # counted from 11, not 0
        assert breaker.admit("k", 21.0) == "probe"

    def test_released_probe_is_handed_to_the_next_admit(self):
        """A probe the service then sheds (fairness cap, full queue) or
        cancels in the queue never reports back; without the release every
        later admit would find ``probing`` set and answer "blocked"."""
        breaker = Breaker(threshold=1, cooldown=10.0)
        breaker.release_probe("never seen")  # no circuit: nothing to do
        assert breaker.record("k", TIMEOUT, 0.0) is True
        assert breaker.admit("k", 10.0) == "probe"
        breaker.release_probe("k")
        assert breaker.open_count() == 1  # still open: nothing was learnt
        assert breaker.admit("k", 10.1) == "probe"
        assert breaker.admit("k", 10.2) == "blocked"
        assert breaker.record("k", None, 11.0) is False
        assert breaker.admit("k", 11.1) is None

    @pytest.mark.parametrize(
        "exc,counts",
        [
            (StageTimeoutError("slow"), True),
            (RuntimeError("crash"), True),
            (CodegenError("deterministic"), False),
            (ServiceError("deterministic"), False),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_only_timeouts_and_untyped_crashes_count(self, exc, counts):
        breaker = Breaker(threshold=1, cooldown=10.0)
        assert breaker.record("k", exc, 0.0) is counts
        assert breaker.open_count() == int(counts)

    def test_a_typed_failure_resets_the_streak(self):
        breaker = Breaker(threshold=2, cooldown=10.0)
        breaker.record("k", TIMEOUT, 0.0)
        breaker.record("k", CodegenError("deterministic"), 1.0)
        assert breaker.record("k", TIMEOUT, 2.0) is False  # streak restarted
        assert breaker.record("k", TIMEOUT, 3.0) is True


class TestAdmission:
    def test_cap_is_per_client_and_released(self):
        admission = Admission(workers=2, max_per_client=2)
        assert admission.admit("a") and admission.admit("a")
        assert not admission.admit("a")
        assert admission.load == {"a": 2}  # the refused one left no trace
        assert admission.admit("b")
        assert admission.admit(None)  # anonymous requests are never capped
        admission.release("a")
        assert admission.admit("a")
        for client in ("a", "a", "b", None):
            admission.release(client)
        assert admission.load == {}

    def test_no_cap_admits_everything(self):
        admission = Admission(workers=1)
        assert all(admission.admit("a") for _ in range(100))

    def test_retry_after_is_depth_times_average_over_workers(self):
        admission = Admission(workers=4)
        assert admission.retry_after(0) == 0.05  # nothing observed: the floor
        admission.observe(2.0)  # the first observation is the average
        assert admission.retry_after(0) == 0.5
        assert admission.retry_after(7) == 4.0
        admission.observe(1.0)  # ewma: 2.0 + 0.2 * (1.0 - 2.0)
        assert admission.retry_after(3) == 1.8

    def test_retry_after_never_drops_below_the_floor(self):
        admission = Admission(workers=8)
        admission.observe(0.001)
        assert admission.retry_after(0) == 0.05


class TestCoalescer:
    def test_attach_counts_waiters_and_last_abandon_cancels(self):
        coalescer = Coalescer(memo_size=4)
        entry = _entry("d")
        coalescer.register(entry)
        assert coalescer.attach("d") is entry and entry.waiters == 2
        assert coalescer.attach("other") is None
        assert coalescer.abandon(entry) is False  # one waiter left
        assert coalescer.inflight == {"d": entry} and not entry.cancelled
        assert coalescer.abandon(entry) is True
        assert entry.cancelled and coalescer.inflight == {}

    def test_a_cancelled_entry_attracts_no_coalescers(self):
        coalescer = Coalescer(memo_size=4)
        entry = _entry("d")
        coalescer.register(entry)
        entry.cancelled = True
        assert coalescer.attach("d") is None

    def test_evicting_an_old_entry_spares_its_successor(self):
        coalescer = Coalescer(memo_size=4)
        old, fresh = _entry("d"), _entry("d")
        coalescer.register(old)
        coalescer.abandon(old)
        coalescer.register(fresh)
        coalescer.complete(old, SimpleNamespace(ok=False))  # a late worker
        assert coalescer.attach("d") is fresh

    def test_only_ok_results_are_memoised(self):
        coalescer = Coalescer(memo_size=4)
        good, bad = SimpleNamespace(ok=True), SimpleNamespace(ok=False)
        for digest, result in (("g", good), ("b", bad), (None, good)):
            entry = _entry(digest)
            coalescer.register(entry)
            coalescer.complete(entry, result)
        assert coalescer.inflight == {}
        assert coalescer.memo_hit("g") is good
        assert coalescer.memo_hit("b") is None
        assert list(coalescer.memo) == ["g"]

    def test_memo_is_a_bounded_lru(self):
        coalescer = Coalescer(memo_size=2)
        for digest in ("a", "b"):
            coalescer.complete(_entry(digest), SimpleNamespace(ok=True))
        assert coalescer.memo_hit("a") is not None  # a is now the most recent
        coalescer.complete(_entry("c"), SimpleNamespace(ok=True))
        assert list(coalescer.memo) == ["a", "c"]


class TestSupervisor:
    def test_first_strike_requeues_second_fails(self):
        supervisor = Supervisor(watchdog_seconds=30.0)
        entry = _entry()
        supervisor.begin("w0", entry, 100.0)
        assert supervisor.scan(130.0 + SUPERVISE_GRACE) == []  # not yet overdue
        assert supervisor.scan(131.0) == [("requeue", "w0", entry)]
        assert (entry.epoch, entry.requeues) == (1, 1)
        assert supervisor.scan(1e9) == []  # the heartbeat is gone
        supervisor.begin("w1", entry, 131.0)
        assert supervisor.scan(162.0) == [("fail", "w1", entry)]
        assert (entry.epoch, entry.requeues) == (2, 1)

    def test_nobody_waiting_fails_instead_of_requeueing(self):
        supervisor = Supervisor(watchdog_seconds=1.0)
        entry = _entry()
        entry.cancelled = True
        supervisor.begin("w0", entry, 0.0)
        assert supervisor.scan(2.0) == [("fail", "w0", entry)]

    def test_a_stale_heartbeat_only_replaces_the_worker(self):
        supervisor = Supervisor(watchdog_seconds=1.0)
        fulfilled, reissued = _entry("f"), _entry("r")
        supervisor.begin("w0", fulfilled, 0.0)
        supervisor.begin("w1", reissued, 0.0)
        fulfilled.result = object()
        reissued.epoch += 1
        assert supervisor.scan(2.0) == [
            ("stale", "w0", fulfilled),
            ("stale", "w1", reissued),
        ]
        assert (reissued.epoch, reissued.requeues) == (1, 0)

    def test_a_worker_that_came_back_is_not_scanned(self):
        supervisor = Supervisor(watchdog_seconds=1.0)
        supervisor.begin("w0", _entry(), 0.0)
        supervisor.end("w0")
        supervisor.end("w0")  # idempotent
        assert supervisor.scan(100.0) == []

    def test_the_request_deadline_bounds_the_watchdog(self):
        supervisor = Supervisor(watchdog_seconds=30.0)
        entry = _entry(deadline=105.0)
        supervisor.begin("w0", entry, 100.0)
        assert supervisor.scan(105.0 + SUPERVISE_GRACE) == []
        assert supervisor.scan(105.3) == [("requeue", "w0", entry)]

    def test_no_deadline_no_watchdog_is_unsupervised(self):
        supervisor = Supervisor()
        supervisor.begin("w0", _entry(), 0.0)
        assert supervisor.scan(1e9) == []
        # ...but a request with its own deadline still is.
        entry = _entry(deadline=10.0)
        supervisor.begin("w1", entry, 0.0)
        assert supervisor.scan(11.0) == [("requeue", "w1", entry)]
