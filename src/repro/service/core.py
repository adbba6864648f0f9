"""The in-process compile service: one queue, one lock, one worker loop.

:class:`CompileService` is the heart of ``akgd``.  Callers
:meth:`~CompileService.submit` a :class:`ServiceRequest` and get a
:class:`Ticket` back immediately; a bounded pool of worker threads
drains the queue and fulfils each ticket with a :class:`ServiceResult`.
This module is the mechanics only: the bounded FIFO, the lifecycle, the
threads and the lock.  What a request *is* lives in
:mod:`repro.service.request`, what a worker does with it in
:mod:`repro.service.handlers`, and every decision about it in the four
objects of :mod:`repro.service.policies`, which the service calls with
its lock held and whose verdicts it turns into typed errors and counters.

**Queued requests always get a result.**  Admission failures raise typed
at the submitter; anything admitted is fulfilled — by a handler's
payload, by its failure (typed pipeline error, injected fault, even an
unexpected exception: the worker survives and the queue keeps draining),
by a deadline that expired in the queue, or by the supervisor's second
strike.  A request's ``fault_spec`` is installed thread-locally for the
duration of its execution only, so injected chaos cannot leak into a
sibling worker.
"""

from __future__ import annotations

import copy
import itertools
import logging
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core import faults
from repro.core.context import counters
from repro.core.errors import (
    QuarantinedError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
    StageTimeoutError,
)
from repro.service import handlers
from repro.service.policies import Admission, Breaker, Coalescer, Supervisor
from repro.service.request import ServiceRequest, ServiceResult

__all__ = ["ServiceRequest", "ServiceResult", "Ticket", "CompileService"]

_LOG = logging.getLogger("repro.service")


@dataclass(eq=False, slots=True)
class _InFlight:
    """Bookkeeping for one queued-or-running build (one per digest).

    ``waiters``/``cancelled`` belong to the
    :class:`~repro.service.policies.Coalescer`, ``epoch``/``requeues`` to
    the :class:`~repro.service.policies.Supervisor`.  ``deadline`` is the
    absolute end-to-end deadline on the service's clock (None =
    unbounded).  ``result`` is written once, under the service lock;
    ``event`` is set right after.
    """

    digest: Optional[str]
    qkey: Optional[str]
    request: ServiceRequest
    deadline: Optional[float]
    event: threading.Event = field(default_factory=threading.Event)
    enqueued_at: float = field(default_factory=time.perf_counter)
    result: Optional[ServiceResult] = None
    waiters: int = 1
    cancelled: bool = False
    epoch: int = 0
    requeues: int = 0


class Ticket:
    """A claim on one request's eventual result.

    ``result()`` blocks until the (possibly shared) build finishes and
    returns a per-ticket view of the :class:`ServiceResult` with the
    ``coalesced``/``cached`` flags describing *this* submission's path.
    A ``result(timeout)`` that times out *abandons* the ticket: the
    entry's waiter refcount drops, and once every coalesced waiter has
    walked away the queued build is cancelled rather than burnt.
    """

    __slots__ = ("_entry", "_done", "_service", "_abandoned", "coalesced", "cached")

    def __init__(
        self,
        entry: Optional[_InFlight],
        done: Optional[ServiceResult] = None,
        coalesced: bool = False,
        cached: bool = False,
        service: Optional["CompileService"] = None,
    ):
        self._entry = entry
        self._done = done
        self._service = service
        self._abandoned = False
        self.coalesced = coalesced
        self.cached = cached

    def done(self) -> bool:
        if self._done is not None:
            return True
        return self._entry.event.is_set()

    def abandon(self) -> None:
        """Walk away from this ticket (idempotent).

        Decrements the shared entry's waiter refcount; the last waiter
        to leave cancels the build if it has not started — the service
        will not spend a worker on a result nobody is waiting for.
        """
        if self._abandoned or self._done is not None:
            return
        self._abandoned = True
        self._service._abandon_entry(self._entry)

    def result(self, timeout: Optional[float] = None) -> ServiceResult:
        if self._done is None:
            if self._abandoned:
                raise ServiceError("ticket was abandoned")
            if not self._entry.event.wait(timeout):
                self.abandon()
                raise ServiceError(
                    f"timed out after {timeout}s waiting for request "
                    f"{self._entry.request!r}"
                )
            self._done = self._entry.result
        view = copy.copy(self._done)
        view.coalesced = self.coalesced
        view.cached = self.cached
        return view


#: Queue sentinel that tells one worker thread to exit.
_STOP = object()

#: Lifecycle: ``new`` (constructed, workers not started) → ``accepting``
#: → ``draining`` → ``stopped``.  The first two admit submissions and
#: both read as ``accepting`` through :attr:`CompileService.state`.
_ADMITTING = ("new", "accepting")

#: Real seconds between two supervisor scans (whatever the clock says).
SUPERVISE_INTERVAL = 0.05
#: Completed results the service memoises (least recently used out).
MEMO_SIZE = 128


class CompileService:
    """Bounded-queue, coalescing, multi-worker compile service.

    ``workers`` threads drain a queue of at most ``queue_size`` pending
    builds; the completed-result LRU holds ``MEMO_SIZE`` results; requests
    without a stage deadline of their own inherit
    ``default_stage_seconds``, so one pathological kernel times out typed
    instead of wedging a worker.  Constructed started;
    ``autostart=False`` defers the workers until :meth:`start` — tests
    use this to stage deterministic coalescing races.  Usable as a
    context manager (``close`` on exit).

    Fault-tolerance knobs: ``max_per_client`` caps one client's
    concurrently queued builds (None = no cap);
    ``quarantine_threshold``/``quarantine_cooldown`` configure the
    poison-kernel breaker; ``watchdog_seconds`` is how long one request
    may occupy a worker before the supervisor declares the worker stuck
    (None = only requests with their own deadline are supervised).

    ``clock`` is the monotonic clock of every time-dependent policy
    decision.  It exists so tests can drive deadlines, cool-downs and the
    watchdog by advancing a number instead of sleeping; nothing outside
    the tests passes it.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        queue_size: int = 256,
        default_stage_seconds: Optional[float] = 120.0,
        autostart: bool = True,
        max_per_client: Optional[int] = None,
        quarantine_threshold: int = 3,
        quarantine_cooldown: float = 30.0,
        watchdog_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.workers = workers or 4
        self.default_stage_seconds = default_stage_seconds
        self._clock = clock
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_size)
        self._lock = threading.Lock()
        self._admission = Admission(self.workers, max_per_client)
        self._coalescer = Coalescer(MEMO_SIZE)
        self._breaker = Breaker(quarantine_threshold, quarantine_cooldown)
        self._supervisor = Supervisor(watchdog_seconds)
        self._ids = itertools.count(1)
        self._worker_ids = itertools.count()
        self._threads: Dict[str, threading.Thread] = {}
        self._supervisor_thread: Optional[threading.Thread] = None
        self._state = "new"
        self._stopped = threading.Event()
        self._stats: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "coalesced": 0,
            "memo_hits": 0,
            "rejected": 0,
            "client_sheds": 0,
            "cancelled": 0,
            "deadline_expired": 0,
            "quarantine_trips": 0,
            "quarantine_blocked": 0,
            "quarantine_probes": 0,
            "supervisor_requeues": 0,
            "worker_restarts": 0,
            "stale_results": 0,
        }
        if autostart:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    @property
    def state(self) -> str:
        """Readiness: ``accepting`` | ``draining`` | ``stopped``."""
        return "accepting" if self._state == "new" else self._state

    def start(self) -> None:
        """Spin up the worker threads and the supervisor (idempotent)."""
        with self._lock:
            if self._state != "new":
                return
            self._state = "accepting"
        for _ in range(self.workers):
            self._spawn_worker()
        self._supervisor_thread = threading.Thread(
            target=self._supervisor_loop, name="akgd-supervisor", daemon=True
        )
        self._supervisor_thread.start()

    def _spawn_worker(self) -> None:
        name = f"akgd-worker-{next(self._worker_ids)}"
        t = threading.Thread(
            target=self._worker_loop, args=(name,), name=name, daemon=True
        )
        with self._lock:
            if self._state != "accepting":
                # Draining: the stop sentinels were counted without this
                # worker, so close() would join it forever.
                return
            # Started before the lock is released: close() joins every
            # thread it can see in ``_threads``.
            self._threads[name] = t
            t.start()

    def _stop(self) -> None:
        """Enter ``stopped`` and wake the supervisor (lock held)."""
        self._state = "stopped"
        self._stopped.set()

    def initiate_shutdown(self) -> None:
        """Stop admitting and begin the drain (idempotent, non-blocking).

        Every build already queued still completes — the stop sentinels
        sit behind them in the FIFO — so no accepted ticket is ever left
        hanging.  If the workers were never started, queued tickets are
        fulfilled immediately with a typed error instead of waiting for
        workers that will never come.
        """
        with self._lock:
            if self._state not in _ADMITTING:
                return
            started = self._state == "accepting"
            if started:
                self._state = "draining"
            else:
                self._stop()
            sentinels = len(self._threads)
        if not started:
            self._fail_queued()
            return
        for _ in range(sentinels):
            self._queue.put(_STOP)

    def close(self, wait: bool = True) -> None:
        """Drain and shut the workers down (idempotent).

        With ``wait=True`` this blocks until every queued build has been
        fulfilled and the workers have exited; pending tickets are never
        abandoned.  Zombie (stuck) workers are not waited on — they are
        daemon threads whose late results are discarded by epoch.
        """
        self.initiate_shutdown()
        if not wait:
            return
        with self._lock:
            threads = list(self._threads.values())
            supervisor = self._supervisor_thread
        for t in threads:
            if t is not threading.current_thread():
                t.join()
        with self._lock:
            self._stop()
        if supervisor is not None and supervisor is not threading.current_thread():
            supervisor.join(timeout=2.0)

    def _fail_queued(self) -> None:
        """Fulfil every entry still in the queue with a typed error."""
        message = "compile service stopped before executing this request"
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                return
            if entry is not _STOP:
                self._fail(entry, ServiceError(message))

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def submit(self, request: ServiceRequest) -> Ticket:
        """Enqueue (or coalesce, or memo-answer) one request.

        Raises typed errors at admission — the *submitter's* problem;
        queued requests always get a result:

        - :class:`~repro.core.errors.ServiceError` when the service is
          draining or stopped;
        - :class:`~repro.core.errors.ServiceOverloadError` (with a
          ``retry_after`` hint) when the queue is full or the client is
          over its fairness cap;
        - :class:`~repro.core.errors.QuarantinedError` when the
          request's kernel digest has tripped the poison breaker.
        """
        digest = request.coalescing_key()
        with self._lock:
            if self._state not in _ADMITTING:
                raise ServiceError(
                    f"compile service is {self._state}, not accepting requests"
                )
            self._stats["submitted"] += 1
            if digest is not None:
                memo = self._coalescer.memo_hit(digest)
                if memo is not None:
                    self._stats["memo_hits"] += 1
                    return Ticket(None, done=memo, cached=True)
                running = self._coalescer.attach(digest)
                if running is not None:
                    self._stats["coalesced"] += 1
                    return Ticket(running, coalesced=True, service=self)
            # Only a submission that will enqueue pays for the second digest.
            qkey = request.quarantine_key()
            now = self._clock()
            verdict = None
            if qkey is not None:
                verdict = self._breaker.admit(qkey, now)
                if verdict == "blocked":
                    self._stats["quarantine_blocked"] += 1
                    raise QuarantinedError(
                        f"kernel digest {qkey[:12]} is quarantined after "
                        f"{self._breaker.threshold} consecutive "
                        "timeouts/crashes",
                        kernel=request.name,
                        retry_after=round(self._breaker.retry_after(qkey, now), 3),
                    )
                if verdict == "probe":
                    self._stats["quarantine_probes"] += 1
            client = request.client_id
            if not self._admission.admit(client):
                if verdict == "probe":
                    self._breaker.release_probe(qkey)
                self._stats["client_sheds"] += 1
                raise ServiceOverloadError(
                    f"client {client!r} already has "
                    f"{self._admission.load[client]} builds queued "
                    f"(cap {self._admission.max_per_client})",
                    retry_after=self._admission.retry_after(self._queue.qsize()),
                )
            deadline = request.deadline_seconds
            entry = _InFlight(
                digest, qkey, request, None if deadline is None else now + deadline
            )
            try:
                # Under the lock: a worker that dequeues the entry at once
                # still finds it registered by the time it may look.
                self._queue.put_nowait(entry)
            except queue.Full:
                if verdict == "probe":
                    self._breaker.release_probe(qkey)
                self._admission.release(client)
                self._stats["rejected"] += 1
                raise ServiceOverloadError(
                    "compile service queue is full "
                    f"({self._queue.maxsize} pending)",
                    retry_after=self._admission.retry_after(self._queue.qsize()),
                )
            self._coalescer.register(entry)
        return Ticket(entry, service=self)

    def _abandon_entry(self, entry: _InFlight) -> None:
        """One waiter walked away; cancel the entry when none remain."""
        with self._lock:
            if entry.result is None:
                self._coalescer.abandon(entry)

    def run(
        self, request: ServiceRequest, timeout: Optional[float] = None
    ) -> ServiceResult:
        """Submit and block for the result (the daemon's per-connection path)."""
        return self.submit(request).result(timeout)

    def stats(self) -> Dict[str, Any]:
        """Counters plus live queue/memo/in-flight depths and health."""
        with self._lock:
            snap: Dict[str, Any] = dict(self._stats)
            snap["inflight"] = len(self._coalescer.inflight)
            snap["memo_entries"] = len(self._coalescer.memo)
            snap["state"] = self.state
            snap["live_workers"] = len(self._threads)
            # A replaced worker cannot be killed, only left behind.
            snap["zombie_workers"] = snap["worker_restarts"]
            snap["quarantine_open"] = self._breaker.open_count()
            snap["retry_after_hint"] = self._admission.retry_after(
                self._queue.qsize()
            )
            snap["clients_tracked"] = len(self._admission.load)
        snap["queue_depth"] = self._queue.qsize()
        snap["workers"] = self.workers
        snap["shapeclass"] = {"hits": 0, "misses": 0, **counters("shapeclass.")}
        return snap

    # -- execution ----------------------------------------------------------

    def _worker_loop(self, name: str) -> None:
        while True:
            entry = self._queue.get()
            try:
                if entry is _STOP:
                    return
                self._execute(entry, name)
            finally:
                self._queue.task_done()
            with self._lock:
                if name not in self._threads:
                    # The supervisor declared this worker stuck while it
                    # was executing; a replacement already took its slot.
                    return

    def _execute(self, entry: _InFlight, worker: str) -> None:
        request = entry.request
        with self._lock:
            epoch = entry.epoch
            cancelled = entry.cancelled
            if not cancelled:
                self._supervisor.begin(worker, entry, self._clock())
            elif entry.result is None:
                self._stats["cancelled"] += 1
        if cancelled:
            self._fail(
                entry,
                ServiceError("request cancelled: every waiter abandoned its ticket"),
            )
            return
        result = ServiceResult(request.kind, next(self._ids))
        started = time.perf_counter()
        result.queue_seconds = started - entry.enqueued_at
        try:
            if request.fault_spec:
                faults.set_spec(request.fault_spec)
            faults.fire("service.dispatch")
            remaining = None
            if entry.deadline is not None:
                remaining = entry.deadline - self._clock()
                if remaining < 0:
                    with self._lock:
                        self._stats["deadline_expired"] += 1
                    raise StageTimeoutError(
                        "request deadline expired before dispatch",
                        stage="service.dispatch",
                        kernel=request.name,
                        elapsed=time.perf_counter() - entry.enqueued_at,
                    )
            result.value = handlers.execute(
                request, remaining, self.default_stage_seconds
            )
            result.ok = True
        except Exception as exc:  # noqa: BLE001 - the daemon must survive
            if not isinstance(exc, ReproError):
                # The one place an untyped failure is seen whole: the
                # ticket gets its class and message, the log its traceback.
                _LOG.exception(
                    "request #%d (%s %r) failed with an untyped exception",
                    result.request_id,
                    request.kind,
                    request.name,
                )
            result.fail(exc)
        finally:
            if request.fault_spec:
                faults.set_spec(None)
            with self._lock:
                self._supervisor.end(worker)
        result.run_seconds = time.perf_counter() - started
        self._fulfil(entry, result, epoch)

    def _fulfil(
        self, entry: _InFlight, result: ServiceResult, epoch: int, ran: bool = True
    ) -> None:
        """Publish one execution's outcome (discarding stale epochs).

        ``ran=False``: the entry never reached a handler (cancelled or
        stopped in the queue).  That says nothing about its kernel, so
        the breaker records nothing -- but if the entry was the half-open
        probe, the next submission has to be.
        """
        with self._lock:
            if entry.result is not None or entry.epoch != epoch:
                self._stats["stale_results"] += 1
                return
            self._stats["completed" if result.ok else "failed"] += 1
            self._admission.observe(result.run_seconds)
            self._admission.release(entry.request.client_id)
            self._coalescer.complete(entry, result)
            if entry.qkey is not None:
                if not ran:
                    self._breaker.release_probe(entry.qkey)
                elif self._breaker.record(
                    entry.qkey, result.error_exc, self._clock()
                ):
                    self._stats["quarantine_trips"] += 1
            entry.result = result
        entry.event.set()

    # -- supervision --------------------------------------------------------

    def _supervisor_loop(self) -> None:
        while not self._stopped.wait(SUPERVISE_INTERVAL):
            with self._lock:
                if self._state == "draining" and not self._threads:
                    self._stop()
                if self._state == "stopped":
                    return
                verdicts = self._supervisor.scan(self._clock())
                for verdict, worker, _entry in verdicts:
                    self._threads.pop(worker, None)
                    self._stats["worker_restarts"] += 1
                    if verdict == "requeue":
                        self._stats["supervisor_requeues"] += 1
            for verdict, _worker, entry in verdicts:
                self._spawn_worker()
                if verdict == "requeue":
                    try:
                        self._queue.put_nowait(entry)
                    except queue.Full:
                        self._fail_stuck(entry)
                elif verdict == "fail":
                    self._fail_stuck(entry)

    def _fail_stuck(self, entry: _InFlight) -> None:
        """Second strike (or no room to retry): fail all waiters typed."""
        self._fail(
            entry,
            StageTimeoutError(
                "worker stuck past its watchdog deadline "
                f"(requeued {entry.requeues} time(s))",
                stage="service.worker",
                kernel=entry.request.name,
            ),
            ran=True,
        )

    def _fail(self, entry: _InFlight, exc: BaseException, ran: bool = False) -> None:
        """Fulfil ``entry`` with a failure the service decided on; ``ran``
        tells whether an execution (one that hung) stands behind it."""
        result = ServiceResult(entry.request.kind, next(self._ids)).fail(exc)
        self._fulfil(entry, result, entry.epoch, ran)
