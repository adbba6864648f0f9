"""The in-process compile service: queue, coalescing, worker pool.

:class:`CompileService` is the heart of ``akgd``.  Callers
:meth:`~CompileService.submit` a :class:`ServiceRequest` and get a
:class:`Ticket` back immediately; a bounded pool of worker threads
drains the queue and fulfils each ticket with a :class:`ServiceResult`.
Three properties make it a *service* rather than a loop:

**In-flight coalescing.**  Every fingerprintable request carries a
content digest (the same IR/hw/options fingerprints the disk cache keys
off).  While a build for digest D is queued or running, further
submissions of D attach to it instead of enqueueing — N concurrent
clients compiling the same kernel cost one compilation, and all N
tickets resolve to the same result object (bit-identical by
construction).  Completed results additionally stay in a bounded
in-memory memo, so a warm service answers repeats without touching the
queue at all (no unpickling, no re-simulation — this, not thread
parallelism, is where the measured throughput win comes from; the
workers themselves are GIL-bound).

**Failure isolation.**  A request that fails — typed pipeline error,
injected fault, even an unexpected exception — fulfils *its* ticket
with an error result carrying the class name, message and documented
exit code.  The worker thread survives, the queue keeps draining, and
concurrent requests are untouched.  Requests with a ``fault_spec``
install it thread-locally for the duration of their execution
(:mod:`repro.tools.faultinject`), so injected chaos cannot leak into a
sibling worker, and such requests are never coalesced or memoized.

**Service-grade fault tolerance.**  Beyond per-request isolation the
service defends *itself*:

- *Admission control*: the queue is bounded and a full queue (or a
  client over its fairness cap) sheds the submission with a typed
  :class:`~repro.core.errors.ServiceOverloadError` carrying a computed
  ``retry_after`` hint — queued requests always get a result, shed ones
  fail fast at the submitter.
- *End-to-end deadlines*: a request's ``deadline_seconds`` becomes an
  absolute wall-clock deadline pushed onto the resilience stack around
  the whole execution (and clamped into the per-stage budget), so the
  cooperative :func:`~repro.core.resilience.check_deadline` machinery
  enforces the *request's* deadline, not just each stage's.  Requests
  that expire while still queued fail fast without touching a handler.
- *Poison-kernel quarantine*: a circuit breaker keyed by IR digest
  counts consecutive timeouts/crashes; at the threshold it opens and
  further requests for that digest fail immediately with
  :class:`~repro.core.errors.QuarantinedError` until a cool-down
  elapses, after which exactly one half-open probe is let through.
- *Worker supervision*: every execution stamps a heartbeat with a
  watchdog deadline; a supervisor thread declares overdue workers
  stuck, requeues their entry at most once (with an epoch bump so the
  zombie's late result is discarded), fails the waiters typed on the
  second strike, and starts replacement workers.
- *Graceful drain*: the service moves ``accepting → draining →
  stopped``; draining rejects new work typed while every already-queued
  ticket is still fulfilled (the stop sentinels sit behind them in the
  FIFO).

**Budget enforcement.**  Requests without an explicit stage deadline
inherit the service default (``default_stage_seconds``), so one
pathological kernel times out with a typed per-request error instead of
wedging a worker forever.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import queue
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

# The tune budget applied when a tune request does not override it; its
# values are part of the tune coalescing_key.
from repro.autotune.tuner import DEFAULT_TUNE_PARAMS
from repro.core.errors import (
    QuarantinedError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
    StageTimeoutError,
    exit_code_for,
)
from repro.tools import perf

__all__ = ["ServiceRequest", "ServiceResult", "Ticket", "CompileService"]

#: Request kinds the service executes.
KINDS = ("compile", "tune", "replay")


@functools.lru_cache(maxsize=None)
def _default_hw_fingerprint() -> str:
    """``hw_fingerprint(HardwareSpec())``, rendered once per process."""
    from repro.core import diskcache
    from repro.hw.spec import HardwareSpec

    return diskcache.hw_fingerprint(HardwareSpec())


class ServiceRequest:
    """One unit of work for the service.

    ``outputs`` is the tensor-expression DAG exactly as
    :func:`repro.core.compiler.build` accepts it.  ``options``/``hw``
    default like the direct pipeline entry points.  ``fault_spec``, when
    set, is installed thread-locally around this request's execution
    only.  ``inputs`` (replay) maps input names to arrays; when None the
    replay handler draws seeded random inputs, so a wire client can
    request a reproducible replay without shipping tensors.  ``bindings``
    (replay of a shape-generic kernel) maps symbolic dim names to the
    concrete values to replay at — compile and tune requests ignore it,
    which is exactly what lets different batch sizes of one shape class
    coalesce into a single build.  ``deadline_seconds`` is the request's
    end-to-end wall-clock allowance, measured from submission;
    ``client_id`` attributes the request to one client for the optional
    per-client fairness cap.

    A request is a value: :meth:`coalescing_key` and
    :meth:`quarantine_key` share one rendering of the IR and hardware
    fingerprints, made when the first of them is called, so ``outputs``
    and ``hw`` must not be mutated afterwards.
    """

    __slots__ = (
        "kind",
        "outputs",
        "name",
        "hw",
        "options",
        "fault_spec",
        "tune_params",
        "inputs",
        "seed",
        "engine",
        "bindings",
        "deadline_seconds",
        "client_id",
        "_fingerprints",
    )

    def __init__(
        self,
        kind: str,
        outputs: Any,
        name: str = "kernel",
        hw: Any = None,
        options: Any = None,
        fault_spec: Optional[str] = None,
        tune_params: Optional[Dict[str, Any]] = None,
        inputs: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        engine: str = "auto",
        bindings: Optional[Dict[str, int]] = None,
        deadline_seconds: Optional[float] = None,
        client_id: Optional[str] = None,
    ):
        if kind not in KINDS:
            raise ServiceError(f"unknown request kind {kind!r} (known: {KINDS})")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ServiceError(
                f"deadline_seconds must be positive, got {deadline_seconds!r}"
            )
        self.kind = kind
        self.outputs = outputs
        self.name = name
        self.hw = hw
        self.options = options
        self.fault_spec = fault_spec
        self.tune_params = tune_params
        self.inputs = inputs
        self.seed = seed
        self.engine = engine
        self.bindings = bindings
        self.deadline_seconds = deadline_seconds
        self.client_id = client_id
        self._fingerprints: Optional[Tuple[str, str]] = None

    def _kernel_fingerprints(self) -> Optional[Tuple[str, str]]:
        """``(ir, hw)`` fingerprints, rendered once per request.

        ``None`` when either is unfingerprintable.  Only the default
        hardware's fingerprint outlives the request: an explicit ``hw``
        object is mutable, so it is rendered anew for every request.
        """
        if self._fingerprints is None:
            from repro.core import diskcache

            try:
                self._fingerprints = (
                    diskcache.ir_fingerprint(self.outputs),
                    diskcache.hw_fingerprint(self.hw)
                    if self.hw is not None
                    else _default_hw_fingerprint(),
                )
            except diskcache.FingerprintError:
                return None
        return self._fingerprints

    def coalescing_key(self) -> Optional[str]:
        """Content digest under which concurrent duplicates merge.

        Mirrors the disk-cache key composition (IR + hardware + scheduler
        + backend options fingerprints) extended with the request kind and
        kind-specific parameters.  ``None`` — unfingerprintable IR, or a
        ``fault_spec`` request (injected faults are per-request by
        definition; sharing a faulted build would leak the fault into an
        innocent ticket) — disables coalescing and memoization.
        """
        if self.fault_spec:
            return None
        from repro.core import diskcache
        from repro.core.compiler import AkgOptions

        fingerprints = self._kernel_fingerprints()
        if fingerprints is None:
            return None
        ir_fp, hw_fp = fingerprints
        options = self.options or AkgOptions()
        try:
            parts = [
                "service",
                self.kind,
                ir_fp,
                self.name,
                hw_fp,
                diskcache.scheduler_fingerprint(options.scheduler),
                diskcache.options_fingerprint(options),
            ]
        except diskcache.FingerprintError:
            return None
        if getattr(options, "verify", False):
            # ``verify`` is excluded from the options fingerprint (it does
            # not change the artefact), but a verify ticket must not be
            # answered by a coalesced unverified build.
            parts.append("verify")
        if self.kind == "tune":
            merged = dict(DEFAULT_TUNE_PARAMS)
            merged.update(self.tune_params or {})
            parts.append(repr(sorted(merged.items())))
        elif self.kind == "replay":
            parts.append(f"engine={self.engine}")
            if self.bindings:
                parts.append(f"bindings={sorted(self.bindings.items())}")
            if self.inputs is None:
                parts.append(f"seed={self.seed}")
            else:
                for iname in sorted(self.inputs):
                    array = self.inputs[iname]
                    h = hashlib.sha256(array.tobytes()).hexdigest()
                    parts.append(f"{iname}:{array.dtype}:{array.shape}:{h}")
        return diskcache.digest(*parts)

    def quarantine_key(self) -> Optional[str]:
        """The poison-kernel breaker's digest: the *kernel*, not the job.

        Deliberately coarser than :meth:`coalescing_key` — just IR +
        hardware, without options, kind parameters or the fault spec — so
        a kernel that keeps timing out under any of its request variants
        trips one breaker, and a quarantined digest blocks compile, tune
        and replay alike.  ``None`` (unfingerprintable) disables the
        breaker for this request.
        """
        from repro.core import diskcache

        fingerprints = self._kernel_fingerprints()
        if fingerprints is None:
            return None
        return diskcache.digest("poison", *fingerprints)

    def __repr__(self) -> str:
        return f"ServiceRequest({self.kind}, {self.name!r})"


class ServiceResult:
    """The outcome of one request (shared by every coalesced ticket).

    ``ok`` results carry ``value`` (handler-specific payload, always
    including the full in-process objects — the wire layer summarises).
    Failed results carry ``error`` (a JSON-able dict with ``type``,
    ``message``, ``exit_code``, ``action``, plus ``retry_after`` when
    the error names one) plus ``error_exc``, the original exception
    object, so in-process callers can re-raise with full fidelity.
    ``coalesced``/``cached`` are per-ticket flags set on the copy each
    ticket hands out.
    """

    __slots__ = (
        "ok",
        "kind",
        "request_id",
        "value",
        "error",
        "error_exc",
        "coalesced",
        "cached",
        "queue_seconds",
        "run_seconds",
    )

    def __init__(self, kind: str, request_id: int):
        self.ok = False
        self.kind = kind
        self.request_id = request_id
        self.value: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None
        self.error_exc: Optional[BaseException] = None
        self.coalesced = False
        self.cached = False
        self.queue_seconds = 0.0
        self.run_seconds = 0.0

    def fail(self, exc: BaseException) -> "ServiceResult":
        """Record a failure (typed or not) as this result's outcome."""
        if isinstance(exc, ReproError):
            self.error = {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exit_code_for(exc),
                "action": exc.action,
            }
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                self.error["retry_after"] = retry_after
        else:
            self.error = {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": 1,
                "action": "unexpected failure; see the daemon log",
            }
        self.error_exc = exc
        return self

    def raise_for_error(self) -> None:
        """Re-raise the request's failure (no-op on success)."""
        if self.ok:
            return
        if self.error_exc is not None:
            raise self.error_exc
        message = (self.error or {}).get("message", "request failed")
        raise ServiceError(message)

    def __repr__(self) -> str:
        status = "ok" if self.ok else (self.error or {}).get("type", "error")
        return f"ServiceResult(#{self.request_id} {self.kind}: {status})"


class _InFlight:
    """Bookkeeping for one queued-or-running build (one per digest).

    ``waiters`` is a refcount of live tickets; when every waiter
    abandons, the entry is ``cancelled`` and evicted so it stops
    attracting coalescers and a worker skips it cheaply.  ``epoch``
    versions executions: the supervisor bumps it when it requeues or
    fails a stuck entry, and a zombie worker's late result is discarded
    on the mismatch.  ``deadline`` is the absolute monotonic end-to-end
    deadline (None = unbounded).
    """

    __slots__ = (
        "digest",
        "qkey",
        "request",
        "event",
        "result",
        "waiters",
        "enqueued_at",
        "deadline",
        "cancelled",
        "epoch",
        "requeues",
        "probe",
    )

    def __init__(self, digest: Optional[str], request: ServiceRequest):
        self.digest = digest
        self.qkey: Optional[str] = None
        self.request = request
        self.event = threading.Event()
        self.result: Optional[ServiceResult] = None
        self.waiters = 1
        self.enqueued_at = time.perf_counter()
        self.deadline: Optional[float] = None
        self.cancelled = False
        self.epoch = 0
        self.requeues = 0
        self.probe = False


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
        entry, service = self._entry, self._service
        if entry is None or service is None:
            return
        service._abandon_entry(entry)

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

#: Readiness states of the drain state machine.
STATES = ("accepting", "draining", "stopped")


class _Quarantine:
    """Per-digest circuit breaker (caller holds the service lock).

    Closed → counts consecutive countable failures; at ``threshold`` it
    opens.  Open → every admit raises until ``cooldown`` elapsed, then
    exactly one half-open probe is admitted.  A success (or a
    deterministic, non-countable failure) closes the breaker; a
    countable failure during the probe re-opens it with a fresh
    cool-down.
    """

    __slots__ = ("threshold", "cooldown", "entries")

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        # key -> [consecutive_failures, opened_at or None, probing]
        self.entries: Dict[str, List[Any]] = {}

    def admit(self, key: str) -> Optional[str]:
        """None to admit; "blocked" or "probe" otherwise."""
        state = self.entries.get(key)
        if state is None or state[1] is None:
            return None
        elapsed = time.monotonic() - state[1]
        if elapsed < self.cooldown or state[2]:
            return "blocked"
        state[2] = True
        return "probe"

    def retry_after(self, key: str) -> float:
        state = self.entries.get(key)
        if state is None or state[1] is None:
            return 0.0
        return max(0.0, self.cooldown - (time.monotonic() - state[1]))

    def record_failure(self, key: str) -> bool:
        """Count one countable failure; True when the breaker trips."""
        state = self.entries.setdefault(key, [0, None, False])
        state[0] += 1
        if state[1] is None and state[0] >= self.threshold:
            state[1] = time.monotonic()
            return True
        if state[2]:  # the half-open probe failed: re-open
            state[1] = time.monotonic()
            state[2] = False
            return True
        return False

    def record_success(self, key: str) -> None:
        self.entries.pop(key, None)

    def open_keys(self) -> List[str]:
        return [k for k, s in self.entries.items() if s[1] is not None]


class CompileService:
    """Bounded-queue, coalescing, multi-worker compile service.

    ``workers`` threads drain a queue of at most ``queue_size`` pending
    builds; ``memo_size`` bounds the completed-result LRU.  Constructed
    started; ``autostart=False`` defers the workers until
    :meth:`start` — tests use this to stage deterministic coalescing
    races.  Usable as a context manager (``close`` on exit).

    Fault-tolerance knobs: ``max_per_client`` caps one client's
    concurrently queued builds (None = no cap);
    ``quarantine_threshold``/``quarantine_cooldown`` configure the
    poison-kernel breaker; ``watchdog_seconds`` is how long one request
    may occupy a worker before the supervisor declares the worker stuck
    (None = only requests with their own deadline are supervised);
    ``supervise_grace`` is the slack added beyond a request's deadline
    before supervision fires, and ``supervise_interval`` the scan
    period.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        queue_size: int = 256,
        memo_size: int = 128,
        default_stage_seconds: Optional[float] = 120.0,
        autostart: bool = True,
        max_per_client: Optional[int] = None,
        quarantine_threshold: int = 3,
        quarantine_cooldown: float = 30.0,
        watchdog_seconds: Optional[float] = None,
        supervise_grace: float = 0.25,
        supervise_interval: float = 0.05,
    ):
        self.workers = workers or 4
        self.memo_size = memo_size
        self.default_stage_seconds = default_stage_seconds
        self.max_per_client = max_per_client
        self.watchdog_seconds = watchdog_seconds
        self.supervise_grace = supervise_grace
        self.supervise_interval = supervise_interval
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_size)
        self._lock = threading.Lock()
        self._inflight: Dict[str, _InFlight] = {}
        self._memo: "OrderedDict[str, ServiceResult]" = OrderedDict()
        self._ids = itertools.count(1)
        self._worker_ids = itertools.count()
        self._threads: Dict[str, threading.Thread] = {}
        self._zombies: Dict[str, threading.Thread] = {}
        self._heartbeats: Dict[str, List[Any]] = {}
        self._supervisor: Optional[threading.Thread] = None
        self._client_load: Dict[str, int] = {}
        self._quarantine = _Quarantine(quarantine_threshold, quarantine_cooldown)
        self._run_ewma: Optional[float] = None
        self._closed = False
        self._started = False
        self._state = "accepting"
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
        self._handlers: Dict[str, Callable[[ServiceRequest], Dict[str, Any]]] = {
            "compile": self._handle_compile,
            "tune": self._handle_tune,
            "replay": self._handle_replay,
        }
        if autostart:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    @property
    def state(self) -> str:
        """Readiness: ``accepting`` | ``draining`` | ``stopped``."""
        return self._state

    def start(self) -> None:
        """Spin up the worker threads and the supervisor (idempotent)."""
        with self._lock:
            if self._started or self._closed:
                return
            self._started = True
        for _ in range(self.workers):
            self._spawn_worker()
        self._supervisor = threading.Thread(
            target=self._supervisor_loop, name="akgd-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn_worker(self) -> None:
        name = f"akgd-worker-{next(self._worker_ids)}"
        t = threading.Thread(
            target=self._worker_loop, args=(name,), name=name, daemon=True
        )
        with self._lock:
            if self._closed:
                # Draining: the stop sentinels were counted without this
                # worker, so close() would join it forever.
                return
            # Started before the lock is released: close() joins every
            # thread it can see in ``_threads``.
            self._threads[name] = t
            t.start()

    def initiate_shutdown(self) -> None:
        """Stop admitting and begin the drain (idempotent, non-blocking).

        Every build already queued still completes — the stop sentinels
        sit behind them in the FIFO — so no accepted ticket is ever left
        hanging.  If the workers were never started, queued tickets are
        fulfilled immediately with a typed error instead of waiting for
        workers that will never come.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
            self._state = "draining" if started else "stopped"
            sentinels = len(self._threads)
        if not started:
            self._fail_queued("compile service stopped before executing this request")
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
            supervisor = self._supervisor
        for t in threads:
            if t is not threading.current_thread():
                t.join()
        with self._lock:
            self._state = "stopped"
        if supervisor is not None and supervisor is not threading.current_thread():
            supervisor.join(timeout=2.0)

    def _fail_queued(self, message: str) -> None:
        """Fulfil every entry still in the queue with a typed error."""
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                return
            if entry is _STOP:
                continue
            result = ServiceResult(entry.request.kind, next(self._ids)).fail(
                ServiceError(message)
            )
            self._fulfil(entry, result, entry.epoch)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def _retry_after_hint(self) -> float:
        """Seconds until a resubmission should find room (lock held).

        ``(depth + 1)`` builds ahead of the retry, spread over the
        worker pool, each costing about the recent average — clamped to
        a small floor so the hint is never zero.
        """
        avg = self._run_ewma if self._run_ewma is not None else 0.05
        depth = self._queue.qsize()
        return round(max(0.05, (depth + 1) * avg / max(1, self.workers)), 3)

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
        qkey = request.quarantine_key()
        entry: Optional[_InFlight] = None
        with self._lock:
            if self._closed:
                raise ServiceError(
                    f"compile service is {self._state}, not accepting requests"
                )
            self._stats["submitted"] += 1
            if digest is not None:
                memo = self._memo.get(digest)
                if memo is not None:
                    self._memo.move_to_end(digest)
                    self._stats["memo_hits"] += 1
                    perf.add("service.memo_hit", 0.0)
                    return Ticket(None, done=memo, cached=True)
                running = self._inflight.get(digest)
                if running is not None and not running.cancelled:
                    running.waiters += 1
                    self._stats["coalesced"] += 1
                    perf.add("service.coalesced", 0.0)
                    return Ticket(running, coalesced=True, service=self)
            probe = False
            if qkey is not None:
                verdict = self._quarantine.admit(qkey)
                if verdict == "blocked":
                    self._stats["quarantine_blocked"] += 1
                    raise QuarantinedError(
                        f"kernel digest {qkey[:12]} is quarantined after "
                        f"{self._quarantine.threshold} consecutive "
                        "timeouts/crashes",
                        kernel=request.name,
                        retry_after=round(self._quarantine.retry_after(qkey), 3),
                    )
                if verdict == "probe":
                    self._stats["quarantine_probes"] += 1
                    probe = True
            client = request.client_id
            if (
                self.max_per_client is not None
                and client is not None
                and self._client_load.get(client, 0) >= self.max_per_client
            ):
                self._stats["client_sheds"] += 1
                raise ServiceOverloadError(
                    f"client {client!r} already has "
                    f"{self._client_load[client]} builds queued "
                    f"(cap {self.max_per_client})",
                    retry_after=self._retry_after_hint(),
                )
            entry = _InFlight(digest, request)
            entry.qkey = qkey
            entry.probe = probe
            if request.deadline_seconds is not None:
                entry.deadline = time.monotonic() + request.deadline_seconds
            if digest is not None:
                self._inflight[digest] = entry
            if client is not None:
                self._client_load[client] = self._client_load.get(client, 0) + 1
        try:
            self._queue.put_nowait(entry)
        except queue.Full:
            with self._lock:
                if digest is not None and self._inflight.get(digest) is entry:
                    self._inflight.pop(digest)
                if entry.request.client_id is not None:
                    self._drop_client_load(entry.request.client_id)
                self._stats["rejected"] += 1
                hint = self._retry_after_hint()
            raise ServiceOverloadError(
                f"compile service queue is full ({self._queue.maxsize} pending)",
                retry_after=hint,
            )
        return Ticket(entry, service=self)

    def _drop_client_load(self, client: str) -> None:
        """Release one unit of a client's fairness budget (lock held)."""
        count = self._client_load.get(client, 0) - 1
        if count > 0:
            self._client_load[client] = count
        else:
            self._client_load.pop(client, None)

    def _abandon_entry(self, entry: _InFlight) -> None:
        """One waiter walked away; cancel the entry when none remain."""
        with self._lock:
            if entry.event.is_set():
                return
            entry.waiters -= 1
            if entry.waiters > 0:
                return
            entry.cancelled = True
            if (
                entry.digest is not None
                and self._inflight.get(entry.digest) is entry
            ):
                self._inflight.pop(entry.digest)

    def run(
        self, request: ServiceRequest, timeout: Optional[float] = None
    ) -> ServiceResult:
        """Submit and block for the result (the daemon's per-connection path)."""
        return self.submit(request).result(timeout)

    def stats(self) -> Dict[str, Any]:
        """Counters plus live queue/memo/in-flight depths and health."""
        from repro.core import diskcache

        with self._lock:
            snap: Dict[str, Any] = dict(self._stats)
            snap["inflight"] = len(self._inflight)
            snap["memo_entries"] = len(self._memo)
            snap["state"] = self._state
            snap["live_workers"] = len(self._threads)
            snap["zombie_workers"] = len(self._zombies)
            snap["quarantine_open"] = len(self._quarantine.open_keys())
            snap["retry_after_hint"] = self._retry_after_hint()
            snap["clients_tracked"] = len(self._client_load)
        snap["queue_depth"] = self._queue.qsize()
        snap["workers"] = self.workers
        snap["shapeclass"] = diskcache.shapeclass_stats()
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

    def _execute(self, entry: _InFlight, worker_name: str) -> None:
        from repro.core import resilience
        from repro.tools import faultinject

        request = entry.request
        with self._lock:
            epoch = entry.epoch
            if entry.cancelled and not entry.event.is_set():
                self._stats["cancelled"] += 1
        if entry.cancelled:
            result = ServiceResult(request.kind, next(self._ids)).fail(
                ServiceError("request cancelled: every waiter abandoned its ticket")
            )
            self._fulfil(entry, result, epoch)
            return
        result = ServiceResult(request.kind, next(self._ids))
        started = time.perf_counter()
        result.queue_seconds = started - entry.enqueued_at
        watchdog = self._watchdog_deadline(entry)
        with self._lock:
            self._heartbeats[worker_name] = [entry, epoch, time.monotonic(), watchdog]
        try:
            if request.fault_spec:
                faultinject.set_spec(request.fault_spec)
            faultinject.fire("service.dispatch")
            if entry.deadline is not None and time.monotonic() > entry.deadline:
                with self._lock:
                    self._stats["deadline_expired"] += 1
                raise StageTimeoutError(
                    "request deadline expired before dispatch",
                    stage="service.dispatch",
                    kernel=request.name,
                    elapsed=time.perf_counter() - entry.enqueued_at,
                )
            with resilience.deadline_scope("service.request", entry.deadline):
                faultinject.fire("service.worker")
                resilience.check_deadline()
                result.value = self._handlers[request.kind](request)
            result.ok = True
        except Exception as exc:  # noqa: BLE001 - the daemon must survive
            result.fail(exc)
        finally:
            if request.fault_spec:
                faultinject.set_spec(None)
            with self._lock:
                hb = self._heartbeats.get(worker_name)
                if hb is not None and hb[0] is entry and hb[1] == epoch:
                    self._heartbeats.pop(worker_name)
        result.run_seconds = time.perf_counter() - started
        perf.add("service.request", result.run_seconds)
        self._fulfil(entry, result, epoch)

    def _watchdog_deadline(self, entry: _InFlight) -> Optional[float]:
        """When the supervisor may declare this execution stuck.

        The request's own end-to-end deadline (plus grace) bounds it
        when present; otherwise the service-wide ``watchdog_seconds``.
        Both unset means this execution is unsupervised — there is no
        deadline whose overrun could prove the worker stuck.
        """
        candidates = []
        if entry.deadline is not None:
            candidates.append(entry.deadline + self.supervise_grace)
        if self.watchdog_seconds is not None:
            candidates.append(
                time.monotonic() + self.watchdog_seconds + self.supervise_grace
            )
        return min(candidates) if candidates else None

    def _fulfil(self, entry: _InFlight, result: ServiceResult, epoch: int) -> None:
        """Publish one execution's outcome (discarding stale epochs)."""
        with self._lock:
            if entry.event.is_set() or entry.epoch != epoch:
                self._stats["stale_results"] += 1
                return
            self._stats["completed" if result.ok else "failed"] += 1
            alpha = 0.2
            if self._run_ewma is None:
                self._run_ewma = result.run_seconds
            else:
                self._run_ewma += alpha * (result.run_seconds - self._run_ewma)
            if entry.digest is not None:
                if self._inflight.get(entry.digest) is entry:
                    self._inflight.pop(entry.digest)
                # Only healthy results are worth remembering: a failure
                # may be environmental (full disk, injected chaos) and a
                # retry deserves a fresh attempt.
                if result.ok:
                    self._memo[entry.digest] = result
                    while len(self._memo) > self.memo_size:
                        self._memo.popitem(last=False)
            if entry.request.client_id is not None:
                self._drop_client_load(entry.request.client_id)
            if entry.qkey is not None:
                if result.ok or not self._quarantine_countable(result.error_exc):
                    self._quarantine.record_success(entry.qkey)
                elif self._quarantine.record_failure(entry.qkey):
                    self._stats["quarantine_trips"] += 1
            entry.result = result
        entry.event.set()

    @staticmethod
    def _quarantine_countable(exc: Optional[BaseException]) -> bool:
        """Only timeouts and crashes poison a digest — a deterministic
        typed pipeline error is the *request's* failure, not a reason to
        stop serving the kernel."""
        if exc is None:
            return False
        if isinstance(exc, StageTimeoutError):
            return True
        return not isinstance(exc, ReproError)

    # -- supervision --------------------------------------------------------

    def _supervisor_loop(self) -> None:
        while True:
            time.sleep(self.supervise_interval)
            with self._lock:
                if self._state == "stopped":
                    return
                if self._closed and not self._threads:
                    self._state = "stopped"
                    return
                now = time.monotonic()
                overdue = [
                    (name, hb)
                    for name, hb in self._heartbeats.items()
                    if hb[3] is not None and now > hb[3]
                ]
                actions = []
                for name, (entry, epoch, _started, _deadline) in overdue:
                    self._heartbeats.pop(name)
                    zombie = self._threads.pop(name, None)
                    if zombie is not None:
                        self._zombies[name] = zombie
                    if entry.event.is_set() or entry.epoch != epoch:
                        actions.append(("spawn", None))
                        continue
                    entry.epoch += 1
                    if entry.requeues == 0 and not entry.cancelled:
                        entry.requeues = 1
                        self._stats["supervisor_requeues"] += 1
                        actions.append(("requeue", entry))
                    else:
                        actions.append(("fail", entry))
                    actions.append(("spawn", None))
            for action, entry in actions:
                if action == "spawn":
                    with self._lock:
                        self._stats["worker_restarts"] += 1
                    self._spawn_worker()
                elif action == "requeue":
                    try:
                        self._queue.put_nowait(entry)
                    except queue.Full:
                        self._fail_stuck(entry)
                elif action == "fail":
                    self._fail_stuck(entry)

    def _fail_stuck(self, entry: _InFlight) -> None:
        """Second strike (or no room to retry): fail all waiters typed."""
        result = ServiceResult(entry.request.kind, next(self._ids)).fail(
            StageTimeoutError(
                "worker stuck past its watchdog deadline "
                f"(requeued {entry.requeues} time(s))",
                stage="service.worker",
                kernel=entry.request.name,
            )
        )
        self._fulfil(entry, result, entry.epoch)

    def _effective_options(self, request: ServiceRequest):
        """The request's options with service deadlines applied.

        Copies before mutating (callers may share one options object
        across requests); an explicit per-request ``stage_seconds``
        always wins over the service default, but the request's
        *end-to-end* deadline (already on the resilience stack as a
        :func:`~repro.core.resilience.deadline_scope`) clamps whatever
        stage budget results — a stage can never be granted more time
        than the whole request has left.
        """
        from repro.core.compiler import AkgOptions
        from repro.core.resilience import StageBudget, remaining_deadline

        options = copy.copy(request.options) if request.options else AkgOptions()
        budget = options.budget
        stage_seconds = budget.stage_seconds
        if stage_seconds is None and self.default_stage_seconds is not None:
            stage_seconds = self.default_stage_seconds
        remaining = remaining_deadline()
        if remaining is not None:
            remaining = max(0.001, remaining)
            if stage_seconds is None or stage_seconds > remaining:
                stage_seconds = remaining
        if stage_seconds is not budget.stage_seconds:
            options.budget = StageBudget(
                stage_seconds=stage_seconds,
                solver_nodes=budget.solver_nodes,
                fm_constraints=budget.fm_constraints,
            )
        return options

    # -- handlers -----------------------------------------------------------

    def _handle_compile(self, request: ServiceRequest) -> Dict[str, Any]:
        from repro.core.compiler import build

        options = self._effective_options(request)
        result = build(request.outputs, request.name, hw=request.hw, options=options)
        report = result.simulate()
        return {
            "result": result,
            "program_sha256": _program_sha256(result),
            "cycles": report.total_cycles,
            "dma_bytes": report.dma_bytes,
            "tile_sizes": list(result.tile_sizes),
            "degraded": bool(result.resilience.degraded),
        }

    def _handle_tune(self, request: ServiceRequest) -> Dict[str, Any]:
        from repro.autotune.tuner import tune_tile_sizes

        params = dict(DEFAULT_TUNE_PARAMS)
        params.update(request.tune_params or {})
        best, records = tune_tile_sizes(
            request.outputs, request.name, hw=request.hw, **params
        )
        return {
            "best_sizes": list(best),
            "candidates": len(records),
            "best_cycles": min(
                (r.cycles for r in records if r.cycles is not None), default=None
            ),
        }

    def _handle_replay(self, request: ServiceRequest) -> Dict[str, Any]:
        from repro.core.compiler import build

        options = self._effective_options(request)
        options.emit_trace = True
        result = build(request.outputs, request.name, hw=request.hw, options=options)
        inputs = request.inputs
        if inputs is None:
            inputs = _seeded_inputs(result.kernel, request.seed, request.bindings)
        outputs = result.execute(inputs, engine=request.engine)
        return {
            "result": result,
            "program_sha256": _program_sha256(result),
            "outputs": outputs,
            "inputs": inputs,
        }


def _program_sha256(result) -> str:
    """sha256 of the instruction-stream dump — what bit-identical checks
    compare.  Hashed here, once per build, so that a memo hit's response
    does not dump and hash the whole program again."""
    return hashlib.sha256(result.program.dump().encode()).hexdigest()


def _seeded_inputs(
    kernel, seed: int, bindings: Optional[Dict[str, int]] = None
) -> Dict[str, Any]:
    """Deterministic random inputs for a lowered kernel (wire replays).

    ``bindings`` draws symbolic dims at their bound extents, so a
    shape-generic replay at batch ``b`` sees exactly the arrays a
    concrete batch-``b`` kernel would.
    """
    import numpy as np

    from repro.runtime.reference import bound_shape, numpy_dtype

    rng = np.random.default_rng(seed)
    inputs = {}
    for t in kernel.inputs:
        dt = numpy_dtype(t.dtype)
        shape = bound_shape(t, bindings)
        if dt.kind == "i":
            inputs[t.name] = rng.integers(0, 7, size=shape).astype(dt)
        else:
            inputs[t.name] = rng.standard_normal(shape).astype(dt)
    return inputs
