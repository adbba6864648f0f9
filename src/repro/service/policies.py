"""The compile service's four policies, as plain objects.

Each class holds the bookkeeping and makes the decisions of one concern
of :class:`~repro.service.core.CompileService`.  None creates a thread,
takes a lock or reads a clock: the service calls every method with its
one lock held, and every time-dependent method takes ``now`` — a number
on whichever clock the service was given — so each decision can be
checked by advancing a plain number.  The policies raise nothing and
count nothing; the service turns their verdicts into typed errors and
``stats()`` counters.  Entries are the service's in-flight records, used
only through their fields (``digest``, ``waiters``, ``cancelled``,
``result``, ``epoch``, ``requeues``, ``deadline``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core.errors import ReproError, StageTimeoutError

__all__ = ["Admission", "Coalescer", "Breaker", "Supervisor"]

#: Slack beyond a watchdog deadline before supervision fires: a worker
#: that is merely finishing up is not declared stuck.
SUPERVISE_GRACE = 0.25


class Admission:
    """Per-client fairness, and when a shed client should come back.

    ``max_per_client`` caps one client's concurrently queued builds
    (None = no cap; a request without a ``client_id`` is never capped).
    """

    def __init__(self, workers: int, max_per_client: Optional[int] = None):
        self.workers = workers
        self.max_per_client = max_per_client
        self.load: Dict[str, int] = {}
        self.ewma: Optional[float] = None

    def admit(self, client: Optional[str]) -> bool:
        """Count one more queued build for ``client``; False (nothing
        counted) when that would exceed the cap."""
        if client is None:
            return True
        held = self.load.get(client, 0)
        if self.max_per_client is not None and held >= self.max_per_client:
            return False
        self.load[client] = held + 1
        return True

    def release(self, client: Optional[str]) -> None:
        """Give back one unit of ``client``'s budget."""
        if client is None:
            return
        held = self.load.get(client, 0) - 1
        if held > 0:
            self.load[client] = held
        else:
            self.load.pop(client, None)

    def observe(self, run_seconds: float) -> None:
        """Fold one finished execution into the run-time average."""
        if self.ewma is None:
            self.ewma = run_seconds
        else:
            self.ewma += 0.2 * (run_seconds - self.ewma)

    def retry_after(self, depth: int) -> float:
        """Seconds until a resubmission should find room.

        ``depth + 1`` builds ahead of the retry, spread over the worker
        pool, each costing about the recent average — clamped to a small
        floor so the hint is never zero.
        """
        average = self.ewma if self.ewma is not None else 0.05
        return round(max(0.05, (depth + 1) * average / max(1, self.workers)), 3)


class Coalescer:
    """One build per digest: in-flight table, waiter refcounts, result memo.

    While a build for digest D is queued or running, further submissions
    of D :meth:`attach` to it instead of enqueueing.  ``waiters`` counts
    live tickets: when the last one walks away (:meth:`abandon`) the
    entry is cancelled and evicted, so it stops attracting coalescers and
    a worker skips it cheaply.  Completed results stay in an LRU memo of
    ``memo_size``.  Entries without a digest take part in none of this.
    """

    def __init__(self, memo_size: int):
        self.memo_size = memo_size
        self.inflight: Dict[str, Any] = {}
        self.memo: "OrderedDict[str, Any]" = OrderedDict()

    def memo_hit(self, digest: str) -> Any:
        """The remembered result for ``digest`` (now most recent), or None."""
        result = self.memo.get(digest)
        if result is not None:
            self.memo.move_to_end(digest)
        return result

    def attach(self, digest: str) -> Any:
        """Join the live build for ``digest``: its entry, or None."""
        entry = self.inflight.get(digest)
        if entry is None or entry.cancelled:
            return None
        entry.waiters += 1
        return entry

    def register(self, entry: Any) -> None:
        if entry.digest is not None:
            self.inflight[entry.digest] = entry

    def _evict(self, entry: Any) -> None:
        """Forget ``entry`` — never a successor under the same digest."""
        if entry.digest is not None and self.inflight.get(entry.digest) is entry:
            del self.inflight[entry.digest]

    def abandon(self, entry: Any) -> bool:
        """One waiter walked away; True when it was the last (cancelled)."""
        entry.waiters -= 1
        if entry.waiters > 0:
            return False
        entry.cancelled = True
        self._evict(entry)
        return True

    def complete(self, entry: Any, result: Any) -> None:
        self._evict(entry)
        # Only healthy results are worth remembering: a failure may be
        # environmental (full disk, injected chaos) and a retry deserves
        # a fresh attempt.
        if entry.digest is not None and result.ok:
            self.memo[entry.digest] = result
            while len(self.memo) > self.memo_size:
                self.memo.popitem(last=False)


@dataclass
class _Circuit:
    failures: int = 0
    opened_at: Optional[float] = None
    probing: bool = False


class Breaker:
    """Per-key circuit breaker: the poison-kernel quarantine.

    Closed → counts consecutive countable failures; at ``threshold`` it
    opens.  Open → every admit is blocked until ``cooldown`` elapsed,
    then exactly one half-open probe is admitted.  A success (or a
    deterministic, non-countable failure) closes the breaker; a
    countable failure during the probe re-opens it with a fresh
    cool-down.
    """

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        self.circuits: Dict[str, _Circuit] = {}

    def admit(self, key: str, now: float) -> Optional[str]:
        """None to admit; "blocked" or "probe" otherwise."""
        circuit = self.circuits.get(key)
        if circuit is None or circuit.opened_at is None:
            return None
        if now - circuit.opened_at < self.cooldown or circuit.probing:
            return "blocked"
        circuit.probing = True
        return "probe"

    def release_probe(self, key: str) -> None:
        """The admitted probe for ``key`` will never run (shed at the
        queue, cancelled in it): the next admit is the probe again."""
        circuit = self.circuits.get(key)
        if circuit is not None:
            circuit.probing = False

    def retry_after(self, key: str, now: float) -> float:
        circuit = self.circuits.get(key)
        if circuit is None or circuit.opened_at is None:
            return 0.0
        return max(0.0, self.cooldown - (now - circuit.opened_at))

    def record(self, key: str, exc: Optional[BaseException], now: float) -> bool:
        """One execution of ``key`` ended (``exc`` None = success); True
        when that trips, or re-opens, the breaker.

        Only timeouts and crashes poison a digest — a deterministic typed
        pipeline error is the *request's* failure, not a reason to stop
        serving the kernel.
        """
        if exc is None or (
            isinstance(exc, ReproError) and not isinstance(exc, StageTimeoutError)
        ):
            self.circuits.pop(key, None)
            return False
        circuit = self.circuits.setdefault(key, _Circuit())
        circuit.failures += 1
        if circuit.opened_at is None and circuit.failures >= self.threshold:
            circuit.opened_at = now
            return True
        if circuit.probing:  # the half-open probe failed: re-open
            circuit.opened_at = now
            circuit.probing = False
            return True
        return False

    def open_count(self) -> int:
        return sum(c.opened_at is not None for c in self.circuits.values())


class _Heartbeat(NamedTuple):
    entry: Any
    epoch: int
    deadline: Optional[float]


class Supervisor:
    """Heartbeats, epochs, and what to do about a stuck worker.

    Every execution stamps a heartbeat with a watchdog deadline;
    :meth:`scan` declares overdue workers stuck.  Python threads cannot
    be killed, so a stuck worker is *replaced*, and its entry's ``epoch``
    is bumped so the zombie's late result is discarded on the mismatch.
    """

    def __init__(self, watchdog_seconds: Optional[float] = None):
        self.watchdog_seconds = watchdog_seconds
        self.heartbeats: Dict[str, _Heartbeat] = {}

    def begin(self, worker: str, entry: Any, now: float) -> None:
        """``worker`` starts executing ``entry`` at its current epoch.

        The request's own end-to-end deadline (plus grace) bounds the
        execution when present; otherwise the service-wide
        ``watchdog_seconds``.  Both unset means it is unsupervised —
        there is no deadline whose overrun could prove the worker stuck.
        """
        deadlines = []
        if entry.deadline is not None:
            deadlines.append(entry.deadline + SUPERVISE_GRACE)
        if self.watchdog_seconds is not None:
            deadlines.append(now + self.watchdog_seconds + SUPERVISE_GRACE)
        self.heartbeats[worker] = _Heartbeat(
            entry, entry.epoch, min(deadlines) if deadlines else None
        )

    def end(self, worker: str) -> None:
        """``worker`` came back (a no-op once :meth:`scan` gave up on it)."""
        self.heartbeats.pop(worker, None)

    def scan(self, now: float) -> List[Tuple[str, str, Any]]:
        """``(verdict, worker, entry)`` per worker overdue at ``now``.

        Every verdict means "replace this worker".  ``"requeue"``: first
        strike, run the entry again.  ``"fail"``: second strike, or every
        waiter has left — fail the entry typed.  ``"stale"``: the entry
        was fulfilled or re-issued behind this heartbeat's back.
        """
        verdicts = []
        for worker, beat in list(self.heartbeats.items()):
            if beat.deadline is None or now <= beat.deadline:
                continue
            del self.heartbeats[worker]
            entry = beat.entry
            if entry.result is not None or entry.epoch != beat.epoch:
                verdicts.append(("stale", worker, entry))
                continue
            entry.epoch += 1
            if entry.requeues == 0 and not entry.cancelled:
                entry.requeues = 1
                verdicts.append(("requeue", worker, entry))
            else:
                verdicts.append(("fail", worker, entry))
        return verdicts
