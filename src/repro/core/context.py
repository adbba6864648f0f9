"""The per-thread compile context and the one way into a pipeline stage.

Everything that asks "which stage is this, how long has it run, under
what budget, with which faults armed" reads one object, :data:`CTX`.
:class:`stage` is the only writer of its frame stack: it names the
stage, carries the budget, arms the wall-clock deadline and, on exit,
credits the stage's wall time to the process-wide totals that
``repro.tools.perf`` renders.  The budget/ladder *policy* built on top
lives in :mod:`repro.core.resilience`, the fault-spec grammar in
:mod:`repro.tools.faultinject`; both are readers of this module.

Beside the seconds table sits the one table of event counts,
:data:`COUNTERS`: every process-wide counter of the compiler is a label
in it (``solver.ilp.hits``, ``diskcache.stores``, ``deps.pairs_pruned``,
``exec.fallback.<reason>``, ``resilience.<event>``,
``graph.dedup_reuse``).  A hot path bumps a label inline,
``with LOCK: COUNTERS[label] += 1`` (no Python-level call);
:func:`counters` snapshots and :func:`reset_counters` drops the labels
under one prefix.  The ``*_stats()`` views are short readers of it.

Threading contract, stated once: :data:`CTX` is thread-local — the
compile service runs one request per worker thread, and request A's
deadline, degradation report or fault spec must never be seen inside
request B's solver loop.  A thread's first access finds no frames, no
report and no faults, whatever its parent had open; nothing outlives
the thread.  The *totals* (:data:`TOTALS` and :data:`COUNTERS` here,
the fault-directive hit counters) are process-wide and every update or
snapshot of them holds the one :data:`LOCK`.  Worker
*processes* (the parallel tuner) each keep their own copies.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import monotonic
from typing import Any, Dict, List, Optional

from repro.core.errors import StageTimeoutError

__all__ = [
    "CTX",
    "LOCK",
    "TOTALS",
    "COUNTERS",
    "counters",
    "reset_counters",
    "stage",
    "credit",
    "active_stage",
    "remaining_deadline",
    "check_deadline",
    "backdate_deadline",
    "rearm",
]


class _Context(threading.local):
    """One thread's compile state (``__init__`` runs once per thread)."""

    def __init__(self):
        #: Open :class:`stage` frames, outermost first.
        self.frames: List["stage"] = []
        #: The report an open ``resilience.collect()`` is filling.
        self.report: Optional[Any] = None
        #: The programmatic fault table and the spec it was parsed from.
        self.faults: Optional[Dict[str, list]] = None
        self.fault_spec: Optional[str] = None


CTX = _Context()

#: Guards every process-wide counter table (see the module docstring).
LOCK = threading.Lock()

#: Stage name -> ``[wall seconds, entries]``, cumulative.
TOTALS: Dict[str, List[float]] = {}

#: Counter label -> count, cumulative (a missing label reads 0).
COUNTERS: Dict[str, int] = defaultdict(int)


def counters(prefix: str = "") -> Dict[str, int]:
    """Snapshot of the counters labelled ``prefix...``, keyed by the rest
    of the label (``counters("deps.")["pairs_pruned"]``)."""
    cut = len(prefix)
    with LOCK:
        return {
            label[cut:]: count
            for label, count in COUNTERS.items()
            if label.startswith(prefix)
        }


def reset_counters(prefix: str = "") -> None:
    """Drop every counter labelled ``prefix...`` (all of them by default)."""
    with LOCK:
        for label in list(COUNTERS):
            if label.startswith(prefix):
                del COUNTERS[label]


def credit(name: str, seconds: float) -> None:
    """Credit ``seconds`` of wall time and one call to stage ``name``."""
    with LOCK:
        row = TOTALS.get(name) or TOTALS.setdefault(name, [0.0, 0])
        row[0] += seconds
        row[1] += 1


class stage:
    """Run a block as the pipeline stage ``name`` (a context manager).

    The object is its own frame on ``CTX.frames``.  ``budget=None``
    inherits the enclosing stage's budget, so deep layers open
    sub-stages without re-threading options; a budget with
    ``stage_seconds`` arms ``deadline = now + stage_seconds``.  An
    explicit ``deadline`` (an absolute ``time.monotonic()`` value: the
    compile service's end-to-end request deadline) is taken as is and is
    never re-armed.  Nested stages each record their own wall time
    (inner is not subtracted from outer), the way a profiler's inclusive
    column does.
    """

    __slots__ = ("name", "budget", "deadline", "absolute", "start", "entered")

    def __init__(self, name: str, budget=None, deadline: Optional[float] = None):
        self.name = name
        self.budget = budget
        self.deadline = deadline
        self.absolute = deadline is not None

    def __enter__(self) -> None:
        frames = CTX.frames
        budget = self.budget
        if budget is None and frames:
            budget = self.budget = frames[-1].budget
        # ``start`` moves when a ladder re-arms the frame; ``entered`` is
        # what the stage's wall time is measured from.
        now = self.start = self.entered = monotonic()
        if not self.absolute and budget is not None and budget.stage_seconds is not None:
            self.deadline = now + budget.stage_seconds
        frames.append(self)

    def __exit__(self, *exc_info) -> None:
        CTX.frames.pop()
        seconds = monotonic() - self.entered
        with LOCK:  # credit(), spelled out: a stage entry is three calls
            row = TOTALS.get(self.name) or TOTALS.setdefault(self.name, [0.0, 0])
            row[0] += seconds
            row[1] += 1


def active_stage() -> Optional[str]:
    """Name of the innermost open stage on this thread (None outside any)."""
    frames = CTX.frames
    return frames[-1].name if frames else None


def remaining_deadline() -> Optional[float]:
    """Seconds until the tightest enclosing deadline (None = unbounded).

    Can be negative when a deadline already expired and the cooperative
    check has not run yet.
    """
    deadlines = [f.deadline for f in CTX.frames if f.deadline is not None]
    return min(deadlines) - monotonic() if deadlines else None


def check_deadline() -> None:
    """Cooperative deadline check — call from long-running solver loops.

    Near-free when no deadline is active.  Checks *every* enclosing
    frame: a nested stage never shields a block from its parent's
    deadline or from the request's.
    """
    now = None
    for frame in CTX.frames:
        deadline = frame.deadline
        if deadline is None:
            continue
        if now is None:
            now = monotonic()
        if now > deadline:
            raise StageTimeoutError(
                "stage wall-clock deadline exceeded",
                stage=frame.name,
                elapsed=now - frame.start,
            )


def backdate_deadline() -> bool:
    """Force the innermost deadline into the past (fault injection only).

    Models a stage overrunning its budget without actually sleeping: the
    next :func:`check_deadline` raises, exercising the real timeout
    path.  Returns False when no deadline is active to backdate.
    """
    for frame in reversed(CTX.frames):
        if frame.deadline is not None:
            frame.deadline = monotonic() - 1.0
            return True
    return False


def rearm() -> None:
    """Give the innermost budget-armed stage a fresh allotment.

    Only ``resilience.with_fallback`` calls this, before a fallback
    rung: the primary may have burnt the whole ``stage_seconds`` before
    failing.  Frames holding an absolute deadline are skipped, so a rung
    still cannot outlive its request.
    """
    for frame in reversed(CTX.frames):
        if frame.deadline is not None and not frame.absolute:
            frame.start = monotonic()
            frame.deadline = frame.start + frame.budget.stage_seconds
            return
