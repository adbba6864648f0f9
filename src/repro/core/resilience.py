"""Stage budgets, degradation reports and the fallback ladder.

The policy half of :mod:`repro.core.context` (which holds the per-thread
frames these functions read, the deadline checks re-exported here, and
the threading contract).

**Stage budgets** (:class:`StageBudget`).  ``AkgOptions`` carries one;
``stage(name, budget)`` arms its wall-clock deadline and long-running
loops (ILP branch-and-bound, Fourier–Motzkin elimination, the
auto-tiling search) call :func:`check_deadline` cooperatively, so a
pathological kernel raises
:class:`~repro.core.errors.StageTimeoutError` instead of hanging the
process.  ``solver_nodes`` caps branch-and-bound nodes per solve and
``fm_constraints`` the intermediate system size during projection.

**Resilience reports** (:class:`ResilienceReport`).  Every degradation
step is recorded as a plain-dict event on the thread's open report
(:class:`collect`) and counted in the process-wide table as
``resilience.<stage>.<kind>[:<fallback>]``
(``context.counters("resilience.")``, ``perf.report()["resilience"]``).

**The ladder** (:func:`with_fallback`).  Runs a primary strategy and, on
a *typed* error only, steps down through progressively simpler
fallbacks, recording each step.  Genuine bugs propagate unchanged; if
every rung fails, the last typed error is re-raised so the CLI can map
it to its exit code.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.context import (
    COUNTERS,
    CTX,
    LOCK,
    active_stage,
    backdate_deadline,
    check_deadline,
    rearm,
    remaining_deadline,
    stage,
)
from repro.core.errors import ReproError

__all__ = [
    "StageBudget",
    "remaining_deadline",
    "check_deadline",
    "active_stage",
    "solver_node_budget",
    "fm_constraint_budget",
    "backdate_deadline",
    "ResilienceReport",
    "collect",
    "note_event",
    "with_fallback",
]


class StageBudget:
    """Resource limits for one pipeline stage.

    ``stage_seconds``   wall-clock deadline per stage (None = unlimited);
    ``solver_nodes``    branch-and-bound node cap per ILP solve
                        (None = the solver's built-in default);
    ``fm_constraints``  cap on the intermediate constraint-system size
                        during Fourier–Motzkin projection (None = the
                        eliminator's built-in default).
    """

    def __init__(
        self,
        stage_seconds: Optional[float] = None,
        solver_nodes: Optional[int] = None,
        fm_constraints: Optional[int] = None,
    ):
        self.stage_seconds = stage_seconds
        self.solver_nodes = solver_nodes
        self.fm_constraints = fm_constraints

    def __repr__(self) -> str:
        return (
            f"StageBudget(stage_seconds={self.stage_seconds}, "
            f"solver_nodes={self.solver_nodes}, "
            f"fm_constraints={self.fm_constraints})"
        )


def solver_node_budget(default: int) -> int:
    """Branch-and-bound node cap: the active budget's, else ``default``."""
    frames = CTX.frames
    budget = frames[-1].budget if frames else None
    if budget is not None and budget.solver_nodes is not None:
        return budget.solver_nodes
    return default


def fm_constraint_budget(default: int) -> int:
    """FM intermediate-system cap: the active budget's, else ``default``."""
    frames = CTX.frames
    budget = frames[-1].budget if frames else None
    if budget is not None and budget.fm_constraints is not None:
        return budget.fm_constraints
    return default


# -- reports -----------------------------------------------------------------------


class ResilienceReport:
    """Degradation events recorded during one compilation.

    Events are plain dicts (picklable, JSON-able):
    ``{"stage", "kind", "fallback", "error", "detail"}`` where ``kind``
    is ``fallback`` (a ladder rung was taken), ``recovered`` (a
    transient failure was absorbed, e.g. a corrupt cache entry or a
    tuner worker retry) or ``gave_up`` (every rung failed).
    """

    def __init__(self):
        self.events: List[Dict[str, Any]] = []

    def add(
        self,
        stage: str,
        kind: str,
        fallback: Optional[str] = None,
        error: Optional[str] = None,
        detail: Optional[str] = None,
        dedupe: bool = False,
    ) -> None:
        """Append one event; ``dedupe=True`` skips it when an identical
        event is already present."""
        event: Dict[str, Any] = {"stage": stage, "kind": kind}
        if fallback is not None:
            event["fallback"] = fallback
        if error is not None:
            event["error"] = error
        if detail is not None:
            event["detail"] = detail
        if not (dedupe and event in self.events):
            self.events.append(event)

    def degraded_since(self, first: int = 0) -> bool:
        """True when any fallback was taken at or after event ``first``
        (the result is not the first-choice compilation and must not be
        disk-cached).  ``degraded`` asks it of the whole report."""
        return any(e["kind"] in ("fallback", "gave_up") for e in self.events[first:])

    degraded = property(degraded_since)

    def summary(self) -> List[str]:
        lines = []
        for e in self.events:
            line = f"{e['stage']}: {e['kind']}"
            if e.get("fallback"):
                line += f" -> {e['fallback']}"
            if e.get("error"):
                line += f" ({e['error']})"
            lines.append(line)
        return lines

    def __repr__(self) -> str:
        return f"ResilienceReport({len(self.events)} events)"


class collect:
    """``with collect() as report``: gather this thread's degradation
    events into a fresh report.

    A nested ``collect()`` shares the outermost report, so helper entry
    points (``backend_build`` called from ``build``) do not shear events
    into separate reports.
    """

    __slots__ = ("outermost",)

    def __enter__(self) -> ResilienceReport:
        self.outermost = CTX.report is None
        if self.outermost:
            CTX.report = ResilienceReport()
        return CTX.report

    def __exit__(self, *exc_info) -> None:
        if self.outermost:
            CTX.report = None


def note_event(
    stage: str,
    kind: str,
    fallback: Optional[str] = None,
    error: Optional[str] = None,
    detail: Optional[str] = None,
    dedupe: bool = False,
) -> None:
    """Record a degradation event on the open report + global counters.

    ``dedupe=True`` still bumps the global counter but appends to the
    report only if an identical event is not already present (for
    per-tile events that would otherwise flood the report).
    """
    label = f"resilience.{stage}.{kind}"
    if fallback is not None:
        label += ":" + fallback
    with LOCK:
        COUNTERS[label] += 1
    report = CTX.report
    if report is not None:
        report.add(stage, kind, fallback, error, detail, dedupe)


# -- the ladder -------------------------------------------------------------------


def with_fallback(
    name: str,
    primary: Tuple[str, Callable[[], Any]],
    *fallbacks: Tuple[str, Callable[[], Any]],
) -> Any:
    """Run ``primary`` and, on typed failure, step down the ladder.

    Each strategy is a ``(label, thunk)`` pair.  Only
    :class:`~repro.core.errors.ReproError` triggers the next rung —
    genuine bugs (``IndexError`` and friends) propagate immediately.
    Before each rung below the primary the budgeted stage the ladder
    runs in is *re-armed* (:func:`~repro.core.context.rearm`: the
    primary may have burnt the whole ``stage_seconds`` before failing;
    the fallback still deserves its own allotment), and the rung runs as
    the stage ``"name[label]"``.  Only the ladder re-arms, and never an
    absolute deadline: a rung cannot outlive the request it serves.
    Every step taken is recorded via :func:`note_event`; if all rungs
    fail, the last typed error is re-raised.
    """
    try:
        return primary[1]()
    except ReproError as exc:
        last_error = exc
    for label, thunk in fallbacks:
        rearm()
        try:
            with stage(f"{name}[{label}]"):
                check_deadline()  # the request's deadline still binds
                result = thunk()
        except ReproError as exc:
            last_error = exc
            continue
        note_event(
            name,
            "fallback",
            fallback=label,
            error=type(last_error).__name__,
            detail=str(last_error),
        )
        return result
    note_event(
        name, "gave_up", error=type(last_error).__name__, detail=str(last_error)
    )
    raise last_error
