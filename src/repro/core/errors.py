"""The typed error taxonomy of the compilation pipeline.

Every failure a pipeline stage can produce on purpose is an instance of
:class:`ReproError`, carrying the stage name, the kernel being compiled
and the wall-clock time spent when the failure was raised.  The taxonomy
exists for three consumers:

- the **degradation ladder** (:func:`repro.core.resilience.with_fallback`)
  steps down to a simpler strategy *only* on typed errors — a genuine bug
  (``IndexError``, ``TypeError``) keeps propagating instead of being
  silently absorbed into a fallback path;
- the **CLI** (``akgc``) maps each class to a distinct, documented exit
  code with a one-line actionable message, so scripted callers can react
  without parsing tracebacks;
- the **fault-injection harness** (:mod:`repro.tools.faultinject`) raises
  exactly these classes at registered sites, so chaos runs exercise the
  same handling paths real failures take.

``ReproError`` subclasses ``RuntimeError`` deliberately: pre-taxonomy
call sites (the auto-tuner's ``except RuntimeError`` around candidate
measurement) keep working unchanged while new code catches the precise
class.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

__all__ = [
    "ReproError",
    "SolverBudgetError",
    "StageTimeoutError",
    "SchedulingError",
    "TilingError",
    "FusionError",
    "CodegenError",
    "CacheCorruptionError",
    "ExecutionFallbackError",
    "NetworkPlanError",
    "ServiceError",
    "ServiceOverloadError",
    "QuarantinedError",
    "VerificationError",
    "EXIT_CODES",
    "exit_code_for",
    "error_classes",
]


class ReproError(RuntimeError):
    """Base class of every *expected* compilation-pipeline failure.

    ``stage``/``kernel``/``elapsed`` give the failure its context:
    which Fig. 2 stage raised, which kernel was being compiled, and how
    much wall-clock time the stage had consumed.  All three are optional
    — deep layers raise with whatever they know and the resilience layer
    enriches the record when it logs the event.
    """

    #: One-line operator guidance, overridden per subclass; surfaced by
    #: the CLI next to the exit code.
    action = "inspect the kernel and rerun with --perf for stage timings"

    def __init__(
        self,
        message: str,
        *,
        stage: Optional[str] = None,
        kernel: Optional[str] = None,
        elapsed: Optional[float] = None,
    ):
        super().__init__(message)
        self.message = message
        self.stage = stage
        self.kernel = kernel
        self.elapsed = elapsed

    def context(self) -> str:
        """Render the stage/kernel/elapsed context (empty when unknown)."""
        parts = []
        if self.stage:
            parts.append(f"stage={self.stage}")
        if self.kernel:
            parts.append(f"kernel={self.kernel}")
        if self.elapsed is not None:
            parts.append(f"elapsed={self.elapsed:.3f}s")
        return ", ".join(parts)

    def __str__(self) -> str:
        ctx = self.context()
        return f"{self.message} [{ctx}]" if ctx else self.message


class SolverBudgetError(ReproError):
    """An exact solver (ILP branch-and-bound, Fourier–Motzkin) exhausted
    its node/constraint budget before reaching an answer."""

    action = "raise --solver-budget, or simplify the kernel's index expressions"


class StageTimeoutError(ReproError):
    """A pipeline stage overran its wall-clock deadline.

    Raised *cooperatively*: long-running loops call
    :func:`repro.core.resilience.check_deadline`, so a pathological
    kernel fails the stage instead of hanging the process.
    """

    action = "raise --stage-timeout, or pass explicit tile sizes to skip search"


class SchedulingError(ReproError):
    """Polyhedral scheduling (Pluto row construction, legality checking)
    failed to produce a usable schedule."""

    action = "the sequence-order fallback should apply; report if it did not"


class TilingError(ReproError):
    """Tile-size selection or the exact-fit loop could not produce sizes
    that satisfy the on-chip buffer capacities."""

    action = "pass explicit --tile-policy sizes, or shrink the kernel shapes"


class FusionError(ReproError):
    """Post-tiling fusion could not extend the tile nest with producer
    instances (unsupported tree shape, unbounded band rows)."""

    action = "rerun with --no-fusion to compile the groups separately"


class CodegenError(ReproError):
    """Instruction emission or storage planning failed on a legal
    schedule (invariant violation in the backend)."""

    action = "rerun with --sync naive and --dump-tree to localise the group"


class CacheCorruptionError(ReproError):
    """A persistent-cache entry failed its integrity check.

    Never fatal on its own: the cache layer deletes the entry and
    recompiles.  The class exists so the event is *typed* in resilience
    reports and so the fault harness can exercise the recovery path.
    """

    action = "no action needed (entry deleted, kernel recompiled); if frequent, check the cache volume"


class ExecutionFallbackError(ReproError):
    """The vectorized execution engine could not run a statement and the
    scalar interpreter must take over.

    ``repro.runtime.vectorized.Unvectorizable`` subclasses this, so
    engine-selection code catches exactly the typed fallback trigger and
    genuine bugs (``IndexError`` from a bad plan) keep propagating.
    """

    action = "no action needed (scalar engine is bit-identical); check exec_stats for the reason"


class NetworkPlanError(ReproError):
    """The graph-level pipeline could not assemble a whole-network plan
    (ambiguous tensor names across subgraphs, a subgraph consuming a
    tensor no step produces, or a batch input missing at replay time)."""

    action = "check the network builder's tensor names and the replay inputs"


class ServiceError(ReproError):
    """The compile service could not accept or complete a request for a
    reason outside the compilation pipeline itself: a malformed request,
    a full queue, a shut-down daemon, or a wire-protocol violation.

    Failures *inside* a request's compilation keep their own classes —
    the service reports them per-request with their usual exit codes,
    and the daemon itself stays up.
    """

    action = "check the request payload and that akgd is running; see the daemon log"


class ServiceOverloadError(ServiceError):
    """The service shed this request at admission: the queue is full, or
    the submitting client exceeded its fairness cap.

    Carries ``retry_after`` — the service's estimate (seconds) of when a
    resubmission will find room, computed from the live queue depth and
    the recent average request cost.  Clients that honor the hint smooth
    the load instead of hammering a saturated daemon.
    """

    action = "back off for retry_after seconds and resubmit"

    def __init__(self, message: str, *, retry_after: float = 0.0, **kwargs):
        super().__init__(message, **kwargs)
        self.retry_after = retry_after


class QuarantinedError(ServiceError):
    """The request's kernel digest tripped the poison-kernel breaker.

    After ``threshold`` consecutive timeouts/crashes for one IR digest
    the service stops burning worker budget on it: further requests fail
    immediately with this error until the cool-down elapses, after which
    a single half-open probe is allowed through.  ``retry_after`` is the
    remaining cool-down.
    """

    action = "the kernel keeps timing out or crashing workers; fix it or retry after the cool-down"

    def __init__(self, message: str, *, retry_after: float = 0.0, **kwargs):
        super().__init__(message, **kwargs)
        self.retry_after = retry_after


class VerificationError(ReproError):
    """The static verifier (:mod:`repro.verify`) rejected a compiled
    result: a dependence is not preserved by the final schedule, an array
    access can fall outside its tensor's extents, a cross-pipe access
    pair lacks a separating sync, or an arena slot aliases overlapping
    live ranges.

    Raised *instead of* returning the result — a rejected compile is
    never disk-cached, served, or stitched into a network plan.
    """

    action = "the compiled artefact is unsafe; rerun with --dump-tree and file the kernel as a bug"


#: CLI exit codes, one per class, documented in the README.  1 is left to
#: argparse/unexpected errors; 2 is the generic typed failure.
EXIT_CODES: Dict[Type[ReproError], int] = {
    ReproError: 2,
    SolverBudgetError: 3,
    StageTimeoutError: 4,
    SchedulingError: 5,
    TilingError: 6,
    FusionError: 7,
    CodegenError: 8,
    CacheCorruptionError: 9,
    ExecutionFallbackError: 10,
    NetworkPlanError: 11,
    ServiceError: 12,
    VerificationError: 13,
    ServiceOverloadError: 14,
    QuarantinedError: 15,
}


def exit_code_for(exc: BaseException) -> int:
    """The documented exit code for a typed error (2 for bare ReproError)."""
    for klass in type(exc).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]  # most-derived class wins
    return 1


def error_classes() -> Dict[str, Type[ReproError]]:
    """Name → class map of the full taxonomy (used by the fault harness)."""
    return {
        klass.__name__: klass
        for klass in (
            ReproError,
            SolverBudgetError,
            StageTimeoutError,
            SchedulingError,
            TilingError,
            FusionError,
            CodegenError,
            CacheCorruptionError,
            ExecutionFallbackError,
            NetworkPlanError,
            ServiceError,
            ServiceOverloadError,
            QuarantinedError,
            VerificationError,
        )
    }
