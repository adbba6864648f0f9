"""A compile request, its outcome, and the two digests the service files
them under: :meth:`ServiceRequest.coalescing_key` ("the same job" —
duplicates merge, results are memoised) and
:meth:`ServiceRequest.quarantine_key` ("the same kernel" — the poison
breaker's key)."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

# The tune budget applied when a tune request does not override it; its
# values are part of the tune coalescing_key.
from repro.autotune.tuner import DEFAULT_TUNE_PARAMS
from repro.core.errors import ServiceError, exit_code_for

__all__ = ["ServiceRequest", "ServiceResult", "error_body"]

#: Request kinds the service executes.
KINDS = ("compile", "tune", "replay")
#: Every key a tune request's ``tune_params`` may carry, each an integer
#: of at least the given value.  The tuner's process pool is not among
#: them: a tune request measures its candidates in the service's worker.
TUNE_MINIMUMS = {"first_round": 1, "round_size": 1, "max_rounds": 1, "seed": 0}


@dataclass(eq=False, repr=False, slots=True)
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

    kind: str
    outputs: Any
    name: str = "kernel"
    hw: Any = None
    options: Any = None
    fault_spec: Optional[str] = None
    tune_params: Optional[Dict[str, Any]] = None
    inputs: Optional[Dict[str, Any]] = None
    seed: int = 0
    engine: str = "auto"
    bindings: Optional[Dict[str, int]] = None
    deadline_seconds: Optional[float] = None
    client_id: Optional[str] = None
    _fingerprints: Optional[Tuple[str, str]] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ServiceError(f"unknown request kind {self.kind!r} (known: {KINDS})")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ServiceError(
                f"deadline_seconds must be positive, got {self.deadline_seconds!r}"
            )
        if self.tune_params is not None:
            unknown = set(self.tune_params) - set(TUNE_MINIMUMS)
            if unknown:
                raise ServiceError(
                    f"unknown tune key(s) {sorted(unknown)} "
                    f"(known: {sorted(TUNE_MINIMUMS)})"
                )
            for key, value in self.tune_params.items():
                if (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or value < TUNE_MINIMUMS[key]
                ):
                    raise ServiceError(
                        f"tune {key!r} must be an integer of at least "
                        f"{TUNE_MINIMUMS[key]}, got {value!r}"
                    )

    def _kernel_fingerprints(self) -> Optional[Tuple[str, str]]:
        """``(ir, hw)`` fingerprints, rendered once per request.

        ``None`` when either is unfingerprintable.  Only the default
        hardware's fingerprint outlives the request (an explicit ``hw``
        is mutable).  The walk is called directly, not through
        ``ir_fingerprint``: a memo hit is ~340 Python calls, each gated.
        """
        if self._fingerprints is None:
            from repro.core import diskcache

            try:
                self._fingerprints = (
                    diskcache.graph_fingerprint(self.outputs)[0],
                    diskcache.hw_fingerprint(self.hw)
                    if self.hw is not None
                    else diskcache.default_hw_fingerprint(),
                )
            except diskcache.FingerprintError:
                return None
        return self._fingerprints

    def coalescing_key(self) -> Optional[str]:
        """Content digest under which concurrent duplicates merge.

        Mirrors the disk-cache key composition (IR + hardware + backend
        options fingerprints) extended with the request kind and
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


def error_body(exc: BaseException, default_action: str) -> Dict[str, Any]:
    """One failure as a JSON-able body; ``default_action`` is the action
    line of an exception that brings none (what an untyped failure means
    depends on where it was caught)."""
    body: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "exit_code": exit_code_for(exc),
        "action": getattr(exc, "action", default_action),
    }
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        body["retry_after"] = retry_after
    return body


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
        self.error = error_body(exc, "unexpected failure; see the daemon log")
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

