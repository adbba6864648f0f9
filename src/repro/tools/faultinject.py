"""Deterministic fault injection for the compilation pipeline.

Each failure-prone layer registers a *named site* and calls
:func:`fire` (or :func:`directive` for sites that mangle data rather
than raise).  With no spec active both are a couple of dict lookups —
the harness costs nothing in production.

A spec is a comma-separated list of directives::

    site:mode[@stage][#skip=N][#limit=M]

- ``site``   one of :data:`SITES` (``ilp.solve``, ``fm.eliminate``,
  ``sched.pluto_row``, ``tiling.auto_search``, ``fusion.posttile``,
  ``diskcache.read``, ``exec.vectorized``, ``autotune.worker``,
  ``verify.schedule``, ``verify.sync``, and the service-level sites
  ``service.dispatch``, ``service.worker``, ``service.wire``);
- ``mode``   ``error`` (raise the site's typed error), ``delay``
  (backdate the innermost stage deadline so the next cooperative
  :func:`~repro.core.resilience.check_deadline` raises
  ``StageTimeoutError`` — models an overrun without sleeping),
  ``corrupt`` / ``truncate`` (returned by :func:`directive` for the
  cache layer to mangle entry bytes), ``crash`` (``os._exit(1)``, for
  tuner worker-death tests — only honoured at ``autotune.worker``),
  ``hang`` (stall the thread for :data:`HANG_SECONDS` while ignoring
  cooperative deadlines — only honoured at ``service.worker``, for
  worker-supervision tests);
- ``@stage`` only fire while the named resilience stage (or a scope
  whose name starts with it) is active — e.g.
  ``ilp.solve:error@frontend.schedule`` faults scheduling ILPs but
  leaves dependence-analysis ILPs alone;
- ``#skip=N`` skip the first N matching hits; ``#limit=M`` fire at most
  M times.  Counters make every run deterministic: a given spec on a
  given kernel faults exactly the same calls every time.

Activation: programmatically via :func:`inject` (a context manager) or
:func:`set_spec`, or via the ``REPRO_FAULT_SPEC`` environment variable
(re-read whenever its raw value changes, so subprocesses inherit faults
and tests can monkeypatch it).

Programmatic specs are **thread-local**: a compile-service request that
carries a ``fault_spec`` installs it only on the worker thread running
that request, so concurrent requests on sibling threads are untouched.
The environment spec stays process-global — it must be, both so the
parallel tuner's pool children inherit crash directives and so a daemon
launched under ``REPRO_FAULT_SPEC`` faults uniformly.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Type

from repro.core import resilience
from repro.core.errors import (
    CacheCorruptionError,
    CodegenError,
    ExecutionFallbackError,
    FusionError,
    ReproError,
    SchedulingError,
    ServiceError,
    SolverBudgetError,
    TilingError,
    VerificationError,
)

__all__ = ["SITES", "fire", "directive", "inject", "set_spec", "current_spec"]

#: Registered sites → the typed error an ``error`` directive raises there.
SITES: Dict[str, Type[ReproError]] = {
    "ilp.solve": SolverBudgetError,
    "fm.eliminate": SolverBudgetError,
    "sched.pluto_row": SchedulingError,
    "tiling.auto_search": TilingError,
    "fusion.posttile": FusionError,
    "storage.promote": CodegenError,
    "diskcache.read": CacheCorruptionError,
    "exec.vectorized": ExecutionFallbackError,
    "autotune.worker": ReproError,
    "verify.schedule": VerificationError,
    "verify.sync": VerificationError,
    "service.dispatch": ServiceError,
    "service.worker": ServiceError,
    "service.wire": ServiceError,
}

_MODES = ("error", "delay", "corrupt", "truncate", "crash", "hang")

#: How long a ``hang`` directive stalls its worker thread.  Long enough
#: that any supervision watchdog (2 s at most in the tests) fires
#: first, short enough that an abandoned zombie thread drains away on
#: its own in bounded time.
HANG_SECONDS = 8.0


class _Directive:
    __slots__ = ("site", "mode", "stage", "skip", "limit", "hits", "fired")

    def __init__(self, site: str, mode: str, stage: Optional[str], skip: int, limit: Optional[int]):
        self.site = site
        self.mode = mode
        self.stage = stage
        self.skip = skip
        self.limit = limit
        self.hits = 0    # matching calls seen
        self.fired = 0   # faults actually delivered


def _parse(spec: str) -> Dict[str, List[_Directive]]:
    table: Dict[str, List[_Directive]] = {}
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        body = raw
        skip = 0
        limit: Optional[int] = None
        while "#" in body:
            body, _, flag = body.rpartition("#")
            if flag.startswith("skip="):
                skip = int(flag[5:])
            elif flag.startswith("limit="):
                limit = int(flag[6:])
            elif flag == "once":
                limit = 1
            else:
                raise ValueError(f"bad fault flag {flag!r} in {raw!r}")
        stage = None
        if "@" in body:
            body, _, stage = body.partition("@")
        site, sep, mode = body.partition(":")
        if not sep:
            raise ValueError(f"fault directive needs site:mode, got {raw!r}")
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r} (known: {sorted(SITES)})")
        if mode not in _MODES:
            raise ValueError(f"unknown fault mode {mode!r} (known: {_MODES})")
        table.setdefault(site, []).append(_Directive(site, mode, stage, skip, limit))
    return table


# Programmatic specs are per-thread (service requests must not leak
# faults into sibling workers); the env-derived spec is process-global.
_TLS = threading.local()
_ENV_ACTIVE: Optional[Dict[str, List[_Directive]]] = None
_ENV_RAW: Optional[str] = None
_ENV_LOCK = threading.Lock()
# Guards directive hit/fired counters, which sibling threads may share
# when matching against the env table.
_COUNT_LOCK = threading.Lock()


def set_spec(spec: Optional[str]) -> None:
    """Install a fault spec programmatically on *this thread*.

    Overrides ``REPRO_FAULT_SPEC`` for this thread until cleared with
    ``None`` (other threads keep following the environment).
    """
    if spec:
        _TLS.table = _parse(spec)
        _TLS.raw = spec
    else:
        _TLS.table = None
        _TLS.raw = None


def current_spec() -> Optional[str]:
    raw = getattr(_TLS, "raw", None)
    if raw is not None:
        return raw
    _env_table()
    return _ENV_RAW


@contextmanager
def inject(spec: str):
    """Activate a fault spec on this thread for a with-block."""
    prev_raw = getattr(_TLS, "raw", None)
    set_spec(spec)
    try:
        yield
    finally:
        set_spec(prev_raw)


def _env_table() -> Optional[Dict[str, List[_Directive]]]:
    """Sync with ``REPRO_FAULT_SPEC`` (re-parsed when the value changes)."""
    global _ENV_ACTIVE, _ENV_RAW
    raw = os.environ.get("REPRO_FAULT_SPEC") or None
    with _ENV_LOCK:
        if raw != _ENV_RAW:
            _ENV_ACTIVE = _parse(raw) if raw else None
            _ENV_RAW = raw
        return _ENV_ACTIVE


def _match(site: str) -> Optional[_Directive]:
    table = getattr(_TLS, "table", None)
    if table is None:
        table = _env_table()
    if table is None:
        return None
    directives = table.get(site)
    if not directives:
        return None
    stages = resilience.active_stage_names()
    with _COUNT_LOCK:
        for d in directives:
            if d.stage is not None and not any(s.startswith(d.stage) for s in stages):
                continue
            d.hits += 1
            if d.hits <= d.skip:
                continue
            if d.limit is not None and d.fired >= d.limit:
                continue
            d.fired += 1
            return d
    return None


def fire(site: str, detail: str = "") -> None:
    """Deliver any active fault for ``site`` (no-op when none matches).

    ``error`` raises the site's typed error class; ``delay`` backdates
    the innermost active deadline and re-checks it; ``crash`` kills the
    process (tuner worker-death tests).  Data-mangling modes
    (``corrupt``/``truncate``) are ignored here — sites that honour them
    use :func:`directive` instead.
    """
    d = _match(site)
    if d is None:
        return
    if d.mode == "error":
        klass = SITES[site]
        message = f"injected fault at {site}"
        if detail:
            message += f" ({detail})"
        raise klass(message, stage=resilience.active_stage())
    if d.mode == "delay":
        if resilience.backdate_deadline():
            resilience.check_deadline()
        # No deadline active: an injected overrun has nothing to trip;
        # the scenario still proves the stage runs un-budgeted.
        return
    if d.mode == "crash" and site == "autotune.worker":
        os._exit(1)
    if d.mode == "hang" and site == "service.worker":
        # A stuck worker: sleep in small increments (not one long sleep,
        # so an interpreter shutdown never waits on it) while ignoring
        # every cooperative deadline — exactly the failure the service
        # supervisor exists to detect.
        end = time.monotonic() + HANG_SECONDS
        while time.monotonic() < end:
            time.sleep(0.05)


def directive(site: str) -> Optional[str]:
    """The active mode for a data-mangling site, or None.

    ``diskcache.read`` calls this and, on ``corrupt``/``truncate``,
    mangles the entry bytes before deserialising — exercising the real
    integrity check rather than a simulated one.  Other modes are
    delivered through :func:`fire` semantics for uniformity.
    """
    d = _match(site)
    if d is None:
        return None
    if d.mode == "error":
        klass = SITES[site]
        raise klass(f"injected fault at {site}", stage=resilience.active_stage())
    if d.mode == "delay":
        if resilience.backdate_deadline():
            resilience.check_deadline()
        return None
    return d.mode
