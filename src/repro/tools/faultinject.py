"""Deterministic fault injection for the compilation pipeline.

Each failure-prone layer registers a *named site* and calls
:func:`fire` (spelled :func:`directive` at sites that mangle data rather
than raise).  With no spec active a site costs one thread-local read and
one ``os.environ.get`` — four Python-level calls, no lock, no parse.

A spec is a comma-separated list of directives::

    site:mode[@stage][#skip=N][#limit=M]

- ``site``   one of :data:`SITES` (``ilp.solve``, ``fm.eliminate``,
  ``sched.pluto_row``, ``tiling.auto_search``, ``fusion.posttile``,
  ``diskcache.read``, ``exec.vectorized``, ``autotune.worker``,
  ``verify.schedule``, ``verify.sync``, and the service-level sites
  ``service.dispatch``, ``service.worker``, ``service.wire``);
- ``mode``   ``error`` (raise the site's typed error), ``delay``
  (backdate the innermost stage deadline so the next cooperative
  :func:`~repro.core.context.check_deadline` raises
  ``StageTimeoutError`` — models an overrun without sleeping),
  ``corrupt`` / ``truncate`` (returned to the site, for the cache
  layer to mangle entry bytes), ``crash`` (``os._exit(1)``, for
  tuner worker-death tests — only honoured at ``autotune.worker``),
  ``hang`` (stall the thread for :data:`HANG_SECONDS` while ignoring
  cooperative deadlines — only honoured at ``service.worker``, for
  worker-supervision tests);
- ``@stage`` only fire while the named stage (or one whose name
  starts with it) is open on the calling thread — e.g.
  ``ilp.solve:error@frontend.schedule`` faults scheduling ILPs but
  leaves dependence-analysis ILPs alone;
- ``#skip=N`` skip the first N matching hits; ``#limit=M`` fire at most
  M times.  Counters make every run deterministic: a given spec on a
  given kernel faults exactly the same calls every time.

Activation: programmatically via :func:`inject` (a context manager) or
:func:`set_spec`, or via the ``REPRO_FAULT_SPEC`` environment variable
(re-read whenever its raw value changes, so subprocesses inherit faults
and tests can monkeypatch it).

Programmatic specs live on the thread's compile context
(:data:`repro.core.context.CTX`): a compile-service request that carries
a ``fault_spec`` installs it only on the worker thread running that
request, so concurrent requests on sibling threads are untouched.  The
environment spec stays process-global — it must be, both so the
parallel tuner's pool children inherit crash directives and so a daemon
launched under ``REPRO_FAULT_SPEC`` faults uniformly.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Type

from repro.core.context import (
    CTX,
    LOCK,
    active_stage,
    backdate_deadline,
    check_deadline,
)
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

__all__ = [
    "SITES",
    "parse_spec",
    "fire",
    "directive",
    "inject",
    "set_spec",
    "current_spec",
]

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


def parse_spec(spec: str) -> Dict[str, List[_Directive]]:
    """Parse a spec into ``site -> directives``; ``ValueError`` if malformed."""
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


# The env-derived spec is process-global (programmatic ones are on CTX).
# Directive hit/fired counters are shared by every thread matching
# against it, hence ``context.LOCK`` around them and around the re-parse.
_ENV_ACTIVE: Optional[Dict[str, List[_Directive]]] = None
_ENV_RAW: Optional[str] = None


def set_spec(spec: Optional[str]) -> None:
    """Install a fault spec programmatically on *this thread*.

    Overrides ``REPRO_FAULT_SPEC`` for this thread until cleared with
    ``None`` (other threads keep following the environment).
    """
    CTX.faults = parse_spec(spec) if spec else None
    CTX.fault_spec = spec or None


def current_spec() -> Optional[str]:
    if CTX.fault_spec is not None:
        return CTX.fault_spec
    _sync_env(os.environ.get("REPRO_FAULT_SPEC") or None)
    return _ENV_RAW


@contextmanager
def inject(spec: str):
    """Activate a fault spec on this thread for a with-block."""
    prev = CTX.fault_spec
    set_spec(spec)
    try:
        yield
    finally:
        set_spec(prev)


def _sync_env(raw: Optional[str]) -> Optional[Dict[str, List[_Directive]]]:
    """Re-parse ``REPRO_FAULT_SPEC`` if its value changed since last seen."""
    global _ENV_ACTIVE, _ENV_RAW
    with LOCK:
        if raw != _ENV_RAW:
            _ENV_ACTIVE = parse_spec(raw) if raw else None
            _ENV_RAW = raw
        return _ENV_ACTIVE


def fire(site: str, detail: str = "") -> Optional[str]:
    """Deliver any active fault for ``site`` (no-op when none matches).

    ``error`` raises the site's typed error class; ``delay`` backdates
    the innermost active deadline and re-checks it; ``crash`` kills the
    process (tuner worker-death tests).  The data-mangling modes
    (``corrupt``/``truncate``) are returned for the site to act on:
    ``diskcache.read`` mangles the entry bytes before deserialising,
    exercising the real integrity check rather than a simulated one;
    sites that do not mangle ignore the return value.
    """
    table = CTX.faults
    if table is None:
        raw = os.environ.get("REPRO_FAULT_SPEC") or None
        table = _ENV_ACTIVE if raw == _ENV_RAW else _sync_env(raw)
        if table is None:
            return None
    directives = table.get(site)
    if not directives:
        return None
    frames = CTX.frames
    with LOCK:
        for d in directives:
            if d.stage is not None and not any(
                frame.name.startswith(d.stage) for frame in frames
            ):
                continue
            d.hits += 1
            if d.hits <= d.skip:
                continue
            if d.limit is not None and d.fired >= d.limit:
                continue
            d.fired += 1
            break
        else:
            return None
    if d.mode == "error":
        message = f"injected fault at {site}"
        if detail:
            message += f" ({detail})"
        raise SITES[site](message, stage=active_stage())
    if d.mode == "delay":
        if backdate_deadline():
            check_deadline()
        # No deadline active: an injected overrun has nothing to trip;
        # the scenario still proves the stage runs un-budgeted.
        return None
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
    return d.mode


#: :func:`fire`, as data-mangling sites spell it: they use the returned mode.
directive = fire
