"""What a worker does with one request.  Handlers run with no service
state in reach: :func:`execute` gives them the request and its options
with the service's deadlines applied, they return the payload or raise."""

from __future__ import annotations

import copy
import hashlib
import time
from typing import Any, Callable, Dict, Optional

from repro.autotune.tuner import DEFAULT_TUNE_PARAMS
from repro.core import faults
from repro.service.request import ServiceRequest

__all__ = ["HANDLERS", "execute", "effective_options"]


def execute(
    request: ServiceRequest,
    remaining: Optional[float],
    default_stage_seconds: Optional[float],
) -> Dict[str, Any]:
    """Run ``request``'s handler with ``remaining`` seconds to live (None =
    unbounded).  The service measures ``remaining`` on its own clock;
    stage deadlines are absolute ``time.monotonic()`` values, so this is
    where the two meet.  The ``service.request`` stage spans the whole
    execution: the cooperative ``check_deadline`` machinery enforces the
    *request's* deadline, not just each stage's, and ``perf.report()``
    gets the request's run time.
    """
    from repro.core.context import check_deadline, stage

    deadline = None if remaining is None else time.monotonic() + remaining
    with stage("service.request", deadline=deadline):
        faults.fire("service.worker")
        check_deadline()
        options = effective_options(request, default_stage_seconds)
        return HANDLERS[request.kind](request, options)


def effective_options(
    request: ServiceRequest, default_stage_seconds: Optional[float]
):
    """The request's options with service deadlines applied.

    Copies before mutating (callers may share one options object
    across requests); an explicit per-request ``stage_seconds``
    always wins over the service default, but the request's
    *end-to-end* deadline (the open ``service.request`` stage's)
    clamps whatever stage budget results — a stage can never be granted more time
    than the whole request has left.
    """
    from repro.core.compiler import AkgOptions
    from repro.core.resilience import StageBudget, remaining_deadline

    options = copy.copy(request.options) if request.options else AkgOptions()
    budget = options.budget
    stage_seconds = budget.stage_seconds
    if stage_seconds is None and default_stage_seconds is not None:
        stage_seconds = default_stage_seconds
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


def _handle_compile(request: ServiceRequest, options) -> Dict[str, Any]:
    from repro.core.compiler import build

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


def _handle_tune(request: ServiceRequest, options) -> Dict[str, Any]:
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


def _handle_replay(request: ServiceRequest, options) -> Dict[str, Any]:
    from repro.core.compiler import build

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


#: Request kind → handler ``(request, options) -> payload``.
HANDLERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "compile": _handle_compile,
    "tune": _handle_tune,
    "replay": _handle_replay,
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
