"""The akgd wire schema: JSON requests in, JSON results out.

One request per line, one response per line (JSON-lines over TCP — see
:mod:`repro.service.server`).  The kernel vocabulary is the demo-op set
``akgc`` compiles (relu / add / softmax / matmul / conv2d), built here by
:func:`demo_kernel` so the CLI and the daemon can never drift apart.

Request schema (``kind`` defaults to ``compile``)::

    {"kind": "compile", "op": "matmul", "shape": [64, 64, 64],
     "dtype": "fp16", "name": "...",
     "options": {"tile_policy": ..., "sync_policy": "dp",
                 "no_fusion": false, "verify": false,
                 "stage_timeout": 30.0, "solver_budget": 50000},
     "fault_spec": "storage.promote:error"}          # chaos only
    {"kind": "tune", "op": ..., "shape": ...,
     "tune": {"first_round": 6, "round_size": 3, "max_rounds": 2,
              "seed": 0}}
    {"kind": "replay", "op": ..., "shape": ..., "seed": 0,
     "engine": "auto"}

An optional ``"batch_max": 16`` makes the leading dim symbolic: every
batch size of the same shape class shares one compile (requests for
different ``shape[0]`` values coalesce into a single build), and replay
binds ``shape[0]`` at execution time.  An optional ``"deadline": 5.0``
is the request's end-to-end wall-clock allowance in seconds (expired
requests fail typed with ``StageTimeoutError`` instead of running), and
``"client_id": "ci-bot"`` attributes the request for the daemon's
per-client fairness cap.

plus the control verbs ``{"kind": "ping"}``, ``{"kind": "stats"}`` and
``{"kind": "shutdown"}`` handled by the server directly.

Parsing is *strict*: unknown top-level, options or tune keys,
wrong-typed values (a string ``batch_max``, a boolean ``stage_timeout``,
a zero ``max_rounds``) and oversized lines all produce a typed
:class:`ServiceError` response — never a raw traceback, and never a
silently-ignored field that the client believed was doing something.

Responses carry ``ok`` and either a kind-specific summary (compiled
programs are summarised — cycles, tile sizes and the sha256 of the
instruction-stream dump, which is what the bit-identical checks compare
— never pickled over the wire) or ``error`` with the typed class name,
message, documented exit code and action line.  Malformed requests
produce a :class:`~repro.core.errors.ServiceError` response (exit code
12) without disturbing the daemon.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

from repro.core import faults
from repro.core.errors import ServiceError
from repro.service.request import ServiceRequest, ServiceResult, error_body

__all__ = ["DEMO_OPS", "demo_kernel", "request_from_json", "result_to_json"]

#: The demo-kernel vocabulary shared with ``akgc``.
DEMO_OPS = ("relu", "add", "softmax", "matmul", "conv2d")


def demo_kernel(
    op: str,
    shape: List[int],
    dtype: str = "fp16",
    kernel: int = 3,
    stride: int = 1,
    out_channels: Optional[int] = None,
    batch_max: Optional[int] = None,
):
    """Build one named demo kernel's output tensor expression.

    With ``batch_max`` the leading dim (``M`` for matmul, ``N``
    otherwise) is built symbolic with that declared maximum: the graph —
    and hence every compile fingerprint — depends only on the shape
    *class*, while the requested ``shape[0]`` binds at replay time.

    Raises ``ValueError`` on a bad op/shape combination; callers map
    that to their surface (``SystemExit`` in akgc, a ServiceError
    response in the daemon).
    """
    from repro.ir import ops
    from repro.ir.tensor import SymDim, placeholder

    shape = [int(x) for x in shape]
    lead = shape[0] if shape else 0
    if batch_max is not None:
        batch_max = int(batch_max)
        if not 1 <= lead <= batch_max:
            raise ValueError(
                f"shape[0]={lead} must lie in [1, batch_max={batch_max}]"
            )
        lead = SymDim("N", batch_max)
    if op == "relu":
        x = placeholder((lead, *shape[1:]), dtype=dtype, name="X")
        return ops.relu(x, name="out")
    if op == "add":
        x = placeholder((lead, *shape[1:]), dtype=dtype, name="X")
        y = placeholder((lead, *shape[1:]), dtype=dtype, name="Y")
        return ops.add(x, y, name="out")
    if op == "softmax":
        x = placeholder((lead, *shape[1:]), dtype=dtype, name="X")
        return ops.softmax_last_axis(x, name="out")
    if op == "matmul":
        if len(shape) != 3:
            raise ValueError("matmul expects shape [M, K, N]")
        _, k, n = shape
        a = placeholder((lead, k), dtype=dtype, name="A")
        b = placeholder((k, n), dtype=dtype, name="B")
        return ops.matmul(a, b, name="out")
    if op == "conv2d":
        if len(shape) != 4:
            raise ValueError("conv2d expects shape [N, C, H, W]")
        _, c, h, w = shape
        co = out_channels or c
        data = placeholder((lead, c, h, w), dtype=dtype, name="D")
        weight = placeholder((co, c, kernel, kernel), dtype=dtype, name="W")
        pad = kernel // 2
        return ops.conv2d(
            data, weight, stride=(stride, stride), padding=(pad, pad), name="out"
        )
    raise ValueError(f"unknown op {op!r} (known: {DEMO_OPS})")


#: The typed fields of a request and of its ``options``: key -> (JSON
#: type, default).  ``float`` is a positive number (returned as a float);
#: a bool is never a number; a field whose default is None may be absent.
REQUEST_FIELDS = {
    "batch_max": (int, None),
    "kernel": (int, 3),
    "stride": (int, 1),
    "seed": (int, 0),
    "deadline": (float, None),
    "name": (str, None),
    "fault_spec": (str, None),
    "client_id": (str, None),
    "engine": (str, "auto"),
}
OPTION_FIELDS = {"stage_timeout": (float, None), "solver_budget": (int, None)}
#: Every key a ``tune`` object may carry, each an integer of at least the
#: given value.  The tuner's process pool is not a wire field: a daemon
#: measures a tune request's candidates in its own worker.
TUNE_MINIMUMS = {"first_round": 1, "round_size": 1, "max_rounds": 1, "seed": 0}
TUNE_FIELDS = {key: (int, None) for key in TUNE_MINIMUMS}

#: Every key a request object may carry; anything else is a typed error.
REQUEST_KEYS = frozenset(
    ("kind", "op", "shape", "dtype", "out_channels", "options", "tune")
    + tuple(REQUEST_FIELDS)
)
#: Every key an ``options`` object may carry.
OPTION_KEYS = frozenset(
    ("tile_policy", "tile_sizes", "sync_policy", "no_fusion", "emit_trace", "verify")
    + tuple(OPTION_FIELDS)
)

_TYPE_NAMES = {int: "an integer", float: "a positive number", str: "a string"}


def _typed(payload: Dict[str, Any], fields: Dict[str, tuple]) -> Dict[str, Any]:
    """``fields`` of ``payload``, each checked against its JSON type."""
    out = {}
    for key, (kind, default) in fields.items():
        value = payload.get(key, default)
        if value is not None or default is not None:
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float) if kind is float else kind)
                or (kind is float and value <= 0)
            ):
                raise ServiceError(
                    f"{key!r} must be {_TYPE_NAMES[kind]}, got {value!r}"
                )
            if kind is float:
                value = float(value)
        out[key] = value
    return out


def _options_from_json(payload: Optional[Dict[str, Any]]):
    from repro.core.compiler import AkgOptions
    from repro.core.resilience import StageBudget

    payload = payload or {}
    if not isinstance(payload, dict):
        raise ServiceError("'options' must be a JSON object")
    unknown = set(payload) - OPTION_KEYS
    if unknown:
        raise ServiceError(
            f"unknown options key(s) {sorted(unknown)} "
            f"(known: {sorted(OPTION_KEYS)})"
        )
    budget = None
    typed = _typed(payload, OPTION_FIELDS)
    if typed["stage_timeout"] is not None or typed["solver_budget"]:
        budget = StageBudget(
            stage_seconds=typed["stage_timeout"],
            solver_nodes=typed["solver_budget"],
        )
    try:
        return AkgOptions(
            tile_policy=payload.get("tile_policy"),
            tile_sizes=payload.get("tile_sizes"),
            sync_policy=payload.get("sync_policy", "dp"),
            post_tiling_fusion=not payload.get("no_fusion", False),
            emit_trace=bool(payload.get("emit_trace", False)),
            verify=bool(payload.get("verify", False)),
            budget=budget,
        )
    except (ValueError, TypeError) as exc:
        raise ServiceError(f"bad options payload: {exc}")


def _tune_from_json(payload: Any) -> Optional[Dict[str, int]]:
    if not isinstance(payload, dict):
        raise ServiceError("'tune' must be a JSON object")
    unknown = set(payload) - set(TUNE_FIELDS)
    if unknown:
        raise ServiceError(
            f"unknown tune key(s) {sorted(unknown)} (known: {sorted(TUNE_FIELDS)})"
        )
    typed = _typed(payload, TUNE_FIELDS)
    for key in payload:
        if typed[key] is None or typed[key] < TUNE_MINIMUMS[key]:
            raise ServiceError(
                f"tune {key!r} must be at least {TUNE_MINIMUMS[key]}, "
                f"got {typed[key]!r}"
            )
    return payload or None


def request_from_json(payload: Dict[str, Any]) -> ServiceRequest:
    """Parse one wire request into a :class:`ServiceRequest`.

    Every malformation — wrong types, unknown ops, bad fault specs —
    raises :class:`ServiceError` so the daemon answers with exit code 12
    instead of dying.
    """
    if not isinstance(payload, dict):
        raise ServiceError("request must be a JSON object")
    unknown = set(payload) - REQUEST_KEYS
    if unknown:
        raise ServiceError(
            f"unknown request key(s) {sorted(unknown)} "
            f"(known: {sorted(REQUEST_KEYS)})"
        )
    kind = payload.get("kind", "compile")
    if kind not in ("compile", "tune", "replay"):
        raise ServiceError(f"unknown request kind {kind!r}")
    op = payload.get("op")
    shape = payload.get("shape")
    if (
        not op
        or not isinstance(op, str)
        or not isinstance(shape, list)
        or not shape
        or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in shape
        )
    ):
        raise ServiceError(
            "request needs a string 'op' and a non-empty integer 'shape' list"
        )
    fields = _typed(payload, REQUEST_FIELDS)
    batch_max = fields["batch_max"]
    try:
        outputs = demo_kernel(
            op,
            shape,
            dtype=payload.get("dtype", "fp16"),
            kernel=fields["kernel"],
            stride=fields["stride"],
            out_channels=payload.get("out_channels"),
            batch_max=batch_max,
        )
    except (ValueError, TypeError) as exc:
        raise ServiceError(f"bad kernel spec: {exc}")
    fault_spec = fields["fault_spec"]
    if fault_spec:
        try:
            faults.parse_spec(fault_spec)
        except ValueError as exc:
            raise ServiceError(f"bad fault_spec: {exc}")
    tune_params = payload.get("tune")
    if tune_params is not None:  # no call on a compile request's hot path
        tune_params = _tune_from_json(tune_params)
    # Symbolic requests get a shape-*class* tag (the requested batch must
    # not leak into the kernel name: the name is part of the compile
    # fingerprint, and batch sizes of one class must share it).
    tags = [str(int(x)) for x in shape]
    bindings = None
    if batch_max is not None:
        tags[0] = f"N{int(batch_max)}"
        bindings = {"N": int(shape[0])}
    return ServiceRequest(
        kind,
        outputs,
        name=fields["name"] or f"akgd_{op}_{'x'.join(tags)}",
        options=_options_from_json(payload.get("options")),
        fault_spec=fault_spec,
        tune_params=tune_params,
        seed=fields["seed"],
        engine=fields["engine"],
        bindings=bindings,
        deadline_seconds=fields["deadline"],
        client_id=fields["client_id"],
    )


def result_to_json(result: ServiceResult) -> Dict[str, Any]:
    """Render a :class:`ServiceResult` as the wire response dict."""
    out: Dict[str, Any] = {
        "ok": result.ok,
        "kind": result.kind,
        "request_id": result.request_id,
        "coalesced": result.coalesced,
        "cached": result.cached,
        "queue_seconds": round(result.queue_seconds, 6),
        "run_seconds": round(result.run_seconds, 6),
    }
    if not result.ok:
        out["error"] = dict(result.error or {})
        return out
    value = result.value or {}
    if result.kind in ("compile", "replay"):
        compiled = value.get("result")
        if compiled is not None:
            out["program_sha256"] = value["program_sha256"]
            out["tile_sizes"] = list(compiled.tile_sizes)
            out["degraded"] = bool(compiled.resilience.degraded)
            if getattr(compiled, "verified_clean", False):
                out["verified"] = True
    if result.kind == "compile":
        out["cycles"] = value.get("cycles")
        out["dma_bytes"] = value.get("dma_bytes")
    elif result.kind == "tune":
        out["best_sizes"] = value.get("best_sizes")
        out["candidates"] = value.get("candidates")
        out["best_cycles"] = value.get("best_cycles")
    elif result.kind == "replay":
        digests = {}
        for name, array in (value.get("outputs") or {}).items():
            digests[name] = {
                "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
                "shape": list(array.shape),
                "dtype": str(array.dtype),
            }
        out["outputs"] = digests
    return out


def error_to_json(exc: BaseException) -> Dict[str, Any]:
    """The response body for a failure outside any request's execution."""
    return {"ok": False, "error": error_body(exc, "check the request payload")}
