"""serve_mix: the real daemon path, cold then warm.

``AkgdServer`` + ``CompileService`` in this process, two
``ServiceClient`` threads over TCP.  Closed loop, two clients: each
caller of a compile daemon waits for its reply, and the host has two
cores.  Disk cache off, ten unique ``wire.demo_kernel`` payloads.

Cold phase: every unique payload six times in seeded order — a miss
builds, duplicates in flight coalesce, later ones hit the memo; almost
all CPU is the compiler, so compiler gains show here
(``cold_req_cpu_ms``).  Warm phase: seeded requests that all hit the
memo — connect + JSON + ``request_from_json`` + digest + memo, no
compiler at all — which is what ROADMAP's service refactor and any
span/registry overhead are priced on (``warm_req_cpu_ms``).  CPU, not
wall, is the budget: every thread of the daemon shares the GIL.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Tuple

from repro.core import diskcache
from repro.ir.lower import lower
from repro.poly.cache import clear_solver_caches
from repro.runtime import reference
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.core import CompileService, ServiceRequest
from repro.service.server import AkgdServer

from akgbench import harness
from akgbench.rows import Checker, kernel_inputs
from akgbench.trace import COMPILE_SPANS

PAYLOADS: Tuple[dict, ...] = tuple(
    {"kind": "compile", "op": op, "shape": shape}
    for op, shape in (
        ("relu", [64, 128]),
        ("relu", [48, 96]),
        ("add", [64, 128]),
        ("add", [48, 96]),
        ("softmax", [32, 64]),
        ("softmax", [16, 48]),
        ("matmul", [32, 32, 32]),
        ("matmul", [48, 32, 64]),
        ("conv2d", [1, 4, 12, 12]),
        ("conv2d", [1, 8, 8, 8]),
    )
)
CLIENTS = 2
#: One worker, not the two of ISSUE 11: concurrent builds race on the
#: process-global flag-id counter in ``codegen/sync.py`` (README, "Known
#: defects"), and a workload may not contain an operation that can fail.
#: Worker threads share the GIL, so CPU per request is the same.
WORKERS = 1
COLD_DUPLICATES = 6
COLD_PHASES = 3
WARM_CHUNK = 500  # requests per calibrated warm sample


class Daemon:
    """A service, its TCP server on an ephemeral port, and a client."""

    def __init__(self):
        self.service = CompileService(workers=WORKERS)
        self.server = AkgdServer(("127.0.0.1", 0), self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="bench-akgd",
        )
        self.thread.start()
        self.client = ServiceClient(port=self.server.server_address[1], retries=0)

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.service.close()


class State:
    def __init__(self, daemon: Daemon):
        self.daemon = daemon
        self.first: Dict[int, dict] = {}  # payload index -> first ok response
        self.latency_ms: Dict[str, List[float]] = {"cold": [], "warm": []}


def setup(ctx) -> State:
    diskcache.set_disk_cache_enabled(False)
    return State(Daemon())


def teardown(ctx, state: State) -> None:
    state.daemon.stop()
    diskcache.set_disk_cache_enabled(True)


def drive(ctx, state: State, phase: str, order: List[int]) -> List[float]:
    """CLIENTS closed-loop threads drain ``order`` (payload indices);
    returns each request's wall latency in ms."""
    cursor = iter(order)
    lock = threading.Lock()
    latencies: List[float] = []

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            start = time.perf_counter()
            try:
                response = state.daemon.client.request(PAYLOADS[index])
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                response = {"ok": False, "error": {"type": type(exc).__name__}}
            elapsed = 1000.0 * (time.perf_counter() - start)
            with lock:
                latencies.append(elapsed)
                _judge(ctx, state, phase, index, response)

    threads = [threading.Thread(target=client, name=f"bench-client-{i}") for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies


def _judge(ctx, state: State, phase: str, index: int, response: dict) -> None:
    """One request = one attempted operation; failed when it errored,
    was shed, degraded, or disagrees with the first answer for the same
    payload (warm answers must also come from the memo)."""
    label = f"{phase} {PAYLOADS[index]['op']}{PAYLOADS[index]['shape']}"
    if not response.get("ok"):
        kind = (response.get("error") or {}).get("type", "?")
        ctx.tally.record(False, f"{label}: {kind}")
        return
    first = state.first.setdefault(index, response)
    same = all(
        response.get(k) == first.get(k) for k in ("program_sha256", "cycles", "tile_sizes")
    )
    why = ""
    if response.get("degraded"):
        why = "degraded"
    elif not same:
        why = "answer differs from the first answer for this payload"
    elif phase == "warm" and not response.get("cached"):
        why = "warm request missed the memo"
    ctx.tally.record(not why, f"{label}: {why}")


def _cold_order(ctx) -> List[int]:
    order = [i for i in range(len(PAYLOADS)) for _ in range(COLD_DUPLICATES)]
    ctx.rng.shuffle(order)
    return order


def _phases(ctx, state: State, sampler: harness.Sampler, budget: harness.Budget) -> None:
    """COLD_PHASES cold phases, each against an empty memo (a fresh
    daemon), then warm chunks until the budget is spent."""
    for phase in range(COLD_PHASES):
        if phase:
            state.daemon.stop()
            state.daemon = Daemon()
        clear_solver_caches()
        order = _cold_order(ctx)
        ctx.phase("cold")
        state.latency_ms["cold"] += sampler.sample(
            "cold", lambda: drive(ctx, state, "cold", order), ops=len(order)
        )
    ctx.phase("warm")
    chunks = 0
    while chunks < 2 or not budget.spent():
        order = [ctx.rng.randrange(len(PAYLOADS)) for _ in range(WARM_CHUNK)]
        state.latency_ms["warm"] += sampler.sample(
            "warm", lambda: drive(ctx, state, "warm", order), ops=WARM_CHUNK
        )
        chunks += 1


def _latency(ctx, state: State) -> Dict[str, float]:
    warm = sorted(state.latency_ms["warm"])
    cold = sorted(state.latency_ms["cold"])
    q, tail = harness.tail_percentile(warm)
    ctx.extras["warm_tail_percentile"] = q
    ctx.extras["warm_requests"] = len(warm)
    return {
        "warm_p50_ms": harness.percentile(warm, 50),
        "warm_tail_ms": tail,
        "cold_p50_ms": harness.percentile(cold, 50),
    }


def measure(ctx, state: State) -> Dict[str, float]:
    sampler = ctx.sampler("timed")
    _phases(ctx, state, sampler, ctx.budget())

    # Exact cost of one warm request, without sockets or threads: a memo
    # hit is answered on the calling thread.
    ctx.phase("count")
    kcalls = []
    for payload in PAYLOADS:
        line = json.dumps(payload).encode()
        response, calls = harness.count_calls(lambda: state.daemon.server.handle_line(line))
        ctx.tally.record(bool(response.get("cached")), "counted request missed the memo")
        kcalls.append(calls / 1000.0)

    # Code size needs the in-process results behind the wire summaries.
    instrs = 0
    for payload in PAYLOADS:
        result = state.daemon.service.run(wire.request_from_json(payload))
        instrs += len(result.value["result"].program.instructions)
    op = sampler.median("warm")
    aux = sampler.median("cold")
    latency = _latency(ctx, state)
    ctx.extras.update(
        warm_req_per_cpu_s=1000.0 / op,
        cold_req_per_cpu_s=1000.0 / aux,
        warm_p50_ms=latency["warm_p50_ms"],
        warm_tail_ms=latency["warm_tail_ms"],
        cold_p50_ms=latency["cold_p50_ms"],
        calib_cv=sampler.calib_cv(),
    )
    for phase in ("cold", "warm"):
        ctx.rows[phase] = {
            "cpu_ms_per_req": sampler.median(phase),
            "raw_cpu_ms_per_req": sampler.median(phase, "raw_ms"),
            "wall_ms_per_req": sampler.median(phase, "wall_ms"),
            "samples": len(sampler.rows[phase]),
            "requests": len(state.latency_ms[phase]),
        }
    return {
        "op_cpu_ms": op,
        "aux_cpu_ms": aux,
        "kcalls": harness.geomean(kcalls),
        "sim_cycles_geomean": harness.geomean(
            [state.first[i]["cycles"] for i in range(len(PAYLOADS))]
        ),
        "code_instrs": instrs,
    }


def check(ctx, state: State) -> None:
    """Replay through the service equals the scalar oracle, one payload
    per op (softmax in fp32: fp16 softmax trips a known cast overflow)."""
    service = state.daemon.service
    checker = Checker(ctx.tally, ctx.seed)
    for op, shape, dtype in (
        ("relu", [8, 16], "fp16"),
        ("add", [8, 16], "fp16"),
        ("softmax", [8, 16], "fp32"),
        ("matmul", [8, 12, 16], "fp16"),
        ("conv2d", [1, 4, 8, 8], "fp16"),
    ):
        outputs = wire.demo_kernel(op, shape, dtype=dtype)
        kernel = lower(wire.demo_kernel(op, shape, dtype=dtype), f"oracle_{op}")
        inputs = kernel_inputs(kernel, ctx.seed)

        def served(outputs=outputs, inputs=inputs, op=op):
            result = service.run(
                ServiceRequest("replay", outputs, name=f"check_{op}", inputs=inputs)
            )
            result.raise_for_error()
            return result.value["outputs"]

        checker.compare(
            f"service replay {op}",
            served,
            lambda: reference.evaluate_kernel(kernel, inputs, engine="scalar"),
        )


def layers(ctx, state: State) -> Dict[str, float]:
    tracer = ctx.tracer
    out: Dict[str, float] = {}
    traced = ctx.sampler("traced")
    _phases(ctx, state, traced, ctx.budget(0.35))
    out["bench.compile_spans_in_timed"] = sum(
        1 for s in tracer.spans if s.phase == "warm" and s.name in COMPILE_SPANS
    )
    ctx.tally.record(
        out["bench.compile_spans_in_timed"] == 0,
        "a compile span appeared inside the warm phase",
    )
    latency = _latency(ctx, state)
    tracer.uninstall()

    # Traced and untraced chunks alternate: a warm request gets dearer as
    # the daemon's closed connections pile up, so "all traced, then all
    # untraced" would compare early chunks with late ones.
    plain = ctx.sampler("untraced")
    budget = ctx.budget(0.25)
    pairs = 0
    tcp_ms: List[float] = []
    while pairs < 2 or not budget.spent():
        for sampler, row in ((traced, "warm_paired"), (plain, "warm")):
            if sampler is traced:
                tracer.install()
            order = [ctx.rng.randrange(len(PAYLOADS)) for _ in range(WARM_CHUNK)]
            latencies = sampler.sample(
                row, lambda: drive(ctx, state, "warm", order), ops=WARM_CHUNK
            )
            tracer.uninstall()
            if sampler is plain:
                tcp_ms += latencies
        pairs += 1
    out["bench.trace_overhead_ratio"] = traced.median("warm_paired") / plain.median("warm")
    out["bench.raw_cpu_ms"] = plain.median("warm", "raw_ms")
    out["bench.wall_ms"] = plain.median("warm", "wall_ms")
    out["bench.calib_cv"] = plain.calib_cv()

    stats = state.daemon.service.stats()
    out["service.memo_hits"] = stats["memo_hits"]
    out["service.coalesced"] = stats["coalesced"]
    out["service.shed"] = stats["rejected"] + stats["client_sheds"]
    ctx.tally.record(out["service.shed"] == 0, "the service shed requests")
    out["service.warm_p50_ms"] = latency["warm_p50_ms"]
    out["service.warm_p99_ms"] = latency["warm_tail_ms"]
    out["service.cold_p50_ms"] = latency["cold_p50_ms"]

    # Per-call costs of the warm path's pieces, in process.
    ctx.phase("probe")
    probe = ctx.sampler("probe")
    reps = 30
    service, server = state.daemon.service, state.daemon.server
    requests = [wire.request_from_json(p) for p in PAYLOADS]
    probe.sample(
        "parse", lambda: [wire.request_from_json(p) for _ in range(reps) for p in PAYLOADS],
        ops=reps * len(PAYLOADS),
    )
    hits = probe.sample(
        "hit", lambda: [service.run(r) for _ in range(reps) for r in requests],
        ops=reps * len(PAYLOADS),
    )
    probe.sample("encode", lambda: [wire.result_to_json(h) for h in hits], ops=len(hits))
    out["wire.parse_us"] = 1000.0 * probe.median("parse")
    out["service.inproc_hit_us"] = 1000.0 * probe.median("hit")
    out["wire.encode_us"] = 1000.0 * probe.median("encode")
    lines = [json.dumps(p).encode() for p in PAYLOADS]
    inproc_ms = []
    for _ in range(reps):
        for line in lines:
            start = time.perf_counter()
            server.handle_line(line)
            inproc_ms.append(1000.0 * (time.perf_counter() - start))
    out["service.tcp_overhead_us"] = 1000.0 * (
        harness.percentile(sorted(tcp_ms), 50) - harness.percentile(sorted(inproc_ms), 50)
    )
    for phase in ("cold", "warm"):
        ctx.rows[phase] = {
            "traced_cpu_ms_per_req": traced.median(phase),
            "samples": len(traced.rows[phase]),
        }
    ctx.rows["warm"]["cpu_ms_per_req"] = plain.median("warm")
    ctx.extras["span_totals_cold"] = tracer.totals("cold")
    ctx.extras["span_totals_warm"] = tracer.totals("warm")
    return out
