"""Chaos under load: the service's failure model under live traffic.

Every scenario drives a live :class:`CompileService` (two of them a live
TCP daemon) through one closed-loop :func:`drive` helper and enforces
the same contract — **zero hangs, zero untyped failures** — plus its own
invariant: sheds carry retry-after hints, the breaker trips after
exactly its threshold, the supervisor requeues a stuck worker, the
drain fulfils accepted work, a served replay equals the scalar oracle.

A *hang* is ``Ticket.result(timeout=)`` raising: admission errors come
out of ``submit()``, execution errors arrive as ``res.ok is False``, so
the only thing a bounded result wait can raise is the bound itself.

Marked ``chaos`` (deselected by default; ``pytest -m chaos`` and
``scripts/check.sh`` run it).
"""

import itertools
import json
import socket
import threading
import time
from collections import Counter
from typing import NamedTuple, Optional

import numpy as np
import pytest

from repro.core.compiler import AkgOptions, build
from repro.core.errors import ReproError, ServiceError, ServiceOverloadError
from repro.poly.cache import clear_solver_caches
from repro.service.core import CompileService, ServiceRequest
from repro.service.server import MAX_LINE_BYTES
from repro.service.wire import demo_kernel

pytestmark = pytest.mark.chaos

#: Result-wait bound per request: a request that does not resolve within
#: this is a hang — the one outcome the failure model forbids outright.
WAIT_SECONDS = 60.0

DISPATCH_FAULT = "service.dispatch:error"
WORKER_FAULT = "service.worker:error"
WORKER_HANG = "service.worker:hang#limit=2"
WIRE_FAULT = "service.wire:error#skip=2#limit=3"
#: Every service-level fault this file drives; ``tests/tools/test_chaos.py``
#: checks it against the registered ``service.*`` sites.
SERVICE_FAULTS = (DISPATCH_FAULT, WORKER_FAULT, WORKER_HANG, WIRE_FAULT)

#: The duplicate-heavy stream's unique kernels.
SHAPES = {
    "add": [24, 48],
    "matmul": [16, 16, 16],
    "relu": [32, 64],
    "softmax": [16, 32],
}


@pytest.fixture(autouse=True)
def _cold_solver_caches():
    # The poison fault sits inside the ILP solver: a solve memoized by an
    # earlier scenario would let the "poisoned" build succeed.
    clear_solver_caches()


class Outcome(NamedTuple):
    status: str  # ok | typed | untyped | hang
    error: Optional[str] = None  # the error's class name
    retry_after: Optional[float] = None


def resolve(service, request, wait=WAIT_SECONDS) -> Outcome:
    """Submit one request and classify how it ended."""
    try:
        ticket = service.submit(request)
    except ReproError as exc:  # shed, quarantined or draining
        return Outcome(
            "typed", type(exc).__name__, getattr(exc, "retry_after", None)
        )
    try:
        res = ticket.result(timeout=wait)
    except ServiceError:
        return Outcome("hang")
    if res.ok:
        return Outcome("ok")
    status = "typed" if isinstance(res.error_exc, ReproError) else "untyped"
    return Outcome(status, res.error["type"], res.error.get("retry_after"))


def wire_outcome(response) -> Outcome:
    """The same classification for a daemon's JSON answer (an untyped
    failure crosses the wire with the catch-all exit code 1)."""
    if response.get("ok"):
        return Outcome("ok")
    error = response.get("error") or {}
    status = "typed" if error.get("exit_code", 1) != 1 else "untyped"
    return Outcome(status, error.get("type"))


def drive(service, requests, concurrency, wait=WAIT_SECONDS):
    """Closed-loop clients: ``concurrency`` threads drain the request
    list; one :class:`Outcome` per request, in request order."""
    outcomes = [None] * len(requests)
    counter = itertools.count()

    def client():
        while True:
            i = next(counter)
            if i >= len(requests):
                return
            try:
                outcomes[i] = resolve(service, requests[i], wait)
            except Exception as exc:  # noqa: BLE001 - classifying is the point
                outcomes[i] = Outcome("untyped", type(exc).__name__)

    threads = [threading.Thread(target=client) for _ in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


def tally(outcomes) -> Counter:
    """Enforce the shared contract; per-status counts for the rest."""
    by = Counter(o.status for o in outcomes)
    assert by["hang"] == 0, f"{by['hang']} request(s) hung: {outcomes}"
    assert by["untyped"] == 0, [o for o in outcomes if o.status == "untyped"]
    return by


def stream(count, fault_spec=None, every=0, exclude=(), unique_names=False):
    """``count`` compile requests rotating over :data:`SHAPES`; every
    ``every``-th (1-based) carries ``fault_spec``.  ``unique_names``
    defeats coalescing and the memo so each request occupies a queue
    slot."""
    outputs = {
        op: demo_kernel(op, shape)
        for op, shape in SHAPES.items()
        if op not in exclude
    }
    ops = sorted(outputs)
    return [
        ServiceRequest(
            "compile",
            outputs[ops[i % len(ops)]],
            name=f"cs_{i}" if unique_names else f"cs_{ops[i % len(ops)]}",
            fault_spec=fault_spec if every and (i + 1) % every == 0 else None,
        )
        for i in range(count)
    ]


# -- scenarios ----------------------------------------------------------------


@pytest.mark.parametrize("concurrency", [4, 8], ids=["c4", "c8"])
def test_baseline(concurrency):
    with CompileService(workers=4) as service:
        by = tally(drive(service, stream(16), concurrency))
        stats = service.stats()
    assert by["ok"] == 16
    assert stats["failed"] == 0 and stats["rejected"] == 0


@pytest.mark.parametrize(
    "spec,concurrency",
    [(DISPATCH_FAULT, 4), (WORKER_FAULT, 8)],
    ids=["dispatch", "worker"],
)
def test_per_request_faults_fail_typed_and_alone(spec, concurrency):
    with CompileService(workers=4) as service:
        outcomes = drive(service, stream(16, spec, every=4), concurrency)
    by = tally(outcomes)
    assert by["typed"] == 4 and by["ok"] == 12
    assert all(o.error == "ServiceError" for o in outcomes if o.status == "typed")


def test_worker_hang_is_requeued(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", WORKER_HANG)
    # The watchdog must out-wait the slowest *healthy* cold build by a
    # wide margin or it would requeue innocents.
    with CompileService(workers=2, watchdog_seconds=2.0) as service:
        # Each hang is requeued to success or (second strike on one
        # entry) failed typed; none may reach a caller.
        tally(drive(service, stream(8), 2))
        stats = service.stats()
    assert stats["supervisor_requeues"] >= 1
    assert stats["worker_restarts"] >= 1


def test_poison_kernel_is_quarantined():
    from tests.sched.test_scheduler import mirrored

    threshold, attempts = 2, 6
    # Beside its mirrored copy, whose dependence analysis poses the ILP
    # the fault sits on: a matmul's own dependences never reach it.
    poison_outputs = mirrored(demo_kernel("matmul", SHAPES["matmul"]))
    with CompileService(
        workers=2,
        quarantine_threshold=threshold,
        quarantine_cooldown=300.0,
        default_stage_seconds=10.0,
    ) as service:
        poison = [
            resolve(
                service,
                ServiceRequest(
                    "compile",
                    poison_outputs,
                    name="cs_poison",
                    fault_spec="ilp.solve:delay",
                ),
            )
            for _ in range(attempts)
        ]
        # The breaker keys the IR digest, so every *name* of the poisoned
        # matmul is blocked; "healthy" is the rest of the catalog.
        healthy = drive(service, stream(8, exclude=("matmul",)), 4)
        stats = service.stats()
    tally(poison + healthy)
    blocked = sum(o.error == "QuarantinedError" for o in poison)
    executed = sum(o.status == "typed" for o in poison) - blocked
    assert stats["quarantine_trips"] == 1
    assert executed == threshold and blocked == attempts - threshold
    assert all(o.status == "ok" for o in healthy)


def test_overload_is_shed_with_honoured_retry_after():
    with CompileService(workers=1, queue_size=2) as service:
        outcomes = drive(service, stream(32, unique_names=True), 8)
        sheds = [o for o in outcomes if o.error == "ServiceOverloadError"]
        # A polite client: resubmit honouring each hint, bounded budget.
        retry = ServiceRequest(
            "compile", demo_kernel("add", SHAPES["add"]), name="cs_retry"
        )
        for _ in range(20):
            try:
                served = service.run(retry, timeout=WAIT_SECONDS)
                break
            except ServiceOverloadError as exc:
                time.sleep(min(max(exc.retry_after, 0.01), 2.0))
        else:
            pytest.fail("a client honouring retry_after never got in")
    tally(outcomes)
    assert sheds, "a 2-slot queue under 8 clients shed nothing"
    assert all(o.retry_after and o.retry_after > 0 for o in sheds)
    assert served.ok


def test_wire_chaos_on_a_live_daemon(monkeypatch, running_daemon):
    monkeypatch.setenv("REPRO_FAULT_SPEC", WIRE_FAULT)
    daemon = running_daemon(workers=2)
    shape = SHAPES["softmax"]
    payloads = [
        {"kind": "compile", "op": "relu", "shape": shape},
        {"kind": "compile", "op": "softmax", "shape": shape},
        {"not": "a request"},
        {"kind": "compile", "op": "relu", "shape": shape},
        {"kind": "compile", "op": "relu", "shape": "wrong"},
        {"kind": "compile", "op": "softmax", "shape": shape},
        {"kind": "compile", "op": "relu", "shape": shape},
        {"kind": "compile", "op": "relu", "shape": shape,
         "options": {"stage_timeout": "soon"}},
    ]
    with daemon.client(timeout=60, retries=2) as client:
        outcomes = [wire_outcome(client.request(p)) for p in payloads]
        # An oversized line answers typed and leaves the daemon alive.
        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=60
        ) as sock:
            sock.sendall(b'{"pad": "' + b"x" * (MAX_LINE_BYTES + 16) + b'"}\n')
            big = json.loads(sock.makefile("rb").readline())
        outcomes.append(wire_outcome(big))
        alive = client.ping()
    by = tally(outcomes)
    # Typed: the three malformed payloads, the oversized line, and the one
    # well-formed request an injected codec fault landed on (the other
    # two landed on payloads that were malformed anyway).
    assert by["typed"] == 5 and by["ok"] == 4
    assert alive


def test_drain_under_load(running_daemon):
    """Shutdown mid-load: accepted builds finish, late submissions are
    rejected typed (at the daemon, or as connection errors at the
    client), and the daemon actually exits."""
    daemon = running_daemon(workers=2, queue_size=64)
    outcomes = []

    def load_client(idx):
        # Keeps submitting until the drain turns it away (the cap only
        # bounds a daemon that never stops).
        with daemon.client(timeout=60, retries=0) as client:
            for j in range(2000):
                try:
                    outcome = wire_outcome(
                        client.compile(
                            "relu", SHAPES["softmax"], name=f"cs_drain_{idx}_{j}"
                        )
                    )
                except ServiceError as exc:
                    outcome = Outcome("typed", type(exc).__name__)
                except Exception as exc:  # noqa: BLE001 - classifying
                    outcome = Outcome("untyped", type(exc).__name__)
                outcomes.append(outcome)
                if outcome.status != "ok":
                    return

    clients = [
        threading.Thread(target=load_client, args=(i,)) for i in range(4)
    ]
    for t in clients:
        t.start()
    time.sleep(0.15)  # let load build up, then pull the plug mid-stream
    with daemon.client(timeout=60, retries=2) as stopper:
        acknowledged = stopper.shutdown()
    daemon.thread.join(timeout=30)
    exited = not daemon.thread.is_alive()
    # Close the listening socket *before* joining the clients: backlogged
    # connections are reset at once (typed at the client) instead of
    # stalling until their socket timeout, while connections already
    # being handled still drain to a response.
    daemon.server.server_close()
    for t in clients:
        t.join()
    daemon.service.close()
    by = tally(outcomes)
    assert by["ok"] >= 1 and by["typed"] == len(clients)
    assert acknowledged and exited
    assert daemon.service.state == "stopped"


def test_served_replay_equals_scalar_oracle():
    request = ServiceRequest(
        "replay",
        demo_kernel("matmul", SHAPES["matmul"]),
        name="cs_replay",
        seed=0,
        engine="auto",
    )
    with CompileService(workers=2) as service:
        res = service.run(request, timeout=5 * WAIT_SECONDS)
    assert res.ok, res.error
    oracle = build(
        demo_kernel("matmul", SHAPES["matmul"]),
        "cs_replay_oracle",
        options=AkgOptions(emit_trace=True),
    )
    expected = oracle.execute(res.value["inputs"], engine="scalar")
    served = res.value["outputs"]
    assert set(served) == set(expected)
    for key in expected:
        assert np.array_equal(served[key], expected[key]), key


# -- negative control: an unresolved request is a hang, not a typed error ----


def test_unresolved_request_is_reported_as_a_hang():
    # Workers never start, so the ticket cannot resolve inside the bound.
    with CompileService(workers=1, autostart=False) as service:
        outcomes = drive(service, stream(1), 1, wait=0.5)
    assert outcomes == [Outcome("hang")]
    with pytest.raises(AssertionError, match="hung"):
        tally(outcomes)
