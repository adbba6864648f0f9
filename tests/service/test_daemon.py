"""The akgd TCP daemon: wire schema, control verbs, per-request errors."""

import json
import socket
import threading
import time

import pytest

from repro.core.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.server import AkgdServer, serve
from repro.service.wire import demo_kernel, request_from_json


@pytest.fixture()
def daemon(running_daemon):
    """A client bound to a live daemon on an ephemeral port."""
    return running_daemon(workers=2, default_stage_seconds=120.0).client()


class TestDaemon:
    def test_ping(self, daemon):
        assert daemon.ping() is True

    def test_compile_round_trip(self, daemon):
        res = daemon.compile("relu", [16, 24])
        assert res["ok"] is True
        assert res["kind"] == "compile"
        assert res["cycles"] > 0
        assert len(res["program_sha256"]) == 64

    def test_duplicate_is_bit_identical_and_cached(self, daemon):
        first = daemon.compile("matmul", [16, 16, 16])
        second = daemon.compile("matmul", [16, 16, 16])
        assert second["program_sha256"] == first["program_sha256"]
        assert second["cached"] is True

    def test_stats_reports_service_counters(self, daemon):
        daemon.compile("relu", [8, 8])
        stats = daemon.stats()
        assert stats["completed"] >= 1

    def test_malformed_json_is_service_error(self, daemon):
        import socket

        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=30
        ) as sock:
            sock.sendall(b"this is not json\n")
            line = sock.makefile("rb").readline()
        res = json.loads(line)
        assert res["ok"] is False
        assert res["error"]["type"] == "ServiceError"
        assert res["error"]["exit_code"] == 12

    def test_bad_request_fields_are_service_error(self, daemon):
        res = daemon.request({"kind": "compile", "op": "nope", "shape": [8]})
        assert res["ok"] is False
        assert res["error"]["type"] == "ServiceError"

    def test_fault_request_fails_typed_daemon_survives(self, daemon):
        bad = daemon.request(
            {
                "kind": "compile",
                "op": "relu",
                "shape": [16, 16],
                "fault_spec": "storage.promote:error",
            }
        )
        assert bad["ok"] is False
        assert bad["error"]["type"] == "CodegenError"
        assert bad["error"]["exit_code"] == 8
        # The daemon keeps serving: same kernel, no fault, compiles fine.
        good = daemon.compile("relu", [16, 16])
        assert good["ok"] is True

    def test_replay_outputs_are_deterministic(self, daemon):
        payload = {"kind": "replay", "op": "relu", "shape": [8, 12], "seed": 3}
        a = daemon.request(payload)
        b = daemon.request(payload)
        assert a["ok"] and b["ok"]
        assert a["outputs"] == b["outputs"]

    def test_shutdown_stops_the_daemon(self, daemon):
        assert daemon.shutdown() is True

    def test_stats_reports_the_server_block(self, daemon):
        daemon.ping()
        server = daemon.stats()["server"]
        assert server == {
            "connections_accepted": 1,
            "connections_open": 1,
            "requests_served": 1,
        }


def test_stopped_daemon_ends_open_connections(running_daemon):
    """A connection held open across the daemon's stop must see EOF, not
    answers from a handler thread that outlived its (closed) service."""
    daemon = running_daemon(workers=1)
    server = daemon.server
    with socket.create_connection(server.server_address[:2], timeout=30) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b'{"kind": "ping"}\n')
        assert json.loads(reader.readline())["pong"] is True
        daemon.stop()
        try:
            sock.sendall(b'{"kind": "ping"}\n')
            late = reader.readline()
        except ConnectionError:
            late = b""
        assert late == b""
        reader.close()
    # The handler thread's last act is to drop its connection.
    deadline = time.monotonic() + 5
    while server.server_stats()["connections_open"]:
        assert time.monotonic() < deadline, "handler thread still alive"
        time.sleep(0.01)


def test_serve_outlasts_the_shutdown_answer(monkeypatch):
    """``akgd`` exits when ``serve()`` returns, and its handler threads are
    daemons: the one answering ``shutdown`` must be done by then, however
    late it gets the CPU back after setting the stop in motion."""
    initiate = AkgdServer.initiate_shutdown

    def initiate_then_stall(server):
        initiate(server)
        time.sleep(0.3)

    monkeypatch.setattr(AkgdServer, "initiate_shutdown", initiate_then_stall)
    close = AkgdServer.server_close
    served_at_close = []

    def close_and_look(server):
        close(server)
        served_at_close.append(server.server_stats()["requests_served"])

    monkeypatch.setattr(AkgdServer, "server_close", close_and_look)
    ready, address = threading.Event(), []

    def on_ready(host, port):
        address.append((host, port))
        ready.set()

    daemon = threading.Thread(
        target=serve, kwargs={"ready_callback": on_ready, "workers": 1}
    )
    daemon.start()
    assert ready.wait(timeout=30)
    with socket.create_connection(address[0], timeout=30) as sock:
        sock.sendall(b'{"kind": "shutdown"}\n')
        daemon.join(timeout=30)
        assert not daemon.is_alive()
        assert served_at_close == [1]
        assert json.loads(sock.makefile("rb").readline())["stopping"] is True


class TestWireSchema:
    def test_demo_kernel_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            demo_kernel("matmul", [16, 16])  # needs M,K,N
        with pytest.raises(ValueError):
            demo_kernel("conv2d", [16, 16])  # needs N,C,H,W

    def test_request_from_json_validates_fault_spec(self):
        with pytest.raises(ServiceError):
            request_from_json(
                {
                    "kind": "compile",
                    "op": "relu",
                    "shape": [8, 8],
                    "fault_spec": "no-such-grammar",
                }
            )

    def test_request_from_json_builds_options(self):
        req = request_from_json(
            {
                "kind": "compile",
                "op": "relu",
                "shape": [8, 8],
                "options": {"stage_timeout": 9.0, "no_fusion": True},
            }
        )
        assert req.options.budget.stage_seconds == 9.0
        assert req.options.post_tiling_fusion is False

    def test_client_without_daemon_raises_service_error(self):
        client = ServiceClient("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(ServiceError):
            client.ping()
