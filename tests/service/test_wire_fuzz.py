"""Wire hardening: every malformed payload answers typed, never a
traceback, never a dead daemon."""

import json
import random
import socket
import string

import pytest

from repro.core.errors import ServiceError
from repro.service.core import CompileService
from repro.service.server import MAX_LINE_BYTES, AkgdServer
from repro.service.wire import request_from_json


@pytest.fixture()
def server():
    """An AkgdServer whose handle_line we drive directly (no socket)."""
    service = CompileService(workers=1)
    srv = AkgdServer(("127.0.0.1", 0), service)
    try:
        yield srv
    finally:
        srv.server_close()
        service.close()


def _assert_typed_error(response):
    assert isinstance(response, dict)
    assert response["ok"] is False
    error = response["error"]
    assert isinstance(error["type"], str) and error["type"]
    assert isinstance(error["message"], str)
    assert isinstance(error["exit_code"], int) and error["exit_code"] >= 1
    # Never a traceback over the wire.
    assert "Traceback" not in error["message"]


MALFORMED_LINES = [
    b"this is not json",
    b"\xff\xfe garbage bytes \x80",
    b"42",
    b'"just a string"',
    b"[1, 2, 3]",
    b"null",
    b"true",
    b"{}",
    b'{"kind": "compile"}',
    b'{"kind": "nonsense", "op": "relu", "shape": [8, 8]}',
    b'{"op": "relu"}',
    b'{"op": "relu", "shape": []}',
    b'{"op": "relu", "shape": "8x8"}',
    b'{"op": "relu", "shape": [8, "eight"]}',
    b'{"op": "relu", "shape": [true, 8]}',
    b'{"op": 7, "shape": [8, 8]}',
    b'{"op": "warp_drive", "shape": [8, 8]}',
    b'{"op": "matmul", "shape": [8, 8]}',
    b'{"op": "relu", "shape": [8, 8], "surprise": 1}',
    b'{"op": "relu", "shape": [8, 8], "batch_max": "16"}',
    b'{"op": "relu", "shape": [8, 8], "batch_max": true}',
    b'{"op": "relu", "shape": [8, 8], "batch_max": 4}',
    b'{"op": "relu", "shape": [8, 8], "deadline": "soon"}',
    b'{"op": "relu", "shape": [8, 8], "deadline": -1}',
    b'{"op": "relu", "shape": [8, 8], "deadline": 0}',
    b'{"op": "relu", "shape": [8, 8], "client_id": 9}',
    b'{"op": "relu", "shape": [8, 8], "seed": "zero"}',
    b'{"op": "relu", "shape": [8, 8], "engine": 3}',
    b'{"op": "relu", "shape": [8, 8], "name": ["a"]}',
    b'{"op": "relu", "shape": [8, 8], "fault_spec": 17}',
    b'{"op": "relu", "shape": [8, 8], "fault_spec": "bogus.site:error"}',
    b'{"op": "relu", "shape": [8, 8], "tune": "hard"}',
    b'{"op": "relu", "shape": [8, 8], "tune": []}',
    b'{"op": "relu", "shape": [8, 8], "options": "fast"}',
    b'{"op": "relu", "shape": [8, 8], "options": {"warp": 9}}',
    b'{"op": "relu", "shape": [8, 8], "options": {"stage_timeout": "fast"}}',
    b'{"op": "relu", "shape": [8, 8], "options": {"stage_timeout": true}}',
    b'{"op": "relu", "shape": [8, 8], "options": {"stage_timeout": -2}}',
    b'{"op": "relu", "shape": [8, 8], "options": {"solver_budget": "lots"}}',
    b'{"op": "relu", "shape": [8, 8], "options": {"sync_policy": "psychic"}}',
    b'{"op": "relu", "shape": [8, 8], "kernel": "three"}',
    b'{"op": "conv2d", "shape": [1, 4, 8]}',
]


class TestHandleLineFuzz:
    def test_every_malformed_line_answers_typed(self, server):
        for line in MALFORMED_LINES:
            response = server.handle_line(line)
            _assert_typed_error(response)

    def test_random_bytes_never_crash(self, server):
        rng = random.Random(1234)
        alphabet = string.printable + "\x00\xff{}[]:,\""
        for _ in range(200):
            line = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 120))
            ).encode("utf-8", errors="ignore")
            response = server.handle_line(line)
            assert isinstance(response, dict)
            assert "ok" in response

    def test_random_key_shuffles_never_crash(self, server):
        """Structured fuzz: valid-ish objects with mutated keys/values."""
        rng = random.Random(99)
        values = [None, True, -1, 0.5, "x", [], [1], {}, {"a": 1}, "relu"]
        keys = [
            "kind", "op", "shape", "dtype", "batch_max", "deadline",
            "client_id", "seed", "engine", "options", "tune", "zzz",
        ]
        for _ in range(150):
            payload = {
                rng.choice(keys): rng.choice(values)
                for _ in range(rng.randrange(0, 6))
            }
            response = server.handle_line(json.dumps(payload).encode())
            assert isinstance(response, dict)
            assert "ok" in response

    def test_daemon_survives_fuzzing(self, server):
        for line in MALFORMED_LINES[:10]:
            server.handle_line(line)
        response = server.handle_line(
            json.dumps({"op": "relu", "shape": [8, 8]}).encode()
        )
        assert response["ok"] is True
        assert len(response["program_sha256"]) == 64

    def test_valid_extras_accepted(self, server):
        """The new deadline/client_id keys parse into the request."""
        request = request_from_json(
            {
                "op": "relu",
                "shape": [8, 8],
                "deadline": 60.0,
                "client_id": "fuzzer",
            }
        )
        assert request.deadline_seconds == 60.0
        assert request.client_id == "fuzzer"

    def test_unknown_key_names_the_culprit(self, server):
        response = server.handle_line(
            b'{"op": "relu", "shape": [8, 8], "sneaky": 1}'
        )
        _assert_typed_error(response)
        assert "sneaky" in response["error"]["message"]


#: Malformed ``tune`` objects: each must fail where the request is made,
#: on the wire or in process, before a worker (or, for
#: ``parallel``/``workers``, a process pool) is started.
BAD_TUNE_OBJECTS = [
    {"bogus": 1},
    {"first_round": "x"},
    {"first_round": 0},
    {"round_size": 2.5},
    {"max_rounds": True},
    {"seed": -1},
    {"seed": None},
    {"parallel": True},
    {"workers": 2},
    {"parallel": True, "workers": 2},
]


class TestTuneObject:
    @pytest.mark.parametrize("tune", BAD_TUNE_OBJECTS, ids=repr)
    def test_malformed_tune_object_is_a_service_error_at_parse(self, tune):
        from repro.core.errors import exit_code_for

        with pytest.raises(ServiceError) as info:
            request_from_json(
                {"kind": "tune", "op": "relu", "shape": [8, 8], "tune": tune}
            )
        assert exit_code_for(info.value) == 12
        assert next(iter(tune)) in str(info.value)

    @pytest.mark.parametrize("tune", BAD_TUNE_OBJECTS, ids=repr)
    def test_malformed_tune_object_is_a_service_error_in_process(self, tune):
        from repro.core.errors import exit_code_for
        from repro.service.request import ServiceRequest
        from repro.service.wire import demo_kernel

        with pytest.raises(ServiceError) as info:
            ServiceRequest("tune", demo_kernel("relu", [8, 8]), tune_params=tune)
        assert exit_code_for(info.value) == 12
        assert next(iter(tune)) in str(info.value)

    def test_valid_tune_object_reaches_the_request(self):
        tune = {"first_round": 2, "round_size": 1, "max_rounds": 1, "seed": 0}
        request = request_from_json(
            {"kind": "tune", "op": "relu", "shape": [8, 8], "tune": tune}
        )
        assert request.tune_params == tune
        assert request_from_json({"op": "relu", "shape": [8, 8]}).tune_params is None


class TestOversizedLines:
    def test_oversized_line_gets_typed_error_and_connection_survives(
        self, running_daemon
    ):
        daemon = running_daemon(workers=1)
        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=30
        ) as sock:
            big = b'{"op": "relu", "pad": "' + b"x" * (MAX_LINE_BYTES + 64)
            sock.sendall(big + b'"}\n')
            reader = sock.makefile("rb")
            line = reader.readline()
            response = json.loads(line.decode())
            _assert_typed_error(response)
            assert "exceeds" in response["error"]["message"]
            # Same connection still serves the next request.
            sock.sendall(b'{"kind": "ping"}\n')
            pong = json.loads(reader.readline().decode())
            assert pong["ok"] is True and pong["pong"] is True


class TestWireFaultSite:
    def test_injected_wire_fault_answers_typed(self, server, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "service.wire:error#limit=1")
        response = server.handle_line(b'{"kind": "ping"}')
        _assert_typed_error(response)
        assert response["error"]["type"] == "ServiceError"
        # The fault burnt its limit; the daemon answers normally now.
        pong = server.handle_line(b'{"kind": "ping"}')
        assert pong["ok"] is True


class TestErrorBodies:
    def test_retry_after_travels_in_error_body(self):
        from repro.core.errors import ServiceOverloadError
        from repro.service.wire import error_to_json

        body = error_to_json(ServiceOverloadError("full", retry_after=1.5))
        assert body["error"]["retry_after"] == 1.5
        assert body["error"]["exit_code"] == 14

    def test_plain_service_error_has_no_retry_after(self):
        from repro.service.wire import error_to_json

        body = error_to_json(ServiceError("nope"))
        assert "retry_after" not in body["error"]
