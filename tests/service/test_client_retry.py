"""Client-side resilience: reconnect-with-backoff across a daemon
restart, bounded retry budgets, and honoring retry-after hints."""

import socket
import threading
import time

import pytest

from repro.core.errors import ServiceError
from repro.service.client import ServiceClient


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestReconnect:
    def test_client_survives_daemon_restart(self, running_daemon):
        first = running_daemon(workers=1)
        client = first.client(timeout=60, retries=10, backoff=0.05)
        assert client.ping()
        first.stop()

        # The daemon is down; bring a replacement up on the same port
        # while the client is already retrying.
        def restart():
            time.sleep(0.3)
            running_daemon(port=first.port, workers=1)

        restarter = threading.Thread(target=restart)
        restarter.start()
        try:
            response = client.compile("relu", [8, 8])
            assert response["ok"] is True
        finally:
            restarter.join()

    def test_retry_budget_exhausts_typed(self):
        client = ServiceClient(
            "127.0.0.1", _free_port(), timeout=1, retries=2, backoff=0.01
        )
        start = time.monotonic()
        with pytest.raises(ServiceError):
            client.ping()
        # Two retries at ~10/20ms backoff: fails fast, not after minutes.
        assert time.monotonic() - start < 10

    def test_zero_retries_fails_on_first_error(self):
        client = ServiceClient(
            "127.0.0.1", _free_port(), timeout=1, retries=0
        )
        with pytest.raises(ServiceError):
            client.ping()


class TestRetryAfter:
    def test_overload_hint_is_honored(self, monkeypatch):
        client = ServiceClient(
            "127.0.0.1", 1, overload_retries=2, max_retry_after=5.0
        )
        calls = []
        responses = [
            {
                "ok": False,
                "error": {
                    "type": "ServiceOverloadError",
                    "exit_code": 14,
                    "retry_after": 0.15,
                },
            },
            {"ok": True, "pong": True},
        ]

        def fake_once(payload):
            calls.append(time.monotonic())
            return responses.pop(0)

        monkeypatch.setattr(client, "_request_once", fake_once)
        response = client.request({"kind": "ping"})
        assert response["ok"] is True
        assert len(calls) == 2
        assert calls[1] - calls[0] >= 0.15

    def test_hint_is_clamped(self, monkeypatch):
        client = ServiceClient(
            "127.0.0.1", 1, overload_retries=1, max_retry_after=0.05
        )
        calls = []
        responses = [
            {
                "ok": False,
                "error": {
                    "type": "ServiceOverloadError",
                    "exit_code": 14,
                    "retry_after": 120.0,
                },
            },
            {"ok": True, "pong": True},
        ]

        def fake_once(payload):
            calls.append(time.monotonic())
            return responses.pop(0)

        monkeypatch.setattr(client, "_request_once", fake_once)
        assert client.request({"kind": "ping"})["ok"] is True
        # A confused daemon's 2-minute hint must not park the client.
        assert calls[1] - calls[0] < 2.0

    def test_overload_returned_when_budget_zero(self, monkeypatch):
        client = ServiceClient("127.0.0.1", 1, overload_retries=0)
        overload = {
            "ok": False,
            "error": {
                "type": "ServiceOverloadError",
                "exit_code": 14,
                "retry_after": 9.0,
            },
        }
        monkeypatch.setattr(client, "_request_once", lambda payload: overload)
        response = client.request({"kind": "ping"})
        assert response["error"]["type"] == "ServiceOverloadError"

    def test_live_overload_response_carries_hint(self, running_daemon):
        """End-to-end: a saturated daemon's wire response has the hint."""
        daemon = running_daemon(workers=1, queue_size=1, autostart=False)
        client = daemon.client(timeout=60)
        filler = threading.Thread(
            target=client.compile,
            args=("matmul", [16, 16, 16]),
            kwargs={"name": "filler"},
        )
        filler.start()
        time.sleep(0.1)  # the filler occupies the single queue slot
        shed = client.compile("matmul", [32, 32, 32], name="shed")
        assert shed["ok"] is False
        assert shed["error"]["type"] == "ServiceOverloadError"
        assert shed["error"]["exit_code"] == 14
        assert shed["error"]["retry_after"] > 0
        daemon.service.start()
        filler.join(timeout=300)
