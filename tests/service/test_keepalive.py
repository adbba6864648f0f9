"""Keep-alive connections: one client reuses its sockets, never pools a
connection it cannot trust, reconnects for free when the pool went
stale, and closes what it holds."""

import gc
import json
import sys
import threading
import time
import warnings

import pytest

from repro.core.errors import ServiceError
from repro.service import server as server_module
from repro.service.client import ServiceClient


@pytest.fixture()
def daemon(running_daemon):
    return running_daemon(workers=1)


def _wait_until(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


def _count_connects(client, monkeypatch):
    connects = []
    real = client._connect

    def counting():
        connects.append(1)
        return real()

    monkeypatch.setattr(client, "_connect", counting)
    return connects


class TestReuse:
    def test_sequential_requests_share_one_connection(self, daemon):
        with ServiceClient(port=daemon.port, retries=0) as client:
            first = client.compile("relu", [8, 8])
            for _ in range(20):
                again = client.compile("relu", [8, 8])
                assert again["cached"] is True
                assert again["program_sha256"] == first["program_sha256"]
            stats = client.stats()["server"]
        assert stats["connections_accepted"] == 1
        assert stats["connections_open"] == 1
        # The stats answer is counted once it is on its way out.
        assert stats["requests_served"] == 21

    @pytest.mark.parametrize("callers", [2, 6])  # 6: more threads than cores
    def test_threads_share_one_client(self, daemon, callers):
        """N threads hold at most N connections and each reads only its
        own answers, under a switch interval that provokes lost updates."""
        rounds = 25
        # Power-of-two widths: every shape compiles to a distinct program.
        shapes = {f"t{i}": [8, 8 << i] for i in range(callers)}
        answers = {name: [] for name in shapes}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceClient(port=daemon.port, retries=0) as client:

                def loop(name):
                    for _ in range(rounds):
                        answers[name].append(
                            client.compile("relu", shapes[name], name=name)
                        )

                threads = [threading.Thread(target=loop, args=(n,)) for n in shapes]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=300)
                assert not any(t.is_alive() for t in threads)
                assert len(client._idle) <= callers
        finally:
            sys.setswitchinterval(interval)
        stats = daemon.server.server_stats()
        assert 1 <= stats["connections_accepted"] <= callers
        assert stats["requests_served"] == callers * rounds
        shas = set()
        for responses in answers.values():
            assert len(responses) == rounds and all(r["ok"] for r in responses)
            assert len({r["program_sha256"] for r in responses}) == 1
            shas.add(responses[0]["program_sha256"])
        assert len(shas) == callers  # nobody read a neighbour's answer

    def test_error_answers_keep_the_connection(self, daemon):
        with ServiceClient(port=daemon.port, retries=0) as client:
            bad = client.request({"kind": "compile", "op": "nope", "shape": [8]})
            assert bad["error"]["type"] == "ServiceError"
            pad = "x" * (server_module.MAX_LINE_BYTES + 10)
            oversized = client.request({"kind": "ping", "pad": pad})
            assert "exceeds" in oversized["error"]["message"]
            # A line that is not JSON at all, written on the pooled socket.
            line = client._round_trip(client._idle.pop(), b"this is not json\n")
            assert json.loads(line)["error"]["exit_code"] == 12
            assert client.ping()
        assert daemon.server.server_stats()["connections_accepted"] == 1


class TestStaleness:
    def test_stale_reuse_reconnects_once_without_charging_retries(
        self, running_daemon, monkeypatch
    ):
        first = running_daemon(workers=1)
        client = ServiceClient(port=first.port, retries=0)
        connects = _count_connects(client, monkeypatch)
        assert client.ping()
        first.stop()  # the pooled connection is now dead
        second = running_daemon(port=first.port, workers=1)
        try:
            assert client.ping()
            assert len(connects) == 2
            assert second.server.server_stats()["connections_accepted"] == 1
        finally:
            client.close()

    def test_fresh_connect_failure_still_raises(self, running_daemon, monkeypatch):
        gone = running_daemon(workers=1)
        client = ServiceClient(port=gone.port, retries=0, timeout=1)
        connects = _count_connects(client, monkeypatch)
        assert client.ping()
        gone.stop()
        with pytest.raises(ServiceError):
            client.ping()
        # One free reconnect for the stale socket; its refusal is final.
        assert len(connects) == 2
        assert client._idle == []

    def test_timed_out_connection_is_never_pooled(self, daemon, monkeypatch):
        real = daemon.server.handle_line
        release = threading.Event()

        def slow_once(line):
            if b"slow" in line:
                release.wait(timeout=10)
            return real(line)

        monkeypatch.setattr(daemon.server, "handle_line", slow_once)
        client = ServiceClient(port=daemon.port, retries=0, timeout=0.2)
        try:
            assert client.state() == "accepting"  # pools connection no. 1
            with pytest.raises(ServiceError):
                client.request({"kind": "ping", "client_id": "slow"})
            assert client._idle == []
            release.set()  # the late answer goes out on connection no. 1
            # Were that socket reused, this would read the late pong.
            stats = client.stats()["server"]
            assert stats["connections_accepted"] == 2
        finally:
            release.set()
            client.close()


class TestClosing:
    @pytest.fixture()
    def unraisable(self, monkeypatch):
        """Unclosed sockets warn from ``__del__``; as errors those end up
        at the unraisable hook, not in the test."""
        caught = []
        monkeypatch.setattr(sys, "unraisablehook", caught.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            yield caught

    def _two_pooled_connections(self, daemon):
        client = ServiceClient(port=daemon.port, retries=0)
        conns = [client._connect(), client._connect()]
        for conn in conns:
            client._round_trip(conn, b'{"kind": "ping"}\n')
        assert len(client._idle) == 2
        _wait_until(lambda: daemon.server.server_stats()["connections_open"] == 2)
        return client

    def test_close_closes_the_sockets(self, daemon, unraisable):
        client = self._two_pooled_connections(daemon)
        client.close()
        assert client._idle == []
        # The daemon's handler threads saw EOF and exited.
        _wait_until(lambda: daemon.server.server_stats()["connections_open"] == 0)
        assert client.ping()  # still usable: it just reconnects
        client.close()
        gc.collect()
        assert unraisable == []

    def test_dropping_the_client_closes_the_sockets(self, daemon, unraisable):
        client = self._two_pooled_connections(daemon)
        del client
        gc.collect()
        _wait_until(lambda: daemon.server.server_stats()["connections_open"] == 0)
        assert unraisable == []
