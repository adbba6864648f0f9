"""Shared harness of the service tests: one live daemon, one hand-driven
clock, one way to learn that a worker has reached its fault site."""

import contextlib
import queue
import threading

import pytest

from repro.service.client import ServiceClient
from repro.service.core import CompileService
from repro.service.server import AkgdServer
from repro.tools import faultinject


class Daemon:
    """A service, its ``AkgdServer`` on a port (0 = ephemeral) and the
    thread in ``serve_forever``.  ``stop()`` is ordered — accept loop,
    open connections, then the service — and idempotent, so a test may
    stop a daemon itself and leave the rest to the fixture."""

    def __init__(self, port=0, **service_options):
        self.service = CompileService(**service_options)
        self.server = AkgdServer(("127.0.0.1", port), self.service)
        self.port = self.server.server_address[1]
        # The default 0.5 s poll is what shutdown() waits out.
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.02},
            daemon=True,
        )
        self.thread.start()

    def client(self, **options):
        options.setdefault("timeout", 300.0)
        return ServiceClient("127.0.0.1", self.port, **options)

    def stop(self):
        self.server.shutdown()
        self.thread.join(timeout=10)
        self.server.server_close()
        self.service.close()


@pytest.fixture()
def running_daemon():
    """``running_daemon(port=0, **service_options)`` starts a
    :class:`Daemon`; every daemon a test started is stopped at teardown,
    last started first."""
    with contextlib.ExitStack() as stack:

        def start(port=0, **service_options):
            daemon = Daemon(port, **service_options)
            stack.callback(daemon.stop)
            return daemon

        yield start


class FakeClock:
    """``CompileService(clock=...)``: time moves only when a test says so."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def fake_clock():
    return FakeClock()


@pytest.fixture()
def worker_arrivals(monkeypatch):
    """A queue that receives one item whenever a service worker reaches
    the ``service.worker`` fault site — its heartbeat is stamped by then,
    so a test that read an item may advance the clock past the watchdog
    and know which execution it is declaring stuck."""
    arrivals = queue.Queue()
    real_fire = faultinject.fire

    def fire(site, detail=""):
        if site == "service.worker":
            arrivals.put(site)
        return real_fire(site, detail)

    monkeypatch.setattr(faultinject, "fire", fire)
    return arrivals
