"""The akgd daemon: a JSON-lines TCP front end over :class:`CompileService`.

One connection may carry any number of newline-delimited JSON requests;
each gets exactly one newline-delimited JSON response, in order —
:class:`~repro.service.client.ServiceClient` keeps its connections alive
and sends thousands of requests down one.  Connections are handled on
threads (``socketserver.ThreadingTCPServer``, one per connection, not
per request) that block in ``service.run`` — admission control,
coalescing and the worker pool all live in the service, so the socket
layer stays a thin codec.  A malformed line or unparsable request
answers with a :class:`~repro.core.errors.ServiceError` body (exit code
12) and the connection — and the daemon — live on.  The server tracks
every accepted connection and ``server_close()`` shuts them all down: a
stopped daemon never keeps answering on an old socket against a closed
service, and its handler threads exit.

Control verbs (handled here, not queued):

- ``{"kind": "ping"}``      → ``{"ok": true, "pong": true, "state": ...}``
  (``state`` is the service's readiness: accepting / draining / stopped)
- ``{"kind": "stats"}``     → ``{"ok": true, "stats": {...}}`` (the
  service's counters plus a ``server`` block: ``connections_accepted``,
  ``connections_open``, ``requests_served``)
- ``{"kind": "shutdown"}``  → ``{"ok": true, "stopping": true}``; the
  service stops admitting immediately (``draining``), every queued build
  still completes, and the accept loop exits.

Over-long lines (> :data:`MAX_LINE_BYTES`) are drained and answered
with a typed error instead of being misparsed as several requests or
ballooning the daemon's memory.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Dict, Optional, Set, Tuple

from repro.core import faults
from repro.core.errors import ServiceError
from repro.service import wire
from repro.service.core import CompileService

__all__ = ["AkgdServer", "serve"]

#: Cap on one request line; a run-away client cannot balloon the daemon.
MAX_LINE_BYTES = 1 << 20


class _Handler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # one small line per response

    def _drain_oversized_line(self) -> bool:
        """Discard the rest of an over-long line; False on disconnect.

        ``readline(limit)`` hands back a partial chunk with no newline;
        the remainder must be consumed (and discarded, never buffered)
        or it would be misparsed as the next request.
        """
        while True:
            chunk = self.rfile.readline(MAX_LINE_BYTES)
            if not chunk:
                return False
            if chunk.endswith(b"\n"):
                return True

    def _answer(self, response: dict) -> bool:
        """Write one response line; False when the peer is gone."""
        server: "AkgdServer" = self.server  # type: ignore[assignment]
        with server._connections_lock:
            server._requests_served += 1
        try:
            self.wfile.write(json.dumps(response).encode() + b"\n")
            self.wfile.flush()
        except (ConnectionError, OSError):
            return False
        return True

    def handle(self) -> None:
        server: "AkgdServer" = self.server  # type: ignore[assignment]
        while True:
            try:
                line = self.rfile.readline(MAX_LINE_BYTES)
            except (ConnectionError, OSError):
                return
            if not line:
                return
            if len(line) >= MAX_LINE_BYTES and not line.endswith(b"\n"):
                try:
                    alive = self._drain_oversized_line()
                except (ConnectionError, OSError):
                    return
                response = wire.error_to_json(
                    ServiceError(
                        f"request line exceeds {MAX_LINE_BYTES} bytes"
                    )
                )
                if not self._answer(response) or not alive:
                    return
                continue
            line = line.strip()
            if not line:
                continue
            response = server.handle_line(line)
            if (
                not self._answer(response)
                or response.get("stopping")
                or server._closed
            ):
                return


class AkgdServer(socketserver.ThreadingTCPServer):
    """The daemon socket server; owns (but does not create) the service."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: CompileService):
        super().__init__(address, _Handler)
        self.service = service
        self.request_timeout: Optional[float] = None
        self._connections_lock = threading.Lock()
        self._connections_gone = threading.Condition(self._connections_lock)
        self._connections: Set[socket.socket] = set()
        self._connections_accepted = 0
        self._requests_served = 0
        self._closed = False

    # -- connection tracking ------------------------------------------------

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
            self._connections_accepted += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
            self._connections_gone.notify_all()
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket and end every open connection.

        Only the read side is shut down: a handler blocked waiting for
        the next request sees EOF, one still executing a request writes
        its answer first, and either way the handler thread then returns
        and closes the socket itself.  Waits (bounded) for that: handler
        threads are daemons, and the process that exits right after this
        call must not take an unwritten answer with it.
        """
        super().server_close()
        with self._connections_lock:
            self._closed = True
            connections = list(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                continue  # the peer (or the handler) got there first
        with self._connections_lock:
            self._connections_gone.wait_for(lambda: not self._connections, 5.0)

    def server_stats(self) -> Dict[str, int]:
        """The socket layer's own counters (the ``server`` stats block)."""
        with self._connections_lock:
            return {
                "connections_accepted": self._connections_accepted,
                "connections_open": len(self._connections),
                "requests_served": self._requests_served,
            }

    # -- request routing ----------------------------------------------------

    def handle_line(self, line: bytes) -> dict:
        """One wire request → one response dict (never raises)."""
        try:
            faults.fire("service.wire")
            payload = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return wire.error_to_json(ServiceError(f"bad JSON: {exc}"))
        except Exception as exc:  # noqa: BLE001 - injected wire faults
            return wire.error_to_json(exc)
        if isinstance(payload, dict):
            kind = payload.get("kind")
            if kind == "ping":
                return {"ok": True, "pong": True, "state": self.service.state}
            if kind == "stats":
                stats = self.service.stats()
                stats["server"] = self.server_stats()
                return {"ok": True, "stats": stats}
            if kind == "shutdown":
                self.initiate_shutdown()
                return {"ok": True, "stopping": True}
        try:
            request = wire.request_from_json(payload)
            result = self.service.run(request, timeout=self.request_timeout)
        except ServiceError as exc:
            return wire.error_to_json(exc)
        except Exception as exc:  # noqa: BLE001 - the daemon must survive
            return wire.error_to_json(exc)
        return wire.result_to_json(result)

    def initiate_shutdown(self) -> None:
        """Begin a graceful drain from a handler thread (non-blocking).

        The service flips to ``draining`` *synchronously* — a request
        racing this one already gets the typed drain rejection — while
        queued builds finish and the accept loop stops in the background.
        """
        self.service.initiate_shutdown()
        threading.Thread(target=self.shutdown, daemon=True).start()


def serve(
    host: str = "127.0.0.1", port: int = 0, ready_callback=None, **service_options
) -> None:
    """Run a daemon until a ``shutdown`` request arrives.

    ``port=0`` binds an ephemeral port; ``ready_callback(host, port)``
    fires once the socket is listening (the CLI writes its ready-file
    there), so launchers never poll.  ``service_options`` are
    :class:`CompileService`'s own keyword arguments.
    """
    service = CompileService(**service_options)
    with AkgdServer((host, port), service) as server:
        bound_host, bound_port = server.server_address[:2]
        if ready_callback is not None:
            ready_callback(bound_host, bound_port)
        try:
            server.serve_forever(poll_interval=0.1)
        finally:
            service.close()
