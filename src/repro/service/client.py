"""A small blocking client for the akgd JSON-lines protocol.

Each :meth:`ServiceClient.request` sends one line and reads one line
back on a *kept-alive* connection: the client holds a lock-guarded stack
of idle connections, a request pops one (or connects when the stack is
empty) and pushes it back only after it read exactly one complete
response line for the one request it wrote.  A connection that timed
out, hit EOF or delivered a partial line is closed, never pooled — a
late answer can therefore never be read as the next request's.  A
request owns its connection for its whole round trip, so one client
object can be shared across threads (N concurrent callers hold at most
N connections).  :meth:`~ServiceClient.close`, leaving a ``with`` block
and garbage collection all close the idle sockets.  Connection and
protocol failures raise :class:`~repro.core.errors.ServiceError`;
per-request compilation failures come back as normal response dicts
with ``ok: false``.

The client is *retry-aware*: a refused or reset connection (the daemon
restarting, a supervisor replacing it) is retried up to ``retries``
times with exponential backoff, and an overload response whose error
carries a ``retry_after`` hint is resubmitted after honoring the hint —
so well-behaved clients smooth load spikes instead of amplifying them.
Both retry budgets are bounded; a daemon that stays down or saturated
still fails typed in bounded time.  Retries are safe by construction:
the protocol is one request line → one response line, so a request
whose connection died before the response can only have been admitted
or shed, never half-answered — and service-side coalescing/memoization
makes the resubmission cheap.  The same argument covers the pool's own
artefact: a *reused* connection the daemon closed in the meantime (it
restarted, or shut the socket down) is retried once on a fresh
connection without charging ``retries`` — ``retries`` counts failures
to reach the daemon, and the daemon was never tried.  A timeout is not
staleness (the daemon holds the connection and is slow), so it is
charged like any other failure.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

from repro.core.errors import ServiceError

__all__ = ["ServiceClient"]

#: One kept-alive connection: the socket and its buffered line reader.
_Connection = Tuple[socket.socket, BinaryIO]


def _close(conn: _Connection) -> None:
    sock, reader = conn
    reader.close()
    sock.close()


class ServiceClient:
    """``retries`` bounds reconnection attempts after connection errors;
    ``backoff`` is the initial sleep (doubled per attempt, capped at
    ``max_backoff``).  ``overload_retries`` bounds how many overload
    (``retry_after``-hinted) responses are absorbed before the last one
    is returned to the caller; ``max_retry_after`` clamps any hint so a
    confused daemon cannot park a client for minutes."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 120.0,
        retries: int = 3,
        backoff: float = 0.05,
        max_backoff: float = 1.0,
        overload_retries: int = 0,
        max_retry_after: float = 5.0,
    ):
        self._idle: List[_Connection] = []
        self._idle_lock = threading.Lock()
        if not port:
            raise ServiceError("ServiceClient needs the daemon's port")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.overload_retries = overload_retries
        self.max_retry_after = max_retry_after

    # -- connections --------------------------------------------------------

    def close(self) -> None:
        """Close every idle connection (the client stays usable)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            _close(conn)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    def _connect(self) -> _Connection:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def _round_trip(self, conn: _Connection, data: bytes) -> bytes:
        """One line out, one line back; pools ``conn`` only on success.

        Raises ``OSError`` on any failure (EOF and a partial line become
        ``ConnectionError``) with the connection already closed.
        """
        sock, reader = conn
        try:
            sock.sendall(data)
            line = reader.readline()
            if not line.endswith(b"\n"):
                raise ConnectionResetError(
                    "closed the connection" + (" mid-response" if line else "")
                )
        except OSError:
            _close(conn)
            raise
        with self._idle_lock:
            self._idle.append(conn)
        return line

    def _request_once(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One line out, one line back, on a pooled or a fresh connection."""
        data = json.dumps(payload).encode() + b"\n"
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        while True:
            reused = conn is not None
            try:
                line = self._round_trip(conn or self._connect(), data)
                break
            except OSError as exc:
                if reused and not isinstance(exc, socket.timeout):
                    # A stale pooled connection: the daemon was never
                    # tried, so this costs none of the caller's retries.
                    conn = None
                    continue
                raise ServiceError(
                    f"cannot reach akgd at {self.host}:{self.port}: {exc}"
                )
        try:
            return json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"bad response from akgd: {exc}")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request → one response dict, with bounded retries.

        Raises :class:`ServiceError` once the reconnection budget is
        exhausted.  Overload responses are retried (after their
        ``retry_after`` hint) only when ``overload_retries`` > 0; the
        final overload response is returned, not raised — it is a valid
        protocol answer the caller may want to inspect.
        """
        overload_left = self.overload_retries
        delay = self.backoff
        attempts = 0
        while True:
            try:
                response = self._request_once(payload)
            except ServiceError:
                attempts += 1
                if attempts > self.retries:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, self.max_backoff)
                continue
            error = response.get("error") if isinstance(response, dict) else None
            if (
                overload_left > 0
                and isinstance(error, dict)
                and error.get("retry_after") is not None
            ):
                overload_left -= 1
                hint = float(error["retry_after"])
                time.sleep(max(0.0, min(hint, self.max_retry_after)))
                continue
            return response

    # -- conveniences -------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"kind": "ping"}).get("pong"))

    def state(self) -> Optional[str]:
        """The daemon's readiness (``accepting``/``draining``), or None."""
        return self.request({"kind": "ping"}).get("state")

    def stats(self) -> Dict[str, Any]:
        return self.request({"kind": "stats"}).get("stats", {})

    def shutdown(self) -> bool:
        return bool(self.request({"kind": "shutdown"}).get("stopping"))

    def compile(
        self,
        op: str,
        shape: List[int],
        dtype: str = "fp16",
        name: Optional[str] = None,
        options: Optional[Dict[str, Any]] = None,
        fault_spec: Optional[str] = None,
        deadline: Optional[float] = None,
        client_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": "compile",
            "op": op,
            "shape": list(shape),
            "dtype": dtype,
        }
        if name:
            payload["name"] = name
        if options:
            payload["options"] = options
        if fault_spec:
            payload["fault_spec"] = fault_spec
        if deadline is not None:
            payload["deadline"] = deadline
        if client_id is not None:
            payload["client_id"] = client_id
        return self.request(payload)
