"""``akgd``: run (or poke) the compile-service daemon.

Usage::

    python -m repro.tools.akgd --port 7341            # serve until shutdown
    python -m repro.tools.akgd --port 0 --ready-file /tmp/akgd.addr &
    python -m repro.tools.akgd --ping --port 7341     # liveness probe
    python -m repro.tools.akgd --stats --port 7341    # service + connection counters
    python -m repro.tools.akgd --shutdown --port 7341

The daemon speaks newline-delimited JSON (schema in
:mod:`repro.service.wire`); ``--ready-file`` gets ``host port`` written
once the socket is listening, so scripted launchers
(``tests/tools/test_akgd_cli.py``) never poll a port.  Exit codes follow
the taxonomy in :mod:`repro.core.errors` — a service-level failure
(daemon unreachable, bad payload) is 12, an admission shed (full queue /
fairness cap) is 14, and a quarantined kernel is 15.

Fault-tolerance knobs: ``--max-per-client`` caps one client's queued
builds, ``--quarantine-threshold``/``--quarantine-cooldown`` configure
the poison-kernel breaker, and ``--watchdog`` bounds how long a request
may occupy a worker before the supervisor restarts it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="akgd", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = pick an ephemeral port)")
    parser.add_argument("--workers", type=int, default=None,
                        help="service worker threads (default 4)")
    parser.add_argument("--queue-size", type=int, default=256,
                        help="max pending builds before submissions are shed "
                             "with a typed ServiceOverloadError (exit 14) "
                             "carrying a retry-after hint")
    parser.add_argument("--stage-timeout", type=float, default=120.0,
                        metavar="SECONDS",
                        help="default per-stage wall-clock deadline applied "
                             "to requests that do not set their own")
    parser.add_argument("--max-per-client", type=int, default=None,
                        metavar="N",
                        help="fairness cap: max builds one client_id may "
                             "have queued at once (default: no cap)")
    parser.add_argument("--quarantine-threshold", type=int, default=3,
                        metavar="N",
                        help="consecutive timeouts/crashes of one kernel "
                             "digest before it is quarantined (exit 15)")
    parser.add_argument("--quarantine-cooldown", type=float, default=30.0,
                        metavar="SECONDS",
                        help="how long a quarantined digest stays blocked "
                             "before a half-open probe is allowed")
    parser.add_argument("--watchdog", type=float, default=None,
                        metavar="SECONDS",
                        help="supervisor watchdog: a request occupying a "
                             "worker longer than this is requeued once and "
                             "the worker replaced (default: off)")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="write 'host port' here once listening")
    parser.add_argument("--ping", action="store_true",
                        help="probe a running daemon instead of serving")
    parser.add_argument("--stats", action="store_true",
                        help="print a running daemon's counters as JSON")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask a running daemon to drain and exit")
    args = parser.parse_args(argv)

    from repro.core.errors import ServiceError, exit_code_for

    if args.ping or args.stats or args.shutdown:
        import json

        from repro.service.client import ServiceClient

        try:
            with ServiceClient(args.host, args.port) as client:
                if args.ping:
                    response = client.request({"kind": "ping"})
                    if response.get("pong"):
                        print(f"pong ({response.get('state', 'unknown')})")
                    else:
                        print("no pong")
                if args.stats:
                    print(json.dumps(client.stats(), indent=2, sort_keys=True))
                if args.shutdown:
                    client.shutdown()
                    print("shutdown requested")
        except ServiceError as exc:
            print(f"akgd: {type(exc).__name__}: {exc}", file=sys.stderr)
            return exit_code_for(exc)
        return 0

    from repro.service.server import serve

    def ready(host: str, port: int) -> None:
        print(f"akgd listening on {host}:{port}", flush=True)
        if args.ready_file:
            with open(args.ready_file, "w") as fh:
                fh.write(f"{host} {port}\n")

    try:
        serve(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_size=args.queue_size,
            default_stage_seconds=args.stage_timeout,
            ready_callback=ready,
            max_per_client=args.max_per_client,
            quarantine_threshold=args.quarantine_threshold,
            quarantine_cooldown=args.quarantine_cooldown,
            watchdog_seconds=args.watchdog,
        )
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(f"akgd: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return exit_code_for(ServiceError(str(exc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
