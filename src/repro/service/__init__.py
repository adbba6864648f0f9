"""``akgd``: the compile service.

A long-lived process that accepts compile / tune / replay requests,
coalesces concurrent duplicates into one build, and executes on a
bounded worker pool — the daemon-shaped front door to the same staged
pipeline ``akgc`` drives one kernel at a time.  See DESIGN.md §3.6.

Layering:

- :mod:`repro.service.request`   a request, its result, and the two
  digests (coalescing, quarantine) the service files them under;
- :mod:`repro.service.policies`  admission, coalescing, the poison
  breaker and worker supervision as four lock-free, clock-free objects;
- :mod:`repro.service.handlers`  what a worker does with a compile, tune
  or replay request;
- :mod:`repro.service.core`      the in-process service — one queue, one
  lock, the worker and supervisor threads — everything testable without
  sockets;
- :mod:`repro.service.wire`      the JSON wire schema (demo-kernel
  vocabulary shared with ``akgc``, request parsing, result rendering);
- :mod:`repro.service.server`    the JSON-lines TCP daemon;
- :mod:`repro.service.client`    the matching client.
"""

from repro.service.core import (
    CompileService,
    ServiceRequest,
    ServiceResult,
    Ticket,
)

__all__ = [
    "CompileService",
    "ServiceRequest",
    "ServiceResult",
    "Ticket",
]
