"""Spans around the calls into each layer's public functions.

The traced run patches the public entry points listed in ``TARGETS``
with a wrapper that records ``{name, start, end, parent, phase, row}``
per call, keeps the records in memory, and writes them at exit as
Chrome-trace JSON (load in ``chrome://tracing`` or Perfetto).  Nothing
under ``src/`` changes: the patches live only in the traced benchmark
process.  A layer's self time is its span minus the part its child
spans cover.  End-to-end metrics are always measured with tracing off.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, class or None, attribute, span name).  A function imported
#: by value into another module is patched at every importing site.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.compiler", None, "build", "core.build"),
    ("repro.core.compiler", None, "run_frontend", "core.run_frontend"),
    ("repro.core.frontend", None, "run_frontend", "core.run_frontend"),
    ("repro.core.compiler", None, "backend_build", "backend.backend_build"),
    ("repro.core.frontend", None, "lower", "ir.lower"),
    ("repro.core.frontend", None, "compute_dependences", "sched.compute_dependences"),
    ("repro.core.frontend", None, "conservative_clustering", "sched.conservative_clustering"),
    ("repro.sched.scheduler", "PolyScheduler", "schedule_kernel", "sched.schedule_kernel"),
    ("repro.graph.pipeline", None, "compile_network", "graph.compile_network"),
    ("repro.graph.pipeline", None, "fuse_graph", "graph.fuse_graph"),
    ("repro.graph.plan", "NetworkPlan", "replay", "graph.plan_replay"),
    ("repro.autotune.tuner", None, "tune_tile_sizes", "autotune.tune_tile_sizes"),
    ("repro.core.diskcache", None, "load", "diskcache.load"),
    ("repro.core.diskcache", None, "store", "diskcache.store"),
    ("repro.hw.simulator", "Simulator", "run", "hw.simulate"),
    ("repro.verify", None, "verify_result", "verify.verify_result"),
    ("repro.runtime.reference", None, "evaluate_kernel", "runtime.evaluate_kernel"),
    ("repro.codegen.program_exec", "ProgramReplay", "__init__", "replay.prepare"),
    ("repro.codegen.program_exec", "ProgramReplay", "run", "replay.run"),
    ("repro.service.client", "ServiceClient", "request", "client.request"),
    ("repro.service.server", "AkgdServer", "handle_line", "server.handle_line"),
    ("repro.service.core", "CompileService", "run", "service.run"),
    ("repro.service.wire", None, "request_from_json", "wire.request_from_json"),
    ("repro.service.wire", None, "result_to_json", "wire.result_to_json"),
)

#: Span names that mean "the compiler ran"; the execution and warm-serve
#: phases must contain none of them.
COMPILE_SPANS = frozenset(
    (
        "core.build",
        "core.run_frontend",
        "backend.backend_build",
        "graph.compile_network",
        "autotune.tune_tile_sizes",
    )
)


class Span:
    __slots__ = ("name", "phase", "row", "tid", "wall0", "wall1", "cpu0", "cpu1", "parent")

    def __init__(self, name, phase, row, tid, parent):
        self.name = name
        self.phase = phase
        self.row = row
        self.tid = tid
        self.parent = parent
        self.wall1 = self.cpu1 = 0.0
        self.wall0 = time.perf_counter()
        self.cpu0 = time.thread_time()

    def close(self) -> None:
        self.cpu1 = time.thread_time()
        self.wall1 = time.perf_counter()

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0


class Tracer:
    """In-memory span recorder with a per-thread parent stack.

    ``phase`` and ``row`` are set by the workload around its own calls
    (one benchmark process drives one workload, so plain attributes are
    enough); worker threads of the compile service inherit whatever is
    current when their span opens.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self.row: Optional[str] = None
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = Span(
            name,
            self.phase,
            self.row,
            threading.get_ident(),
            stack[-1] if stack else None,
        )
        self.spans.append(record)  # list.append is atomic under the GIL
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record.close()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            return
        for module_name, class_name, attr, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, span_name))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per span name within ``phase``: calls, inclusive CPU seconds
        and self CPU seconds (inclusive minus direct children)."""
        child_cpu: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_cpu[id(s.parent)] = child_cpu.get(id(s.parent), 0.0) + s.cpu
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            if s.phase != phase:
                continue
            row = out.setdefault(s.name, {"calls": 0, "cpu_s": 0.0, "self_cpu_s": 0.0})
            row["calls"] += 1
            row["cpu_s"] += s.cpu
            row["self_cpu_s"] += max(0.0, s.cpu - child_cpu.get(id(s), 0.0))
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Complete ("X") events, microsecond timestamps from the first
        span; ``args`` carries parent id, phase, row and CPU time."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        origin = min((s.wall0 for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": s.tid,
                "ts": round(1e6 * (s.wall0 - origin), 3),
                "dur": round(1e6 * (s.wall1 - s.wall0), 3),
                "args": {
                    "id": ids[id(s)],
                    "parent": ids[id(s.parent)] if s.parent is not None else None,
                    "phase": s.phase,
                    "row": s.row,
                    "cpu_us": round(1e6 * s.cpu, 3),
                },
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
