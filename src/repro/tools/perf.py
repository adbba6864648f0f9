"""Lightweight pipeline instrumentation: per-stage wall-clock timing.

The compiler driver wraps each Fig. 2 stage in :func:`stage`; the
accumulated totals (plus the polyhedral solver-cache counters) answer the
question every performance PR starts with — *where does compile time go?*
— without a profiler run.  Overhead is two ``perf_counter`` calls and a
dict update per stage entry, cheap enough to leave on permanently.

Usage::

    from repro.tools import perf

    with perf.stage("schedule"):
        tree = scheduler.schedule_kernel(kernel, deps, clustering)

    print(perf.format_report())     # aligned per-stage table
    data = perf.report()            # machine-readable snapshot

Counters are process-global and cumulative; call :func:`reset` around the
region of interest.  Nested stages each record their own wall time (inner
stages are *not* subtracted from outer ones), so the table reads as "total
time spent inside this stage", the way a sampling profiler's inclusive
column does.

Thread-safe: the compile service times stages from many worker threads
at once, and an unlocked ``dict.get``/store pair drops increments under
that interleaving.  One process-wide lock guards every counter update
and snapshot; the cost is nanoseconds per stage entry.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["stage", "add", "reset", "report", "format_report"]

_totals: Dict[str, float] = {}
_counts: Dict[str, int] = {}
_LOCK = threading.Lock()


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time one entry into the named pipeline stage."""
    start = time.perf_counter()
    try:
        yield
    finally:
        add(name, time.perf_counter() - start)


def add(name: str, seconds: float) -> None:
    """Credit ``seconds`` of wall time to ``name`` directly."""
    with _LOCK:
        _totals[name] = _totals.get(name, 0.0) + seconds
        _counts[name] = _counts.get(name, 0) + 1


def reset() -> None:
    """Zero every stage counter (solver caches are managed separately)."""
    with _LOCK:
        _totals.clear()
        _counts.clear()


def report() -> Dict[str, Dict[str, float]]:
    """Snapshot: stage timings plus solver/disk-cache and engine counters."""
    from repro.core.diskcache import disk_cache_stats
    from repro.core.resilience import resilience_stats
    from repro.poly.cache import solver_cache_stats
    from repro.runtime.vectorized import exec_stats

    with _LOCK:
        stages = {
            name: {"seconds": _totals[name], "calls": _counts[name]}
            for name in sorted(_totals)
        }
    return {
        "stages": stages,
        "solver_cache": solver_cache_stats(),
        "disk_cache": disk_cache_stats(),
        "exec": exec_stats(),
        "resilience": resilience_stats(),
    }


def format_report() -> str:
    """Render the stage totals and cache counters as an aligned table."""
    data = report()
    lines = [f"{'stage':<24}{'calls':>8}{'seconds':>12}{'ms/call':>10}"]
    lines.append("-" * len(lines[0]))
    ordered = sorted(
        data["stages"].items(), key=lambda kv: -kv[1]["seconds"]
    )
    for name, row in ordered:
        per_call = 1000.0 * row["seconds"] / max(row["calls"], 1)
        lines.append(
            f"{name:<24}{row['calls']:>8}{row['seconds']:>12.4f}{per_call:>10.2f}"
        )
    for cache_name, s in data["solver_cache"].items():
        line = (
            f"solver cache [{cache_name}]: {s['hits']} hits / {s['misses']} "
            f"misses ({100.0 * s['hit_rate']:.1f}% hit rate, "
            f"{s['entries']} entries)"
        )
        if "pivots" in s:  # the ilp table: what its misses cost the simplex
            line += f", {s['pivots']} pivots over {s['rows']} tableau rows"
        lines.append(line)
    d = data["disk_cache"]
    if d.get("enabled"):
        lines.append(
            f"disk cache: {d['hits']} hits / {d['misses']} misses "
            f"({100.0 * d['hit_rate']:.1f}% hit rate, {d['stores']} stores, "
            f"{d['entries']} entries)"
        )
    else:
        lines.append("disk cache: disabled")
    e = data["exec"]
    if e["vectorized"] or e["scalar_fallback"] or e["scalar_small"]:
        lines.append(
            f"exec engine: {e['vectorized']} vectorized / "
            f"{e['scalar_fallback']} scalar-fallback / "
            f"{e['scalar_small']} scalar-small statements"
        )
        for reason, count in sorted(e["fallback_reasons"].items()):
            lines.append(f"  fallback [{reason}]: {count}")
    r = data["resilience"]
    if r:
        lines.append("resilience events:")
        for key, count in sorted(r.items()):
            lines.append(f"  {key}: {count}")
    return "\n".join(lines)
