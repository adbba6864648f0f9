"""Per-stage wall-clock totals and event counters: the view of
``repro.core.context.TOTALS`` and ``repro.core.context.COUNTERS``.

Every pipeline stage runs under :class:`repro.core.context.stage`, which
credits its wall time on exit; the accumulated totals (plus the
counters: solver and disk caches, engines, degradation events, network
dedup) answer the question every performance PR starts with — *where
does compile time go?* — without a profiler run.  Overhead is two clock
reads and a dict update per stage entry, cheap enough to leave on
permanently.

Usage::

    from repro.core.context import stage
    from repro.tools import perf

    with stage("schedule"):
        tree = scheduler.schedule_kernel(kernel, deps, clustering)

    print(perf.format_report())     # aligned per-stage table
    data = perf.report()            # machine-readable snapshot

Both tables are process-global and cumulative; :func:`reset` zeroes
them together (solver-cache entries stay memoized), so call it around the
region of interest.  Nested stages each record their own wall time (inner
stages are *not* subtracted from outer ones), so the table reads as "total
time spent inside this stage", the way a sampling profiler's inclusive
column does.  Thread-safety is the context module's: every update and
snapshot holds its one lock.
"""

from __future__ import annotations

from typing import Dict

from repro.core.context import LOCK, TOTALS, counters, reset_counters
from repro.core.context import credit as add  # perf.add(name, seconds)

__all__ = ["add", "reset", "report", "format_report"]


def reset() -> None:
    """Zero every stage total and every counter."""
    with LOCK:
        TOTALS.clear()
    reset_counters()


def report() -> Dict[str, Dict[str, float]]:
    """Snapshot: stage timings, the whole counter table and its views."""
    from repro.core.diskcache import disk_cache_stats
    from repro.poly.cache import solver_cache_stats
    from repro.runtime.vectorized import exec_stats

    with LOCK:
        stages = {
            name: {"seconds": seconds, "calls": calls}
            for name, (seconds, calls) in sorted(TOTALS.items())
        }
    return {
        "stages": stages,
        "solver_cache": solver_cache_stats(),
        "disk_cache": disk_cache_stats(),
        "exec": exec_stats(),
        "resilience": counters("resilience."),
        "counters": counters(),
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
    for label, count in sorted(data["counters"].items()):
        if label.startswith("graph."):  # the network pipeline's counts
            lines.append(f"{label}: {count}")
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
