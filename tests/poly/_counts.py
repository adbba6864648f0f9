"""One solver table's counts, read through the one view the benchmark
reads (``solver_cache_stats()``)."""

from repro.poly.cache import solver_cache_stats


def hits_misses(table):
    """``(hits, misses)`` of one solver table."""
    row = solver_cache_stats()[table]
    return row["hits"], row["misses"]
