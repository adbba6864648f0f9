"""Command-line tools and instrumentation.

- ``repro.tools.akgc``  -- compile one demo kernel and report everything.
- ``repro.tools.akgd``  -- run (or poke) the compile-service daemon.
- ``repro.tools.perf``  -- per-stage wall-clock timing + solver cache stats.

Benchmarking lives outside ``src/``: ``python3 bench/run.py``.
"""
