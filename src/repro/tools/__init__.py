"""Command-line tools and instrumentation.

- ``repro.tools.akgc``  -- compile one demo kernel and report everything.
- ``repro.tools.akgd``  -- run (or poke) the compile-service daemon.
- ``repro.tools.perf``  -- the view of ``repro.core.context``'s per-stage
  wall-clock totals and its one counter table (caches, engines, events).

Benchmarking lives outside ``src/``: ``python3 bench/run.py``.
"""
