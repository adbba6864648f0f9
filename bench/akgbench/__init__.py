"""The repo benchmark: five workloads, exact counts, calibrated CPU time.

Entry point is ``bench/run.py``; see ``bench/README.md`` for why each
workload, row and metric exists.  Nothing here is imported by ``src/``:
every layer is measured from outside, through its public functions and
the counters the program already exposes.
"""
