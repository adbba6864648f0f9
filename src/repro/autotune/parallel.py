"""Candidate measurement for the auto-tuner, serial or on a process pool.

The staged pipeline makes tile-size candidates embarrassingly parallel:
every measurement is ``backend_build(frontend, sizes)`` + simulation over
a shared, *picklable* :class:`~repro.core.frontend.FrontEnd` —
:func:`measure_candidate`.  A :class:`Measurer` holds ``{kernel id:
FrontEnd}`` (one entry for the single-kernel tuner, every unique subgraph
for the graph pipeline), ships the front-ends to each worker once via the
pool initializer, and measures ``(kernel id, sizes)`` tasks, so tuners
running concurrently share the same warm workers.

Determinism: results come back through ``Executor.map``, which preserves
submission order, and each measurement is a pure function of
``(frontend, sizes)`` — so the tuner's history, model fits and final best
sizes are bit-identical to a serial run.  Any failure to parallelise
(pickling, missing ``fork``, a dead worker) is retried once on a fresh
pool and then degrades permanently to in-process serial measurement.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence

from repro.core import faults

__all__ = ["Measurer", "measure_candidate"]

# Worker-process state, populated once by the pool initializer.
_WORKER_FRONTENDS: dict = {}


def measure_candidate(frontend, sizes: Sequence[int]) -> Optional[float]:
    """Simulated cycles of ``frontend`` compiled at ``sizes``; ``None``
    for an infeasible candidate."""
    from repro.core.compiler import AkgOptions, backend_build

    try:
        result = backend_build(frontend, AkgOptions(tile_sizes=list(sizes)))
    except RuntimeError:
        return None
    return float(result.cycles())


def _init_worker(frontends) -> None:
    _WORKER_FRONTENDS.update(frontends)


def _measure_in_worker(task) -> Optional[float]:
    kid, sizes = task
    # Outside measure_candidate's try: an injected worker fault must look
    # like a *dead or misbehaving worker* to the parent (task exception /
    # hard exit), not like an ordinary infeasible candidate.
    faults.fire("autotune.worker")
    return measure_candidate(_WORKER_FRONTENDS[kid], sizes)


class Measurer:
    """Batch-measure tile-size candidates of many kernels on one pool.

    Thread-safe: per-kernel tuners call :meth:`measure` from separate
    threads; pool creation, teardown and the retry ladder are serialized
    behind a lock while the ``pool.map`` calls themselves overlap freely.
    """

    #: Pool attempts per batch before degrading to serial: the first try
    #: plus one retry against a freshly recreated pool.  Transient worker
    #: deaths (an OOM-killed child) clear on the retry; persistent ones
    #: (broken environment, poisoned payload) should not be retried
    #: forever against an interactive tuning loop.
    MAX_POOL_ATTEMPTS = 2
    RETRY_BACKOFF_SECONDS = 0.05

    def __init__(self, frontends: dict, workers: Optional[int] = None):
        self.frontends = dict(frontends)
        self.workers = workers
        self._pool = None
        self._serial_fallback = False
        self._lock = threading.Lock()

    def _ensure_pool(self):
        # Caller holds self._lock.
        if self._pool is None:
            import os
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers or min(os.cpu_count() or 1, 8),
                initializer=_init_worker,
                initargs=(self.frontends,),
            )
        return self._pool

    def _close_locked(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        with self._lock:
            self._close_locked()

    def __enter__(self) -> "Measurer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def measure(self, kid, batch: Sequence[Sequence[int]]) -> List[Optional[float]]:
        """Cycles (or ``None``) per candidate of kernel ``kid``, in order.

        A single candidate never pays for the pool.
        """
        if len(batch) > 1 and not self._serial_fallback:
            from repro.core import resilience

            delay = self.RETRY_BACKOFF_SECONDS
            for attempt in range(1, self.MAX_POOL_ATTEMPTS + 1):
                try:
                    with self._lock:
                        pool = self._ensure_pool()
                    return list(
                        pool.map(_measure_in_worker, [(kid, list(s)) for s in batch])
                    )
                except Exception as exc:
                    # A dead worker poisons the whole ProcessPoolExecutor
                    # (every queued future raises BrokenProcessPool), so
                    # recreate the pool rather than reuse it.
                    retry = attempt < self.MAX_POOL_ATTEMPTS
                    with self._lock:
                        self._close_locked()
                        if retry:
                            resilience.note_event(
                                "autotune.pool", "retry",
                                error=type(exc).__name__,
                                detail=f"recreating pool (attempt {attempt + 1})",
                            )
                        else:
                            resilience.note_event(
                                "autotune.pool", "fallback", fallback="serial",
                                error=type(exc).__name__,
                                detail="pool attempts exhausted",
                            )
                            # Degrade for the rest of the session rather
                            # than paying the attempts on every batch:
                            # serial results are the same numbers.
                            self._serial_fallback = True
                    if retry:
                        time.sleep(delay)
                        delay *= 4.0
        frontend = self.frontends[kid]
        return [measure_candidate(frontend, s) for s in batch]
