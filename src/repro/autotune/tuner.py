"""The two-round ML-guided auto-tuner of Sec. 5.3.

Procedure, following the paper:

1. build the tuning space of valid tiling parameters (power-of-two
   ladders per live-out band dimension, validated by the exact storage
   plan at measurement time);
2. draw a first round of random samples and measure each (simulated
   cycles);
3. train the learning model on the measurements;
4. each second-round sample derives from one of the ``N`` (=64) best
   first-round samples by moving a random step towards higher predicted
   performance with probability ``p``, or is drawn uniformly from the
   space with probability ``1 - p``; ``p`` varies across iterations via a
   formula with a predefined parameter (0.5), ranging from 0 towards
   ``e``-saturation;
5. repeat until the iteration budget is exhausted or no gain appears.

The tuner is not meant to guarantee the optimum (the paper says as much)
but usually beats the analytic Auto Tiling's data-movement heuristic.

Performance notes:

- Candidate generation within a round depends only on state fixed
  *before* the round (the fitted model, the ranked pool, the RNG), never
  on that round's measurements — so each round's candidates are generated
  up front and measured as one batch.  With ``tune_tile_sizes(...,
  parallel=True)`` the batch runs on one kernel's
  :class:`~repro.autotune.parallel.Measurer` process pool; results are
  collected in submission order, keeping history and best sizes
  bit-identical to a serial run.
- :func:`tune_tile_sizes` runs the polyhedral front-end once and compiles
  every candidate backend-only (:func:`repro.core.compiler.backend_build`)
  instead of re-running lowering/dependences/ILP scheduling per candidate.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.autotune.model import PerformanceModel


class TuningRecord:
    """One measured candidate."""

    __slots__ = ("sizes", "cycles")

    def __init__(self, sizes: List[int], cycles: float):
        self.sizes = sizes
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"TuningRecord({self.sizes}, {self.cycles})"


class AutoTuner:
    """ML-guided sampling over tile-size vectors."""

    def __init__(
        self,
        measure: Callable[[List[int]], Optional[float]],
        extents: Sequence[int],
        n_best: int = 64,
        p_parameter: float = 0.5,
        first_round: int = 32,
        round_size: int = 16,
        max_rounds: int = 4,
        seed: int = 0,
        batch_measure: Optional[
            Callable[[List[List[int]]], List[Optional[float]]]
        ] = None,
    ):
        self.measure = measure
        self.batch_measure = batch_measure
        self.extents = list(extents)
        self.ladders = [self._ladder(e) for e in self.extents]
        self.n_best = n_best
        self.p_parameter = p_parameter
        self.first_round = first_round
        self.round_size = round_size
        self.max_rounds = max_rounds
        self.rng = random.Random(seed)
        self.history: List[TuningRecord] = []
        self.model = PerformanceModel()
        # Dedup and incremental bests: the seen-set replaces the O(n)
        # history scan per candidate; _ranked mirrors
        # sorted(history, key=cycles) (stable, maintained by insertion);
        # _best mirrors min(history, key=cycles) (first minimum wins).
        self._seen: set = set()
        self._ranked: List[TuningRecord] = []
        self._ranked_keys: List[float] = []
        self._best: Optional[TuningRecord] = None

    _LADDER_CACHE: Dict[int, List[int]] = {}

    @classmethod
    def _ladder(cls, extent: int) -> List[int]:
        cached = cls._LADDER_CACHE.get(extent)
        if cached is None:
            steps = [extent]
            v = 1
            while v < extent:
                steps.append(v)
                v *= 2
            cached = cls._LADDER_CACHE[extent] = sorted(set(steps))
        return list(cached)

    def _random_sizes(self) -> List[int]:
        return [self.rng.choice(ladder) for ladder in self.ladders]

    def _record(self, record: TuningRecord) -> None:
        self.history.append(record)
        pos = bisect_right(self._ranked_keys, record.cycles)
        self._ranked_keys.insert(pos, record.cycles)
        self._ranked.insert(pos, record)
        if self._best is None or record.cycles < self._best.cycles:
            self._best = record

    def _measure_batch(self, candidates: Sequence[List[int]]) -> None:
        """Measure every not-yet-seen candidate, appending in given order."""
        fresh: List[List[int]] = []
        for sizes in candidates:
            key = tuple(sizes)
            if key in self._seen:
                continue
            self._seen.add(key)
            fresh.append(list(sizes))
        if not fresh:
            return
        if self.batch_measure is not None and len(fresh) > 1:
            results = self.batch_measure(fresh)
        else:
            results = [self.measure(sizes) for sizes in fresh]
        for sizes, cycles in zip(fresh, results):
            if cycles is not None:
                self._record(TuningRecord(list(sizes), float(cycles)))

    def _probability(self, round_index: int) -> float:
        """The varying mixing probability p of Sec. 5.3 (0 .. e-saturated)."""
        raw = math.exp(self.p_parameter * round_index) - 1.0
        return min(raw / (math.e - 1.0), 1.0)

    def tune(self) -> Tuple[List[int], List[TuningRecord]]:
        """Run the search; returns (best sizes, full history)."""
        self._measure_batch([self._random_sizes() for _ in range(self.first_round)])
        if not self.history:
            raise RuntimeError("no feasible tiling candidate could be measured")

        best_cycles = self._best.cycles
        for round_index in range(1, self.max_rounds + 1):
            self.model.fit(
                [r.sizes for r in self.history],
                [r.cycles for r in self.history],
            )
            pool = self._ranked[: self.n_best]
            p = self._probability(round_index)
            batch: List[List[int]] = []
            for _ in range(self.round_size):
                if self.rng.random() < p and pool:
                    seedrec = self.rng.choice(pool)
                    candidate = self.model.better_neighbour(
                        seedrec.sizes, self.ladders
                    )
                else:
                    candidate = self._random_sizes()
                batch.append(candidate)
            self._measure_batch(batch)
            new_best = self._best.cycles
            if new_best >= best_cycles:
                break  # no performance gain: stop early
            best_cycles = new_best

        return list(self._best.sizes), self.history


#: The small tuning budget of the compile service's tune requests: the
#: simulator measures every candidate, deep searches belong to the offline
#: tuner.  The values are part of the service's tune ``coalescing_key``.
DEFAULT_TUNE_PARAMS: Dict[str, int] = {
    "first_round": 6,
    "round_size": 3,
    "max_rounds": 2,
}


def tune_frontend(
    frontend,
    seed: int = 0,
    measure: Optional[Callable[[List[List[int]]], List[Optional[float]]]] = None,
    **params: int,
) -> Tuple[List[int], List[TuningRecord]]:
    """Tune one kernel's tile sizes over its finished front-end.

    Every candidate is compiled backend-only against ``frontend``:
    ``measure`` maps a batch of size vectors to their cycles (a
    :class:`~repro.autotune.parallel.Measurer`'s pool); without one,
    candidates are measured in process — same numbers either way.
    ``params`` are :class:`AutoTuner`'s budget
    (``first_round``/``round_size``/``max_rounds``).

    Per-candidate measurements (simulated cycles, or infeasibility) are
    memoized in the persistent disk cache keyed by the front-end's
    content digest plus the size vector: a warm-process tuning run
    replays measurements instead of compiling, and — because the
    simulator is deterministic — converges on exactly the same best
    sizes a cold run would.
    """
    from repro.autotune.parallel import measure_candidate
    from repro.core import diskcache

    if measure is None:

        def measure(batch):
            return [measure_candidate(frontend, sizes) for sizes in batch]

    def cycles_key(sizes: Sequence[int]) -> Optional[str]:
        if frontend.cache_key is None or not diskcache.enabled():
            return None
        return diskcache.digest(
            "cycles",
            frontend.cache_key,
            repr(tuple(int(s) for s in sizes)),
        )

    def measure_batch(batch: List[List[int]]) -> List[Optional[float]]:
        # Serve disk-cached candidates locally; measure the rest
        # (submission order preserved, so history stays bit-identical).
        keys = [cycles_key(sizes) for sizes in batch]
        results: List[Optional[float]] = [None] * len(batch)
        todo: List[int] = []
        for i, key in enumerate(keys):
            cached = diskcache.load(key)
            if isinstance(cached, dict) and "cycles" in cached:
                results[i] = cached["cycles"]
            else:
                todo.append(i)
        if todo:
            for i, value in zip(todo, measure([batch[i] for i in todo])):
                results[i] = value
                diskcache.store(keys[i], {"cycles": value})
        return results

    tuner = AutoTuner(
        lambda sizes: measure_batch([sizes])[0],
        frontend.extents,
        seed=seed,
        batch_measure=measure_batch,
        **params,
    )
    return tuner.tune()


def tune_tile_sizes(
    outputs,
    name: str = "kernel",
    hw=None,
    seed: int = 0,
    first_round: int = 16,
    round_size: int = 8,
    max_rounds: int = 3,
    parallel: bool = False,
    workers: Optional[int] = None,
) -> Tuple[List[int], List[TuningRecord]]:
    """Tune AKG tile sizes for a kernel by measuring simulated cycles.

    The polyhedral front-end (lowering, dependences, ILP scheduling,
    clustering) runs exactly once; :func:`tune_frontend` then compiles
    every candidate backend-only against the shared
    :class:`~repro.core.frontend.FrontEnd`.  With ``parallel=True`` each
    round's candidate batch is measured on a process pool (``workers``
    processes, default ``min(cpu_count, 8)``), falling back to serial
    measurement when no pool can be created; the returned best sizes and
    history are identical either way.
    """
    from repro.autotune.parallel import Measurer
    from repro.core.frontend import run_frontend
    from repro.hw.spec import HardwareSpec

    frontend = run_frontend(outputs, name, hw=hw or HardwareSpec())
    params = dict(
        first_round=first_round, round_size=round_size, max_rounds=max_rounds
    )
    if not parallel:
        return tune_frontend(frontend, seed, **params)
    with Measurer(frontend, workers=workers) as measurer:
        return tune_frontend(frontend, seed, measurer.measure, **params)
