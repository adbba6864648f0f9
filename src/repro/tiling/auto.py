"""Auto Tiling (Sec. 4.2): tile-size selection minimising data movement.

The objective follows the paper: the cost of a tile size vector is

    warm-up + (bytes moved along tile boundaries) / (computation in tile)

where non-contiguous transfers weight in the number of contiguous runs.
Buffer utilisation is constrained to at most *half* of each buffer's
capacity, enabling double buffering (Sec. 5.2).  A greedy search walks a
power-of-two ladder per dimension: shrink the most over-budget dimension
until feasible, then hill-climb on the movement-per-computation metric.

The tiler asks one evaluator object three questions about a size vector:

- ``utilization(sizes) -> {buffer: bytes}``: on-chip bytes a tile needs;
- ``movement(sizes) -> (bytes, contiguous_runs)``: data moved per tile;
- ``computation(sizes) -> instances``: statement instances per tile.

:class:`LinearFootprintEvaluator` answers them from fitted affine
footprints; :func:`repro.tiling.policy.fit_evaluator` builds one by
probing exact storage plans, and the tests build synthetic ones to probe
the search behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.core.errors import TilingError
from repro.hw.spec import HardwareSpec
from repro.tiling.spec import StatementSpec, TileSpec, TilingPolicy
from repro.tools import faultinject


class LinearFootprintEvaluator:
    """Closed-form evaluator for affine footprints.

    Each tensor contributes ``prod_d (alpha_d * T_d + beta_d)`` elements,
    the multivariate polynomial of symbolic tile sizes the paper describes.
    ``terms`` is a list of ``(buffer, dtype_bytes, [(dim_index|None, alpha,
    beta), ...], moved)`` records; ``dim_index None`` denotes a tensor axis
    independent of the tile (full extent via ``beta``).
    """

    def __init__(
        self,
        terms: List[Tuple[str, int, List[Tuple[Optional[int], float, float]], bool]],
        compute_scale: float = 1.0,
    ):
        self.terms = terms
        self.compute_scale = compute_scale

    def _elements(self, factors, sizes) -> float:
        total = 1.0
        for dim_index, alpha, beta in factors:
            t = sizes[dim_index] if dim_index is not None else 0
            total *= max(alpha * t + beta, 1.0)
        return total

    def utilization(self, sizes: Sequence[int]) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for buffer, dbytes, factors, _moved in self.terms:
            out[buffer] = out.get(buffer, 0) + int(
                self._elements(factors, sizes) * dbytes
            )
        return out

    def movement(self, sizes: Sequence[int]) -> Tuple[float, int]:
        moved = 0.0
        runs = 0
        for buffer, dbytes, factors, is_moved in self.terms:
            if not is_moved:
                continue
            elems = self._elements(factors, sizes)
            moved += elems * dbytes
            # Runs ~ elements / innermost run length.
            inner = factors[-1]
            t = sizes[inner[0]] if inner[0] is not None else 0
            run_len = max(inner[1] * t + inner[2], 1.0)
            runs += int(elems / run_len)
        return moved, max(runs, 1)

    def computation(self, sizes: Sequence[int]) -> int:
        total = self.compute_scale
        for s in sizes:
            total *= s
        return max(int(total), 1)


class AutoTiler:
    """Greedy data-movement-minimising tile-size search."""

    def __init__(
        self,
        hw: HardwareSpec,
        evaluator: LinearFootprintEvaluator,
        extents: Sequence[int],
        warmup_cycles: float = 100.0,
        double_buffered: bool = True,
        min_size: int = 1,
        fixed_sizes: Optional[Dict[int, int]] = None,
    ):
        self.hw = hw
        self.evaluator = evaluator
        self.extents = list(extents)
        self.warmup_cycles = warmup_cycles
        self.double_buffered = double_buffered
        self.min_size = min_size
        # Dims pinned to a fixed tile size (dim index -> size): excluded
        # from both the shrink phase and the hill-climb.  Used for
        # symbolic dims, whose tile geometry must not depend on the
        # (runtime-bound) extent.
        self.fixed_sizes = dict(fixed_sizes or {})

    # -- feasibility & cost ---------------------------------------------------------

    def fits(self, sizes: Sequence[int]) -> bool:
        """Utilisation within the (double-buffered) capacity of each buffer."""
        for buffer, used in self.evaluator.utilization(sizes).items():
            if used > self.hw.usable_capacity(buffer, self.double_buffered):
                return False
        return True

    # Double buffering needs a few tiles in flight before transfers hide
    # behind compute; below this count the pipeline is partially serial.
    PIPELINE_TILES = 4

    def cost(self, sizes: Sequence[int]) -> float:
        """The paper's metric: warm-up + movement / computation.

        A serialisation penalty discourages degenerate tilings with fewer
        tiles than the double-buffer pipeline needs to fill.
        """
        moved, runs = self.evaluator.movement(sizes)
        weighted = moved + runs * self.hw.noncontiguous_run_overhead
        base = self.warmup_cycles + weighted / self.evaluator.computation(sizes)
        n_tiles = 1
        for extent, size in zip(self.extents, sizes):
            n_tiles *= -(-extent // max(size, 1))
        if n_tiles < self.PIPELINE_TILES and self.double_buffered:
            base *= 1.0 + 0.25 * (self.PIPELINE_TILES - n_tiles)
        return base

    # -- search -----------------------------------------------------------------------

    def _ladder(self, extent: int) -> List[int]:
        steps = [extent]
        v = 1
        while v < extent:
            steps.append(v)
            v *= 2
        return sorted(set(min(s, extent) for s in steps))

    def search(self) -> List[int]:
        """Return the selected tile sizes (one per band dimension)."""
        faultinject.fire("tiling.auto_search")
        sizes = list(self.extents)
        ladders = [self._ladder(e) for e in self.extents]
        for d, v in self.fixed_sizes.items():
            sizes[d] = min(v, self.extents[d])
            ladders[d] = [sizes[d]]  # single rung: never shrunk or moved

        # Phase 1: shrink until the tile fits on chip.
        guard = 0
        while not self.fits(sizes):
            resilience.check_deadline()
            guard += 1
            if guard > 256:
                raise TilingError(
                    "auto-tiling failed to fit the buffers",
                    stage=resilience.active_stage(),
                )
            # Shrink the dimension whose halving costs least on the data-
            # movement metric (this naturally protects the contiguous
            # innermost dimension, whose shrinking multiplies DMA bursts).
            best: Optional[Tuple[float, int, int]] = None
            for d in range(len(sizes)):
                smaller = self._shrink(sizes[d], ladders[d])
                if smaller is None:
                    continue
                trial = list(sizes)
                trial[d] = smaller
                candidate = (self.cost(trial), -sizes[d], d)
                if best is None or candidate < best:
                    best = candidate
            if best is None:
                raise TilingError(
                    "auto-tiling cannot satisfy buffer capacities at size 1",
                    stage=resilience.active_stage(),
                )
            dim = best[2]
            sizes[dim] = self._shrink(sizes[dim], ladders[dim])

        # Phase 2: greedy hill-climb on the movement metric.
        improved = True
        while improved:
            resilience.check_deadline()
            improved = False
            best_cost = self.cost(sizes)
            for dim in range(len(sizes)):
                for neighbour in self._neighbours(sizes[dim], ladders[dim]):
                    trial = list(sizes)
                    trial[dim] = neighbour
                    if not self.fits(trial):
                        continue
                    c = self.cost(trial)
                    if c < best_cost - 1e-9:
                        sizes, best_cost = trial, c
                        improved = True
        return sizes

    def _shrink(self, size: int, ladder: List[int]) -> Optional[int]:
        below = [s for s in ladder if s < size and s >= self.min_size]
        return below[-1] if below else None

    def _neighbours(self, size: int, ladder: List[int]) -> List[int]:
        out = []
        below = [s for s in ladder if s < size]
        above = [s for s in ladder if s > size]
        if below:
            out.append(below[-1])
        if above:
            out.append(above[0])
        return out

    def as_policy(
        self, stmt_id: str, sizes: Sequence[int], buffers: Sequence[str]
    ) -> TilingPolicy:
        """Wrap selected sizes into a Fig. 4 policy object."""
        specs = [TileSpec(s, b) for s, b in zip(sizes, buffers)]
        return TilingPolicy([StatementSpec(stmt_id, specs)])
