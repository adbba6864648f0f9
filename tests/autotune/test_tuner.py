"""Tests for the ML-guided auto-tuner (Sec. 5.3)."""

import math

import pytest

from repro.autotune.model import PerformanceModel
from repro.autotune.tuner import AutoTuner, tune_tile_sizes
from repro.ir import ops
from repro.ir.tensor import placeholder


class TestPerformanceModel:
    def test_unfit_model_predicts_inf(self):
        m = PerformanceModel()
        assert m.predict([4, 4]) == float("inf")

    def test_fit_ranks_simple_function(self):
        """Cycles = 1e6 / (s0*s1): bigger tiles are better; the model must
        rank a big candidate above a small one."""
        m = PerformanceModel()
        samples = [[a, b] for a in (1, 4, 16, 64) for b in (1, 4, 16, 64)]
        cycles = [1e6 / (a * b) for a, b in samples]
        m.fit(samples, cycles)
        assert m.predict([64, 64]) < m.predict([2, 2])

    def test_better_neighbour_moves_towards_optimum(self):
        m = PerformanceModel()
        ladder = [1, 2, 4, 8, 16, 32, 64]
        samples = [[a] for a in ladder]
        cycles = [1e6 / a for a in ladder]
        m.fit(samples, cycles)
        assert m.better_neighbour([8], [ladder]) == [16]


class TestAutoTuner:
    def test_finds_optimum_of_synthetic_surface(self):
        """Cost minimised at sizes [16, 8]; the tuner should find it (or a
        near neighbour) within a small budget."""

        def measure(sizes):
            s0, s1 = sizes
            return (math.log2(s0 / 16) ** 2 + math.log2(s1 / 8) ** 2) * 100 + 10

        tuner = AutoTuner(
            measure, [64, 64], first_round=24, round_size=12, max_rounds=4, seed=1
        )
        best, history = tuner.tune()
        assert measure(best) <= 120  # within one ladder step of the optimum
        assert len(history) >= 24

    def test_infeasible_candidates_skipped(self):
        def measure(sizes):
            if sizes[0] < 8:
                return None  # infeasible
            return float(sizes[0])

        tuner = AutoTuner(measure, [64], first_round=16, seed=2)
        best, history = tuner.tune()
        assert best[0] >= 8
        assert all(r.sizes[0] >= 8 for r in history)

    def test_all_infeasible_raises(self):
        tuner = AutoTuner(lambda s: None, [8], first_round=4, seed=3)
        with pytest.raises(RuntimeError):
            tuner.tune()

    def test_probability_schedule(self):
        tuner = AutoTuner(lambda s: 1.0, [8], seed=0)
        p1 = tuner._probability(1)
        p3 = tuner._probability(3)
        assert 0.0 <= p1 <= 1.0
        assert p3 >= p1  # p grows across rounds

    def test_deterministic_given_seed(self):
        def measure(sizes):
            return float(sum(sizes))

        t1 = AutoTuner(measure, [32, 32], first_round=8, seed=7)
        t2 = AutoTuner(measure, [32, 32], first_round=8, seed=7)
        b1, h1 = t1.tune()
        b2, h2 = t2.tune()
        assert b1 == b2
        assert [r.sizes for r in h1] == [r.sizes for r in h2]


class TestTuneKernel:
    def test_tuner_not_worse_than_auto_tiling(self):
        """Sec. 5.3: the tuner 'can usually find a better tiling strategy
        than the Auto Tiling' -- it must never be worse, since Auto
        Tiling's choice is in the search space of measurements."""
        from repro.core.compiler import build

        x = placeholder((256, 128), dtype="fp16", name="X")
        r = ops.sigmoid(x, name="R")
        auto_cycles = build(r, "auto").cycles()
        best, history = tune_tile_sizes(
            r, "tuned", first_round=8, round_size=4, max_rounds=2
        )
        tuned_cycles = min(rec.cycles for rec in history)
        assert tuned_cycles <= auto_cycles * 1.01


def _band_kernels():
    from functools import partial

    from repro.graph.subgraphs import paper_subgraphs
    from repro.service.wire import demo_kernel

    demos = [
        ("relu", [64, 128]),
        ("add", [64, 128]),
        ("softmax", [32, 64]),
        ("matmul", [32, 32, 32]),
        ("matmul", [48, 32, 64]),
        ("conv2d", [1, 4, 12, 12]),
        ("conv2d", [1, 8, 8, 8]),
    ]
    kernels = {
        f"{op}_{'x'.join(map(str, shape))}": partial(demo_kernel, op, shape)
        for op, shape in demos
    }
    kernels.update({s.name: s.build for s in paper_subgraphs()})
    return kernels


class TestTuningSpace:
    @pytest.mark.parametrize("name", sorted(_band_kernels()))
    def test_frontend_extents_are_the_built_band(self, name):
        """The tuner ladders ``frontend.extents`` without building first:
        they must equal the band extents an Auto Tiling build ends with."""
        from repro.core.compiler import backend_build
        from repro.core.frontend import run_frontend

        frontend = run_frontend(_band_kernels()[name](), name)
        group = backend_build(frontend).groups[-1]
        built = group.statements[-1].iter_extents[: len(group.tile_dims)]
        assert frontend.extents == list(built)
