"""Tests for the tiling-policy language (Fig. 4) and Auto Tiling."""

import pytest

from repro.hw.spec import HardwareSpec
from repro.tiling.auto import AutoTiler, LinearFootprintEvaluator
from repro.tiling.spec import (
    TileSpec,
    TilingSpecError,
    parse_tiling_policy,
)


class TestSpecLanguage:
    def test_single_statement(self):
        p = parse_tiling_policy("S_0: 32@UB, 32@UB")
        spec = p.spec_for("S0")
        assert spec is not None
        assert spec.sizes == [32, 32]
        assert [t.buffer for t in spec.specs] == ["UB", "UB"]

    def test_multiple_statements(self):
        text = """
        S_0: 32@UB, 32@UB
        S_2: 16@L1, 16@L1, 512@L0A
        """
        p = parse_tiling_policy(text)
        assert p.sizes_for("S0") == [32, 32]
        assert p.sizes_for("S2") == [16, 16, 512]
        assert [t.buffer for t in p.spec_for("S2").specs] == ["L1", "L1", "L0A"]
        assert p.spec_for("S9") is None

    def test_compact_stmt_id_form(self):
        p = parse_tiling_policy("S3: 8@L0C")
        assert p.sizes_for("S3") == [8]

    def test_comments_and_blank_lines(self):
        p = parse_tiling_policy("# header\n\nS_1: 4@UB  # trailing\n")
        assert p.sizes_for("S1") == [4]

    def test_roundtrip_render(self):
        text = "S_0: 32@UB, 16@L1"
        p = parse_tiling_policy(text)
        p2 = parse_tiling_policy(p.render())
        assert p2.sizes_for("S0") == [32, 16]

    @pytest.mark.parametrize(
        "bad",
        [
            "S0 32@UB",          # missing colon
            "X0: 32@UB",          # bad statement id
            "S0: 32UB",           # missing @
            "S0: -3@UB",          # negative size
            "S0: 32@XYZ",         # unknown buffer
            "S0:",                # empty specs
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(TilingSpecError):
            parse_tiling_policy(bad)

    def test_duplicate_statement_rejected(self):
        with pytest.raises(TilingSpecError):
            parse_tiling_policy("S0: 1@UB\nS_0: 2@UB")

    def test_zero_size_rejected(self):
        with pytest.raises(TilingSpecError):
            TileSpec(0, "UB")


def elementwise_evaluator(extents, dtype_bytes=2, tensors=3):
    """Evaluator for `tensors` same-shape operands of an elementwise op."""
    factors = [(d, 1.0, 0.0) for d in range(len(extents))]
    terms = [("UB", dtype_bytes, list(factors), True) for _ in range(tensors)]
    return LinearFootprintEvaluator(terms)


def conv_like_evaluator(extents, halo=2):
    """Evaluator with an overlapped input: (T0+halo) x (T1+halo) input tile."""
    in_factors = [(0, 1.0, float(halo)), (1, 1.0, float(halo))]
    out_factors = [(0, 1.0, 0.0), (1, 1.0, 0.0)]
    terms = [
        ("UB", 2, in_factors, True),
        ("UB", 2, out_factors, True),
    ]
    return LinearFootprintEvaluator(terms)


class TestAutoTiler:
    def test_small_problem_untouched_without_double_buffering(self):
        hw = HardwareSpec()
        tiler = AutoTiler(
            hw, elementwise_evaluator([64, 64]), [64, 64], double_buffered=False
        )
        sizes = tiler.search()
        # 3 x 64*64*2B = 24 KiB fits UB and there is no pipeline to fill.
        assert sizes == [64, 64]

    def test_double_buffering_prefers_pipelineable_tiles(self):
        """With double buffering, a single whole-space tile cannot overlap
        transfers with compute, so the search splits into >= a few tiles."""
        hw = HardwareSpec()
        tiler = AutoTiler(hw, elementwise_evaluator([64, 64]), [64, 64])
        sizes = tiler.search()
        n_tiles = 1
        for e, s in zip([64, 64], sizes):
            n_tiles *= -(-e // s)
        assert n_tiles >= AutoTiler.PIPELINE_TILES
        assert tiler.fits(sizes)

    def test_capacity_forces_tiling(self):
        hw = HardwareSpec()
        extents = [4096, 4096]
        tiler = AutoTiler(hw, elementwise_evaluator(extents), extents)
        sizes = tiler.search()
        assert sizes != extents
        assert tiler.fits(sizes)
        # 3 tensors * prod(sizes) * 2 bytes <= UB/2.
        assert 3 * sizes[0] * sizes[1] * 2 <= hw.usable_capacity("UB")

    def test_overlap_prefers_larger_tiles(self):
        """With halo overlap, movement/compute decreases with tile size, so
        the tiler should pick the largest feasible tiles."""
        hw = HardwareSpec()
        extents = [1024, 1024]
        tiler = AutoTiler(hw, conv_like_evaluator(extents), extents)
        sizes = tiler.search()
        assert tiler.fits(sizes)
        # Doubling either dim must violate capacity (maximality).
        for d in range(2):
            bigger = list(sizes)
            bigger[d] = min(bigger[d] * 2, extents[d])
            if bigger != sizes:
                assert not tiler.fits(bigger) or tiler.cost(bigger) >= tiler.cost(sizes) - 1e-9

    def test_infeasible_at_size_one_raises(self):
        hw = HardwareSpec()
        # A tensor axis independent of the tile: constant 1 GiB footprint.
        ev = LinearFootprintEvaluator([("UB", 2, [(None, 0.0, 1 << 29)], True)])
        tiler = AutoTiler(hw, ev, [16])
        with pytest.raises(RuntimeError):
            tiler.search()

    def test_cost_metric_shape(self):
        """Cost = warm-up + movement/compute: for pure elementwise tiles the
        per-element movement is constant, so cost is flat in tile size and
        the search keeps the full extent."""
        hw = HardwareSpec()
        ev = elementwise_evaluator([128, 128])
        tiler = AutoTiler(hw, ev, [128, 128])
        c_small = tiler.cost([16, 16])
        c_big = tiler.cost([64, 64])
        # Bigger tiles amortise the per-run overhead: cost non-increasing.
        assert c_big <= c_small + 1e-9

    def test_policy_wrapper(self):
        hw = HardwareSpec()
        tiler = AutoTiler(hw, elementwise_evaluator([32, 32]), [32, 32])
        sizes = tiler.search()
        # The tiler's choice, written in the Fig. 4 language, reads back.
        policy = parse_tiling_policy("S0: " + ", ".join(f"{s}@UB" for s in sizes))
        assert policy.sizes_for("S0") == sizes
