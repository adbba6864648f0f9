"""Vectorized compiled-program replay: bit-exact against the scalar path.

``execute_program(engine="vectorized")`` replaces per-point membership
tests with a vectorized relation check and the fused-producer dedup sets
with boolean executed-masks; these tests pin both down with exact array
equality against the scalar replay (itself validated against
``evaluate_kernel``).
"""

import numpy as np
import pytest

from repro.codegen.program_exec import (
    _Membership,
    _ParametricBox,
    execute_program,
)
from repro.core.compiler import AkgOptions, build
from repro.ir import ops
from repro.ir.tensor import compute, placeholder, reduce_axis, te_sum
from repro.runtime import vectorized
from repro.runtime.reference import evaluate_kernel

RNG = np.random.default_rng(11)


def rand(shape, dtype=np.float16):
    return RNG.standard_normal(shape).astype(dtype)


def assert_replay_engines_equal(result, inputs):
    scalar = result.execute(inputs, engine="scalar")
    vec = result.execute(inputs, engine="vectorized")
    auto = result.execute(inputs, engine="auto")
    oracle = evaluate_kernel(result.kernel, inputs, engine="scalar")
    for name in scalar:
        assert np.array_equal(scalar[name], vec[name]), name
        assert np.array_equal(scalar[name], auto[name]), name
        assert np.array_equal(scalar[name], oracle[name]), name
    return scalar


class TestReplayEquivalence:
    @pytest.mark.parametrize("tile_sizes", [[1, 1], [3, 5], [16, 16], [64, 64]])
    def test_elementwise_any_tiling(self, tile_sizes):
        x = placeholder((10, 14), name="X")
        out = ops.relu(ops.scalar_mul(x, -1.5, name="S"), name="OUT")
        result = build(
            out, "k", options=AkgOptions(emit_trace=True, tile_sizes=tile_sizes)
        )
        assert_replay_engines_equal(result, {"X": rand((10, 14), np.float32)})

    def test_matmul_tiled(self):
        a = placeholder((24, 20), name="A")
        b = placeholder((20, 12), name="B")
        result = build(
            ops.matmul(a, b, name="C"),
            "k",
            options=AkgOptions(emit_trace=True),
        )
        assert_replay_engines_equal(
            result, {"A": rand((24, 20)), "B": rand((20, 12))}
        )

    def test_conv2d_padded_replay(self):
        d = placeholder((1, 3, 10, 10), name="D")
        w = placeholder((4, 3, 3, 3), name="W")
        result = build(
            ops.relu(ops.conv2d(d, w, stride=(1, 1), padding=(1, 1)), name="OUT"),
            "k",
            options=AkgOptions(emit_trace=True),
        )
        assert_replay_engines_equal(
            result, {"D": rand((1, 3, 10, 10)), "W": rand((4, 3, 3, 3))}
        )

    def test_multi_group_transpose(self):
        x = placeholder((6, 9), name="X")
        t = ops.transpose(x, (1, 0), name="T")
        out = ops.relu(t, name="OUT")
        result = build(out, "k", options=AkgOptions(emit_trace=True))
        assert_replay_engines_equal(result, {"X": rand((6, 9), np.float32)})

    def test_overlapping_fused_producer_tiles(self):
        """Executed-masks must preserve no-redundant-recompute exactly:
        the producer accumulates, so any double execution corrupts."""
        a = placeholder((12,), name="A")
        pre = ops.scalar_add(a, 1.0, name="PRE")
        k = reduce_axis((0, 3), "k")
        c = compute((10,), lambda i: te_sum(pre[i + k], axis=k), name="C")
        result = build(
            c, "k", options=AkgOptions(emit_trace=True, tile_sizes=[4])
        )
        group = result.groups[-1]
        assert group.fused_producer_ids == ["S0"]
        assert group.total_tiles >= 2
        assert_replay_engines_equal(result, {"A": rand((12,), np.float32)})

    def test_paper_running_example_fused(self):
        """Fig. 3 (examples/conv_fusion.py): bias + conv + abs + relu with
        overlapped producer tiles, replayed bit-exactly on both engines."""
        H = W = 20
        a = placeholder((H, W), dtype="fp16", name="A")
        a1 = ops.scalar_add(a, 1.0, name="A1")
        b = placeholder((3, 3), dtype="fp16", name="B")
        kh = reduce_axis((0, 3), "kh")
        kw = reduce_axis((0, 3), "kw")
        c = compute(
            (H - 2, W - 2),
            lambda h, w: te_sum(a1[h + kh, w + kw] * b[kh, kw], axis=(kh, kw)),
            name="C",
        )
        out = ops.relu(ops.abs_op(c, name="C1"), name="C2")
        result = build(out, "fused", options=AkgOptions(emit_trace=True))
        assert_replay_engines_equal(
            result, {"A": rand((H, W)), "B": rand((3, 3))}
        )

    def test_engine_param_validation(self):
        x = placeholder((4,), name="X")
        result = build(
            ops.relu(x, name="R"), "k", options=AkgOptions(emit_trace=True)
        )
        with pytest.raises(ValueError):
            result.execute({"X": rand((4,), np.float32)}, engine="nope")

    def test_runtime_fallback_still_exact(self, monkeypatch):
        """Force the vectorized per-tile path to abort: the scalar
        per-point fallback must produce the identical result."""
        x = placeholder((9, 9), name="X")
        out = ops.relu(x, name="OUT")
        result = build(
            out, "k", options=AkgOptions(emit_trace=True, tile_sizes=[4, 4])
        )
        xv = rand((9, 9), np.float32)
        expected = result.execute({"X": xv}, engine="scalar")

        def boom(*args, **kwargs):
            raise vectorized.Unvectorizable("forced for test")

        monkeypatch.setattr(vectorized, "run_statement_box", boom)
        vectorized.reset_exec_stats()
        got = execute_program(result.program, {"X": xv}, engine="vectorized")
        for name in expected:
            assert np.array_equal(expected[name], got[name]), name
        assert vectorized.exec_stats()["fallback_reasons"]["forced for test"] > 0


class TestEachReplayEventCountedOnce:
    """The ``exec.*`` counters count statements, the ``exec.*`` stage rows
    count time entries: a replay of N vectorized statements adds N to the
    counter and at most one entry to the stage row, however many tiles
    ran or fell back."""

    REPLAYS = 3

    def test_vectorized_statements(self):
        from repro.codegen.program_exec import ProgramReplay
        from repro.tools import perf

        from tests.core.test_golden_programs import GOLDEN

        result = build(
            GOLDEN["conv2d_16x32"][0](), "conv2d_16x32",
            options=AkgOptions(emit_trace=True),
        )
        inputs = {"D": rand((1, 16, 32, 32)), "W": rand((16, 16, 3, 3))}
        replayer = ProgramReplay(result.program, "vectorized")
        perf.reset()
        replayer.run(inputs)
        per_replay = vectorized.exec_stats()["vectorized"]
        assert per_replay > 0
        for _ in range(self.REPLAYS - 1):
            replayer.run(inputs)
        stats = vectorized.exec_stats()
        assert stats["vectorized"] == self.REPLAYS * per_replay
        assert stats["program_replays"] == self.REPLAYS
        stages = perf.report()["stages"]
        assert stages["exec.vectorized"]["calls"] <= self.REPLAYS

    def test_scalar_fallbacks(self, monkeypatch):
        from repro.tools import perf

        x = placeholder((9, 9), name="X")
        result = build(
            ops.relu(x, name="OUT"), "k",
            options=AkgOptions(emit_trace=True, tile_sizes=[4, 4]),
        )

        def boom(*args, **kwargs):
            raise vectorized.Unvectorizable("forced for test")

        monkeypatch.setattr(vectorized, "run_statement_box", boom)
        perf.reset()
        xv = rand((9, 9), np.float32)
        execute_program(result.program, {"X": xv}, engine="vectorized")
        per_replay = vectorized.exec_stats()["scalar_fallback"]
        assert per_replay > 1  # one per tile
        for _ in range(self.REPLAYS - 1):
            execute_program(result.program, {"X": xv}, engine="vectorized")
        stats = vectorized.exec_stats()
        assert stats["scalar_fallback"] == self.REPLAYS * per_replay
        assert stats["fallback_reasons"] == {"forced for test": self.REPLAYS * per_replay}
        stages = perf.report()["stages"]
        assert stages["exec.scalar_fallback"]["calls"] <= self.REPLAYS
        assert "exec.vectorized" not in stages


class TestParametricBox:
    def test_box_covers_and_filters_like_ilp(self):
        """The parametric box may be looser than the per-tile ILP box but
        must contain it, and membership filtering must select the same
        instance set."""
        from repro.poly.affine import AffineExpr, Constraint

        a = placeholder((12,), name="A")
        pre = ops.scalar_add(a, 1.0, name="PRE")
        k = reduce_axis((0, 3), "k")
        c = compute((10,), lambda i: te_sum(pre[i + k], axis=k), name="C")
        result = build(
            c, "k", options=AkgOptions(emit_trace=True, tile_sizes=[4])
        )
        group = result.groups[-1]
        for stmt in group.statements:
            rel = group.instance_relations[stmt.stmt_id]
            wrapped = rel.wrap()
            pbox = _ParametricBox(
                wrapped, stmt.iter_names, group.tile_dims, stmt.iter_extents
            )
            for tile in range(group.tile_counts[0]):
                tile_env = dict(zip(group.tile_dims, (tile,)))
                box = pbox.at(tile_env)
                cons = [
                    Constraint.eq(AffineExpr.variable(d), v)
                    for d, v in tile_env.items()
                ]
                image = rel.add_constraints(cons).range()
                ilp_box = None if image.is_empty() else image.bounding_box()
                if box is None:
                    assert ilp_box is None or all(
                        image.is_empty() for _ in [0]
                    )
                    continue
                if ilp_box is not None:
                    for (lo, hi), name in zip(box, stmt.iter_names):
                        assert lo <= ilp_box[name][0]
                        assert hi >= ilp_box[name][1]
                # Same instances selected, whichever box enumerates them.
                members_param = {
                    pt
                    for pt in _points(box)
                    if wrapped.contains({**tile_env, **dict(zip(stmt.iter_names, pt))})
                }
                members_ilp = set()
                if ilp_box is not None:
                    members_ilp = {
                        pt
                        for pt in _points(
                            [ilp_box[n] for n in stmt.iter_names]
                        )
                        if wrapped.contains(
                            {**tile_env, **dict(zip(stmt.iter_names, pt))}
                        )
                    }
                assert members_param == members_ilp

    def test_membership_mask_matches_contains(self):
        a = placeholder((12,), name="A")
        pre = ops.scalar_add(a, 1.0, name="PRE")
        k = reduce_axis((0, 3), "k")
        c = compute((10,), lambda i: te_sum(pre[i + k], axis=k), name="C")
        result = build(
            c, "k", options=AkgOptions(emit_trace=True, tile_sizes=[4])
        )
        group = result.groups[-1]
        for stmt in group.statements:
            wrapped = group.instance_relations[stmt.stmt_id].wrap()
            membership = _Membership(wrapped, group.tile_dims, stmt.iter_names)
            assert membership.exact
            pbox = _ParametricBox(
                wrapped, stmt.iter_names, group.tile_dims, stmt.iter_extents
            )
            for tile in range(group.tile_counts[0]):
                tile_env = dict(zip(group.tile_dims, (tile,)))
                box = pbox.at(tile_env)
                if box is None:
                    continue
                _assert_mask_exact(
                    membership, wrapped, tile_env, stmt.iter_names, (tile,), box
                )

    def test_schedule_keeps_no_all_true_mask(self):
        """A step's mask lives as long as the replayer: an all-in tile
        stores None, not a box-sized array of True (which cost a 256^3
        matmul replayer 16 MB and made a dead replayer's heap holes the
        largest term of the benchmark's peak RSS)."""
        from repro.codegen.program_exec import ProgramReplay

        a = placeholder((24, 20), name="A")
        b = placeholder((20, 12), name="B")
        result = build(
            ops.matmul(a, b, name="C"),
            "k",
            options=AkgOptions(emit_trace=True, tile_sizes=[16, 8, 8]),
        )
        inputs = {"A": rand((24, 20)), "B": rand((20, 12))}
        replayer = ProgramReplay(result.program, "vectorized")
        out = replayer.run(inputs)
        steps = [s for steps in replayer._schedules[()] for s in steps]
        assert steps
        for step in steps:
            assert step.mask is None or not step.mask.all()
        scalar = result.execute(inputs, engine="scalar")
        assert np.array_equal(out["C"], scalar["C"])

    def test_replay_makes_no_python_level_call_per_reduce_step(self, python_calls):
        """Two matmuls that differ only in K replay at the same number of
        Python-level calls, and bit-exactly: each tile streams its
        reduction inside numpy."""
        from repro.codegen.program_exec import ProgramReplay

        counts = []
        for k in (8, 64):
            a = placeholder((16, k), name="A")
            b = placeholder((k, 16), name="B")
            result = build(
                ops.matmul(a, b, name="C"),
                "k",
                options=AkgOptions(emit_trace=True, tile_sizes=[8, 8, 64]),
            )
            inputs = {"A": rand((16, k)), "B": rand((k, 16))}
            replayer = ProgramReplay(result.program, "vectorized")
            out = replayer.run(inputs)  # schedules and plans built
            scalar = result.execute(inputs, engine="scalar")
            assert np.array_equal(out["C"], scalar["C"])
            counts.append(python_calls(lambda: replayer.run(inputs)))
        assert counts[0] == counts[1], counts


def _points(box):
    import itertools

    return itertools.product(*[range(lo, hi + 1) for lo, hi in box])


def _full_grid_mask(membership, tile, box):
    """Every membership row evaluated over the whole box grid."""
    grids = np.meshgrid(
        *[np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in box], indexing="ij"
    )
    full = np.ones(tuple(hi - lo + 1 for lo, hi in box), dtype=bool)
    for const, tile_coeffs, iter_terms, is_eq in membership.rows:
        val = const + sum(tc * tv for tc, tv in zip(tile_coeffs, tile))
        for k, c in iter_terms:
            val = val + c * grids[k]
        full &= (val == 0) if is_eq else (val >= 0)
    return full


def _assert_mask_exact(membership, wrapped, tile_env, iter_names, tile, box):
    """The box-decided mask says what the full grid and ``contains`` say:
    None = every point a member, False = none, an array = exactly the
    members (and then never all of them)."""
    mask = membership.mask(tile, box)
    full = _full_grid_mask(membership, tile, box)
    if mask is None:
        assert full.all(), (tile, box)
    elif mask is False:
        assert not full.any(), (tile, box)
    else:
        assert not mask.all(), (tile, box)
        assert np.array_equal(np.broadcast_to(mask, full.shape), full), (tile, box)
    for offsets in np.ndindex(full.shape):
        pt = tuple(lo + o for (lo, _), o in zip(box, offsets))
        expected = wrapped.contains({**tile_env, **dict(zip(iter_names, pt))})
        assert bool(full[offsets]) == expected, (tile, pt)
    return mask


def _stencil():
    a = placeholder((12,), name="A")
    pre = ops.scalar_add(a, 1.0, name="PRE")
    k = reduce_axis((0, 3), "k")
    return compute((10,), lambda i: te_sum(pre[i + k], axis=k), name="C"), [4]


def _partial_matmul():
    a = placeholder((13, 11), name="A")
    b = placeholder((11, 9), name="B")
    return ops.matmul(a, b, name="C"), [5, 4, 3]


def _overlapped_producer():
    a = placeholder((12, 12), dtype="fp16", name="A")
    a1 = ops.scalar_add(a, 1.0, name="A1")
    w = placeholder((3, 3), dtype="fp16", name="W")
    kh = reduce_axis((0, 3), "kh")
    kw = reduce_axis((0, 3), "kw")
    c = compute(
        (10, 10),
        lambda h, x: te_sum(a1[h + kh, x + kw] * w[kh, kw], axis=(kh, kw)),
        name="C",
    )
    return ops.relu(c, name="OUT"), [4, 4]


def _symbolic_matmul():
    from repro.ir.tensor import SymDim

    a = placeholder((SymDim("M", 16), 12), "fp16", name="A")
    b = placeholder((12, 10), "fp16", name="B")
    return ops.matmul(a, b, name="C"), None


class TestBoxDecidedMembership:
    """``_Membership.mask`` decides each row from the tile's box and
    evaluates only the undecided rows; the result must equal evaluating
    every row over the whole grid, and ``wrapped.contains`` per point."""

    @pytest.mark.parametrize(
        "source",
        [_stencil, _partial_matmul, _overlapped_producer, _symbolic_matmul],
        ids=["stencil", "partial_matmul", "overlapped_producer", "symbolic"],
    )
    def test_every_step_matches_full_grid(self, source):
        from repro.codegen.program_exec import ProgramReplay

        out, tile_sizes = source()
        result = build(
            out, "k", options=AkgOptions(emit_trace=True, tile_sizes=tile_sizes)
        )
        replayer = ProgramReplay(result.program, "vectorized")
        checked = 0
        for group, replays in replayer._group_replays:
            for tile in np.ndindex(*group.tile_counts):
                tile_env = dict(zip(group.tile_dims, tile))
                for rep in replays:
                    box = rep.pbox.at(tile_env)
                    if box is None:
                        continue
                    _assert_mask_exact(
                        rep.membership, rep.wrapped, tile_env,
                        rep.stmt.iter_names, tile, box,
                    )
                    checked += 1
        assert checked
        inputs = {
            t.name: rand(t.shape, np.float32) for t in result.kernel.inputs
        }
        bindings = [{}]
        if result.kernel.sym_dims:
            assert result.kernel.shape_generic
            bindings.append({"M": 5})
            small = dict(inputs, A=inputs["A"][:5])
            assert np.array_equal(
                replayer.run(small)["C"],
                result.execute(small, engine="scalar")["C"],
            )
        # The base schedule and a clamped one (shape-generic replay at a
        # smaller batch) hold exactly the masks the full grid gives.
        for effective in bindings:
            for steps in replayer._schedule_for(effective):
                for step in steps:
                    full = _full_grid_mask(step.rep.membership, step.tile, step.box)
                    assert full.any()
                    if step.mask is None:
                        assert full.all()
                    else:
                        assert np.array_equal(
                            np.broadcast_to(step.mask, full.shape), full
                        )
        assert_replay_engines_equal(result, inputs)

    def test_undecided_two_iterator_row(self):
        """``i + k <= 5`` over a 4x4 box is neither implied nor empty: it
        alone becomes an array, and only ``i >= 4t`` decides tile 1."""
        from repro.poly.affine import Constraint, var
        from repro.poly.sets import BasicSet, Space

        t, i, k = var("t"), var("i"), var("k")
        wrapped = BasicSet(
            Space("S", ["t", "i", "k"]),
            [
                Constraint.ge(i, t * 4),
                Constraint.le(i, 3),
                Constraint.ge(k, 0),
                Constraint.le(k, 3),
                Constraint.le(i + k, 5),
            ],
        )
        membership = _Membership(wrapped, ["t"], ["i", "k"])
        assert membership.exact
        box = [(0, 3), (0, 3)]
        mask = _assert_mask_exact(
            membership, wrapped, {"t": 0}, ["i", "k"], (0,), box
        )
        assert isinstance(mask, np.ndarray)
        assert mask.sum() == 15  # only (3, 3) is out
        # Tile 1: i >= 4 has no point in the box.
        assert (
            _assert_mask_exact(membership, wrapped, {"t": 1}, ["i", "k"], (1,), box)
            is False
        )
        # A box the row already implies builds no array at all.
        assert (
            _assert_mask_exact(
                membership, wrapped, {"t": 0}, ["i", "k"], (0,), [(0, 2), (0, 3)]
            )
            is None
        )

    def test_schedule_of_large_matmul_allocates_no_box_arrays(self):
        """Building the 256^3 matmul schedule allocates nothing box-sized
        (it peaked at 8 MB while every row was evaluated over each tile's
        whole grid); the same replay stays bit-exact at a small shape."""
        import tracemalloc

        from repro.codegen.program_exec import ProgramReplay

        n = 256
        a = placeholder((n, n), "fp16", name="A")
        b = placeholder((n, n), "fp16", name="B")
        result = build(
            ops.matmul(a, b, name="C"), "k", options=AkgOptions(emit_trace=True)
        )
        replayer = ProgramReplay(result.program, "vectorized")
        tracemalloc.start()
        try:
            steps = replayer._schedule_for({})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(s) for s in steps)
        assert peak < 0.5 * 2**20, peak
        a = placeholder((24, 20), "fp16", name="A")
        b = placeholder((20, 12), "fp16", name="B")
        small = build(
            ops.matmul(a, b, name="C"), "k", options=AkgOptions(emit_trace=True)
        )
        inputs = {"A": rand((24, 20)), "B": rand((20, 12))}
        assert np.array_equal(
            ProgramReplay(small.program, "vectorized").run(inputs)["C"],
            small.execute(inputs, engine="scalar")["C"],
        )
