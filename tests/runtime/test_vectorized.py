"""Vectorized-vs-scalar engine equivalence: bit-exact or it doesn't ship.

Every assertion here uses exact array equality (``np.array_equal``), not
``allclose``: the vectorized engine is specified to reproduce the scalar
oracle bit-for-bit on fp16/fp32/int32, including reduction accumulation
order and the lazy-``Select`` out-of-bounds guarantee.
"""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.ir import ops
from repro.ir.expr import BinaryOp, Cast, Reduce, Select, UnaryOp
from repro.ir.lower import lower
from repro.ir.tensor import compute, placeholder, reduce_axis, te_max, te_sum
from repro.runtime.reference import (
    AUTO_VECTORIZE_MIN_INSTANCES,
    allocate_outputs,
    bind_inputs,
    evaluate_kernel,
    numpy_dtype,
    run_instance,
)
from repro.runtime.vectorized import (
    Unvectorizable,
    exec_stats,
    plan_for,
    reset_exec_stats,
    run_statement,
    run_statement_box,
)

RNG = np.random.default_rng(7)


def rand(shape, dtype="fp32"):
    if dtype == "int32":
        return RNG.integers(-5, 6, size=shape).astype(np.int32)
    np_dtype = {"fp16": np.float16, "fp32": np.float32}[dtype]
    return RNG.standard_normal(shape).astype(np_dtype)


def assert_engines_equal(outputs, inputs, expect_fallbacks=0):
    """Lower once, run all three engines, require exact equality."""
    kernel = lower(outputs)
    scalar = evaluate_kernel(kernel, inputs, engine="scalar")
    reset_exec_stats()
    vectorized = evaluate_kernel(kernel, inputs, engine="vectorized")
    stats = exec_stats()
    auto = evaluate_kernel(kernel, inputs, engine="auto")
    for name in scalar:
        assert np.array_equal(scalar[name], vectorized[name]), name
        assert np.array_equal(scalar[name], auto[name]), name
        assert scalar[name].dtype == vectorized[name].dtype, name
    assert stats["scalar_fallback"] == expect_fallbacks, stats
    return scalar


class TestExampleKernels:
    """Every operator in the catalog, vectorized without fallback."""

    def test_matmul_fp16(self):
        a, b = placeholder((9, 13), "fp16", "A"), placeholder((13, 7), "fp16", "B")
        assert_engines_equal(
            ops.matmul(a, b), {"A": rand((9, 13), "fp16"), "B": rand((13, 7), "fp16")}
        )

    def test_matmul_fp32(self):
        a, b = placeholder((16, 16), "fp32", "A"), placeholder((16, 16), "fp32", "B")
        assert_engines_equal(
            ops.matmul(a, b), {"A": rand((16, 16)), "B": rand((16, 16))}
        )

    def test_matmul_int32(self):
        a = placeholder((8, 8), "int32", "A")
        b = placeholder((8, 8), "int32", "B")
        assert_engines_equal(
            ops.matmul(a, b),
            {"A": rand((8, 8), "int32"), "B": rand((8, 8), "int32")},
        )

    def test_batched_matmul(self):
        a = placeholder((3, 6, 5), "fp16", "A")
        b = placeholder((3, 5, 4), "fp16", "B")
        assert_engines_equal(
            ops.batched_matmul(a, b),
            {"A": rand((3, 6, 5), "fp16"), "B": rand((3, 5, 4), "fp16")},
        )

    def test_conv2d_padded(self):
        d = placeholder((1, 3, 9, 9), "fp16", "D")
        w = placeholder((4, 3, 3, 3), "fp16", "W")
        assert_engines_equal(
            ops.conv2d(d, w, stride=(1, 1), padding=(1, 1)),
            {"D": rand((1, 3, 9, 9), "fp16"), "W": rand((4, 3, 3, 3), "fp16")},
        )

    def test_conv2d_strided(self):
        d = placeholder((1, 2, 10, 10), "fp16", "D")
        w = placeholder((2, 2, 3, 3), "fp16", "W")
        assert_engines_equal(
            ops.conv2d(d, w, stride=(2, 2), padding=(1, 1)),
            {"D": rand((1, 2, 10, 10), "fp16"), "W": rand((2, 2, 3, 3), "fp16")},
        )

    def test_depthwise_conv2d(self):
        d = placeholder((1, 3, 8, 8), "fp16", "D")
        w = placeholder((3, 3, 3), "fp16", "W")
        assert_engines_equal(
            ops.depthwise_conv2d(d, w, padding=(1, 1)),
            {"D": rand((1, 3, 8, 8), "fp16"), "W": rand((3, 3, 3), "fp16")},
        )

    def test_pools(self):
        d = placeholder((1, 2, 8, 8), "fp32", "D")
        assert_engines_equal(ops.max_pool2d(d), {"D": rand((1, 2, 8, 8))})
        assert_engines_equal(ops.avg_pool2d(d), {"D": rand((1, 2, 8, 8))})

    def test_batch_norm(self):
        x = placeholder((2, 3, 4, 4), "fp32", "X")
        total, sq = ops.batch_norm_reduce(x)
        assert_engines_equal([total, sq], {"X": rand((2, 3, 4, 4))})
        mean = placeholder((3,), "fp32", "MU")
        var = placeholder((3,), "fp32", "VAR")
        gamma = placeholder((3,), "fp32", "G")
        beta = placeholder((3,), "fp32", "B")
        assert_engines_equal(
            ops.batch_norm_update(x, mean, var, gamma, beta),
            {
                "X": rand((2, 3, 4, 4)),
                "MU": rand((3,)),
                "VAR": np.abs(rand((3,))) + np.float32(0.5),
                "G": rand((3,)),
                "B": rand((3,)),
            },
        )

    def test_gelu_layer_norm_softmax(self):
        x = placeholder((6, 16), "fp32", "X")
        assert_engines_equal(ops.gelu(x), {"X": rand((6, 16))})
        assert_engines_equal(ops.softmax_last_axis(x), {"X": rand((6, 16))})
        gamma = placeholder((16,), "fp32", "G")
        beta = placeholder((16,), "fp32", "B")
        assert_engines_equal(
            ops.layer_norm(x, gamma, beta),
            {"X": rand((6, 16)), "G": rand((16,)), "B": rand((16,))},
        )

    def test_transpose_pad_cast_one_hot(self):
        x = placeholder((5, 9), "fp32", "X")
        assert_engines_equal(ops.transpose(x, (1, 0)), {"X": rand((5, 9))})
        assert_engines_equal(ops.cast(x, "fp16"), {"X": rand((5, 9))})
        d = placeholder((1, 2, 5, 5), "fp16", "D")
        assert_engines_equal(ops.pad2d(d, 2, 1), {"D": rand((1, 2, 5, 5), "fp16")})
        idx = placeholder((7,), "int32", "I")
        assert_engines_equal(
            ops.one_hot(idx, 5),
            {"I": RNG.integers(0, 5, 7).astype(np.int32)},
        )

    def test_embedding_lookup_falls_back(self):
        """Data-dependent indexing is unclassifiable: scalar fallback,
        same results, counted."""
        table = placeholder((10, 4), "fp32", "T")
        idx = placeholder((6,), "int32", "I")
        assert_engines_equal(
            ops.embedding_lookup(table, idx),
            {"T": rand((10, 4)), "I": RNG.integers(0, 10, 6).astype(np.int32)},
            expect_fallbacks=1,
        )
        assert exec_stats()["fallback_reasons"] == {"data-dependent indexing": 1}


class TestEdgeCases:
    def test_zero_extent_reduce_axis(self):
        x = placeholder((4, 3), "fp32", "X")
        k = reduce_axis((0, 0), "k")
        out = compute((4,), lambda i: te_sum(x[i, k], axis=k), name="Z")
        res = assert_engines_equal(out, {"X": rand((4, 3))})
        assert np.array_equal(res["Z"], np.zeros(4, np.float32))

    def test_select_padding_at_boundaries(self):
        """Guarded reads one past each edge: the guard keeps every lane
        in bounds, so no fallback and exact zero padding."""
        x = placeholder((5,), "fp32", "X")
        out = compute(
            (7,),
            lambda i: Select(
                BinaryOp(
                    "and",
                    BinaryOp("ge", i, 1),
                    BinaryOp("le", i, 5),
                ),
                x[i - 1],
                0.0,
            ),
            name="P",
        )
        assert_engines_equal(out, {"X": rand((5,))})

    def test_guarded_oob_true_branch_matches_scalar_error(self):
        """If the guard *fails* to protect an OOB read, the vectorized
        engine must not silently produce values: it falls back to the
        scalar interpreter, which raises exactly as it always did."""
        x = placeholder((4,), "fp32", "X")
        out = compute(
            (4,),
            lambda i: Select(BinaryOp("ge", i, 0), x[i + 100], 0.0),
            name="BAD",
        )
        kernel = lower(out)
        xv = rand((4,))
        with pytest.raises(IndexError):
            evaluate_kernel(kernel, {"X": xv}, engine="scalar")
        with pytest.raises(IndexError):
            evaluate_kernel(kernel, {"X": xv}, engine="vectorized")

    def test_non_unit_stride_access(self):
        x = placeholder((11,), "fp32", "X")
        out = compute((5,), lambda i: x[2 * i + 1], name="S")
        assert_engines_equal(out, {"X": rand((11,))})

    def test_reversed_access(self):
        x = placeholder((6,), "fp32", "X")
        out = compute((6,), lambda i: x[5 - i], name="R")
        assert_engines_equal(out, {"X": rand((6,))})

    def test_diagonal_gather(self):
        x = placeholder((6, 6), "fp32", "X")
        out = compute((6,), lambda i: x[i, i], name="DIAG")
        assert_engines_equal(out, {"X": rand((6, 6))})

    def test_negative_index_wraps_like_numpy(self):
        """Unguarded negative indices keep raw numpy wrap-around in both
        engines (the scalar oracle indexes numpy arrays directly)."""
        x = placeholder((6,), "fp32", "X")
        out = compute((4,), lambda i: x[i - 2], name="W")
        assert_engines_equal(out, {"X": rand((6,))})

    def test_fp16_cast_chain(self):
        x = placeholder((8, 8), "fp32", "X")
        out = ops.cast(ops.gelu(ops.cast(x, "fp16")), "fp32")
        assert_engines_equal(out, {"X": rand((8, 8))})

    def test_max_reduction_fp16_rounding(self):
        """One-shot fmax fast path vs per-step scalar max with fp16
        accumulator casts must agree exactly."""
        x = placeholder((5, 64), "fp16", "X")
        k = reduce_axis((0, 64), "k")
        out = compute((5,), lambda i: te_max(x[i, k], axis=k), name="M")
        assert_engines_equal(out, {"X": rand((5, 64), "fp16")})

    def test_engine_validation(self):
        x = placeholder((4,), "fp32", "X")
        kernel = lower(ops.relu(x))
        with pytest.raises(ValueError):
            evaluate_kernel(kernel, {"X": rand((4,))}, engine="gpu")

    def test_auto_routes_small_statements_to_scalar(self):
        shape = (2, 2)
        assert shape[0] * shape[1] < AUTO_VECTORIZE_MIN_INSTANCES
        x = placeholder(shape, "fp32", "X")
        kernel = lower(ops.relu(x))
        evaluate_kernel(kernel, {"X": rand(shape)}, engine="auto")
        stats = exec_stats()
        assert stats["scalar_small"] == 1
        assert stats["vectorized"] == 0

    def test_perf_report_surfaces_exec_counters(self):
        from repro.tools import perf

        x = placeholder((16, 16), "fp32", "X")
        kernel = lower(ops.relu(x))
        evaluate_kernel(kernel, {"X": rand((16, 16))}, engine="vectorized")
        report = perf.report()
        assert report["exec"]["vectorized"] >= 1
        assert "exec engine:" in perf.format_report()


# -- streamed reductions -------------------------------------------------------
#
# Sum/prod never materialise the data x K box: the operands of the root
# add/sub/mul/div are sliced per step.  The cross product below is every way
# that path can be entered, each compared bit for bit with the scalar oracle.

DATA = (3, 4)  # i, j
REDUCE = (2, 3)  # k1, k2

# Value ranges keep six-step products of every root finite in every dtype:
# the oracle itself warns on overflow and warnings are errors here.
_LOW_HIGH = {"fp16": (0.25, 1.0), "fp32": (0.25, 1.0), "int32": (1, 3)}


def _values(rng, shape, dtype):
    lo, hi = _LOW_HIGH[dtype]
    if dtype == "int32":
        return rng.integers(lo, hi, size=shape).astype(np.int32)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return (sign * rng.uniform(lo, hi, size=shape)).astype(numpy_dtype(dtype))


ROOTS = {
    "mul": lambda x, y: x * y,
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "div": lambda x, y: x / y,
    "cast_mul": lambda x, y: Cast(x.dtype, x * y),
    "exp": lambda x, y: UnaryOp("exp", x - y),
}
# The second operand of the root, by how much of the reduce box it spans.
OPERANDS = {
    "scalar": ((), lambda i, j, k1, k2: ()),
    "spans_all": ((4, 2, 3), lambda i, j, k1, k2: (j, k1, k2)),
    "spans_none": ((3, 4), lambda i, j, k1, k2: (i, j)),
    "spans_some": ((4, 3), lambda i, j, k1, k2: (j, k2)),
}


def _streamed_case(dtype, reduce_op, root, operand, seed=0):
    """``OUT[i, j] = reduce_op over k1, k2 of root(X[i, k1, k2], operand)``,
    lowered, with seeded inputs."""
    rng = np.random.default_rng(seed)
    x = placeholder(DATA[:1] + REDUCE, dtype, "X")
    inputs = {"X": _values(rng, x.shape, dtype)}
    shape, index = OPERANDS[operand]
    if shape:
        y = placeholder(shape, dtype, "Y")
        inputs["Y"] = _values(rng, shape, dtype)
    k1, k2 = reduce_axis((0, REDUCE[0]), "k1"), reduce_axis((0, REDUCE[1]), "k2")

    def body(i, j):
        second = y[index(i, j, k1, k2)] if shape else (2 if dtype == "int32" else 0.75)
        return Reduce(reduce_op, ROOTS[root](x[i, k1, k2], second), [k1, k2])

    return lower(compute(DATA, body, name="OUT")), inputs


def _scalar_box(stmt, buffers, box, mask, executed):
    """The oracle for one tile: member instances, one at a time."""
    shape = tuple(hi - lo + 1 for lo, hi in box)
    member = np.ones(shape, bool) if mask is None else np.broadcast_to(mask, shape)
    for offsets in np.ndindex(shape):
        point = tuple(lo + o for (lo, _), o in zip(box, offsets))
        if not member[offsets]:
            continue
        if executed is not None:
            if executed[point]:
                continue
            executed[point] = True
        run_instance(stmt, point, buffers)


def _assert_boxes_equal(kernel, inputs, tiles, dedup):
    """Replay ``tiles`` -- ``(box, mask)`` pairs -- of the kernel's last
    statement on both engines, after running what precedes it."""
    stmt = kernel.statements[-1]
    plan = plan_for(stmt)
    results = []
    for run_box in (run_statement_box, None):
        buffers = bind_inputs(kernel, inputs)
        allocate_outputs(kernel, buffers)
        for earlier in kernel.statements[:-1]:
            run_statement(earlier, buffers)
        executed = np.zeros(stmt.iter_extents, bool) if dedup else None
        if dedup:
            executed[0, 1] = True  # a neighbouring tile got here first
        for box, mask in tiles:
            if run_box is None:
                _scalar_box(stmt, buffers, box, mask, executed)
            else:
                run_box(plan, buffers, box, mask, executed)
        results.append((buffers[stmt.tensor.name], executed))
    (got, got_executed), (want, want_executed) = results
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    if dedup:
        assert np.array_equal(got_executed, want_executed)


# A tile that cuts every axis, under a membership mask with holes; the dedup
# pair overlaps, so the second tile finds part of its box already executed.
PARTIAL_BOX = [(1, 2), (0, 2), (0, 1), (1, 2)]
OVERLAPPING = [
    ([(0, 1), (0, 3), (0, 1), (0, 2)], None),
    ([(1, 2), (1, 3), (0, 1), (0, 2)], None),
]


class TestStreamedReductions:
    @pytest.mark.parametrize("operand", list(OPERANDS))
    @pytest.mark.parametrize("root", list(ROOTS))
    @pytest.mark.parametrize(
        "dtype,reduce_op",
        [
            (dtype, reduce_op)
            for dtype in ("fp16", "fp32", "int32")
            for reduce_op in ("sum", "prod", "max", "min")
            # An int32 max/min initialises with an infinity no int32 holds:
            # the oracle's init store raises OverflowError.
            if not (dtype == "int32" and reduce_op in ("max", "min"))
        ],
    )
    def test_every_entry_matches_the_oracle(self, dtype, reduce_op, root, operand):
        kernel, inputs = _streamed_case(dtype, reduce_op, root, operand)
        # Full box.
        want = evaluate_kernel(kernel, inputs, engine="scalar")
        reset_exec_stats()
        got = evaluate_kernel(kernel, inputs, engine="vectorized")
        assert exec_stats()["scalar_fallback"] == 0
        assert got["OUT"].dtype == want["OUT"].dtype == numpy_dtype(dtype)
        assert np.array_equal(got["OUT"], want["OUT"])
        # Partial tile under a membership mask.
        shape = tuple(hi - lo + 1 for lo, hi in PARTIAL_BOX)
        mask = np.random.default_rng(1).random(shape) < 0.6
        mask[0, 0] = False  # an output lane with no member at all
        _assert_boxes_equal(kernel, inputs, [(PARTIAL_BOX, mask)], dedup=False)
        # Fused producer: overlapping tiles deduplicated through ``executed``.
        _assert_boxes_equal(kernel, inputs, OVERLAPPING, dedup=True)

    def test_broadcast_membership_mask(self):
        """Replay hands masks that merely broadcast to the box."""
        kernel, inputs = _streamed_case("fp16", "sum", "mul", "spans_all")
        mask = np.array([True, False, True]).reshape(1, 3, 1, 1)
        _assert_boxes_equal(kernel, inputs, [(PARTIAL_BOX, mask)], dedup=False)

    @pytest.mark.parametrize("reduce_op", ["sum", "max"])
    def test_rank_zero_output(self, reduce_op):
        x = placeholder((70,), "fp16", "X")
        k = reduce_axis((0, 70), "k")
        out = compute((), lambda: Reduce(reduce_op, x[k] * 0.5, [k]), name="Z")
        assert_engines_equal(out, {"X": rand((70,), "fp16")})

    def test_escaping_guarded_read_aborts_before_the_first_accumulate(self):
        """``X[i + k - 1]`` under a guard that does not cover ``i + k == 0``:
        the tile holding that lane raises for the scalar fallback with the
        output and the dedup mask exactly as they were; every other tile
        streams."""
        x = placeholder((8,), "fp32", "X")
        k = reduce_axis((0, 3), "k")
        out = compute(
            (6,),
            lambda i: te_sum(
                Select(BinaryOp("ge", i + k, 0), x[i + k - 1], 0.0) * 2.0, axis=k
            ),
            name="OUT",
        )
        kernel = lower(out)
        stmt = kernel.statements[-1]
        buffers = bind_inputs(kernel, {"X": rand((8,))})
        allocate_outputs(kernel, buffers)
        buffers["OUT"][...] = rand((6,))
        executed = np.zeros(stmt.iter_extents, bool)
        executed[1, 2] = True
        before = buffers["OUT"].copy(), executed.copy()
        with pytest.raises(Unvectorizable):
            run_statement_box(
                plan_for(stmt), buffers, [(0, 2), (0, 2)], None, executed
            )
        assert np.array_equal(buffers["OUT"], before[0])
        assert np.array_equal(executed, before[1])
        inputs = {"X": buffers["X"]}
        _assert_boxes_equal(kernel, inputs, [([(1, 5), (0, 2)], None)], dedup=True)


def _fp16_sum(values):
    """``OUT[i] = sum over k of X[i, k] * Y[i, k]`` with ``X = values``, Y ones."""
    values = np.asarray(values, np.float16)
    x = placeholder(values.shape, "fp16", "X")
    y = placeholder(values.shape, "fp16", "Y")
    k = reduce_axis((0, values.shape[1]), "k")
    out = compute(
        values.shape[:1], lambda i: te_sum(x[i, k] * y[i, k], axis=k), name="OUT"
    )
    return lower(out), {"X": values, "Y": np.ones(values.shape, np.float16)}


def _run_box(kernel, inputs, mask):
    stmt = kernel.statements[-1]
    buffers = bind_inputs(kernel, inputs)
    allocate_outputs(kernel, buffers)
    box = [(0, extent - 1) for extent in stmt.iter_extents]
    run_statement_box(plan_for(stmt), buffers, box, mask, None)
    return buffers["OUT"]


class TestReductionWarnings:
    """The accumulate runs in the caller's error state, the root (like all
    of expression evaluation) with errors ignored -- as the oracle, whose
    Python-float arithmetic is silent and whose store into the output
    dtype warns."""

    OVERFLOWING = [[60000.0, 60000.0], [1.0, 2.0]]

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_fp16_overflow_warns_unmasked(self):
        kernel, inputs = _fp16_sum(self.OVERFLOWING)
        with pytest.raises(RuntimeWarning, match="overflow"):
            evaluate_kernel(kernel, inputs, engine="scalar")
        with pytest.raises(RuntimeWarning, match="overflow"):
            evaluate_kernel(kernel, inputs, engine="vectorized")

    def test_fp16_overflow_warns_under_a_mask(self):
        kernel, inputs = _fp16_sum(self.OVERFLOWING)
        mask = np.array([[True, True], [True, False]])
        with pytest.raises(RuntimeWarning, match="overflow"):
            _run_box(kernel, inputs, mask)

    def test_masked_out_lane_that_would_overflow_is_silent(self):
        kernel, inputs = _fp16_sum(self.OVERFLOWING)
        mask = np.array([[True, False], [True, True]])
        out = _run_box(kernel, inputs, mask)
        assert np.array_equal(out, np.array([60000.0, 3.0], np.float16))

    def test_inf_times_zero_in_the_root_is_silent(self):
        kernel, inputs = _fp16_sum([[np.inf, 1.0], [1.0, 2.0]])
        inputs["Y"][0, 0] = 0.0
        want = evaluate_kernel(kernel, inputs, engine="scalar")
        got = evaluate_kernel(kernel, inputs, engine="vectorized")
        assert np.isnan(want["OUT"][0]) and want["OUT"][1] == 3.0
        assert np.array_equal(got["OUT"], want["OUT"], equal_nan=True)

    def test_root_is_quiet_per_thread_and_the_caller_still_warns(self):
        """The root's error state is a per-thread context entered for the
        call alone: threads replaying at once neither collide in it nor
        inherit it, and each still hears its own accumulate overflow."""
        quiet = _fp16_sum([[np.inf, 1.0]] * 64)
        quiet[1]["Y"][:, 0] = 0.0
        loud = _fp16_sum(self.OVERFLOWING)
        evaluate_kernel(quiet[0], quiet[1], engine="vectorized")  # plans built
        failures = []
        start = threading.Barrier(4)

        def replay():
            try:
                start.wait(timeout=60)
                for _ in range(150):
                    out = evaluate_kernel(*quiet, engine="vectorized")["OUT"]
                    assert np.isnan(out).all()
                    with pytest.raises(RuntimeWarning, match="overflow"):
                        evaluate_kernel(*loud, engine="vectorized")
                    assert np.geterr()["over"] == "warn"
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=replay) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures


def _matmul_kernel(m, k, dtype="fp32"):
    a, b = placeholder((m, k), dtype, "A"), placeholder((k, m), dtype, "B")
    return lower(ops.matmul(a, b)), {"A": rand((m, k), dtype), "B": rand((k, m), dtype)}


class TestStreamedCost:
    def test_matmul_never_holds_its_product(self):
        """128^3 float64 products are 16 MB; streaming needs two operand
        views, one step buffer and the accumulator."""
        kernel, inputs = _matmul_kernel(128, 128)
        evaluate_kernel(kernel, inputs, engine="vectorized")  # plans built
        tracemalloc.start()
        try:
            evaluate_kernel(kernel, inputs, engine="vectorized")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_no_python_level_call_per_reduce_step(self, python_calls):
        counts = []
        for k in (8, 64):
            kernel, inputs = _matmul_kernel(16, k)
            evaluate_kernel(kernel, inputs, engine="vectorized")  # plans built
            counts.append(
                python_calls(
                    lambda: evaluate_kernel(kernel, inputs, engine="vectorized")
                )
            )
        assert counts[0] == counts[1], counts
