"""fp16 max/min reductions start from an identity fp16 can hold.

The combiner identity used to be ``-+3.0e38`` for every dtype, so the
init store of every fp16 ``softmax_last_axis`` / ``max_pool2d`` execution
(hence every ``alexnet_tiny`` replay) raised ``RuntimeWarning: overflow
encountered in cast``.  Everything here runs with warnings as errors and
checks ``np.isfinite`` *before* equality: two engines agreeing on ``inf``
would prove nothing.
"""

import warnings

import numpy as np
import pytest

from repro.graph import compile_network, network
from repro.runtime.reference import numpy_dtype
from repro.ir import ops
from repro.ir.lower import lower
from repro.ir.tensor import compute, placeholder, reduce_axis, te_min
from repro.runtime.reference import evaluate_kernel


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _softmax():
    return ops.softmax_last_axis(placeholder((6, 40), "fp16", "X")), (6, 40)


def _max_pool():
    return ops.max_pool2d(placeholder((1, 3, 8, 8), "fp16", "X")), (1, 3, 8, 8)


def _min_reduce():
    x = placeholder((5, 33), "fp16", "X")
    k = reduce_axis((0, 33), "k")
    return compute((5,), lambda i: te_min(x[i, k], axis=k), name="M"), (5, 33)


@pytest.mark.parametrize("make", [_softmax, _max_pool, _min_reduce])
def test_fp16_extremum_reductions_run_clean_and_bit_identical(make):
    out, shape = make()
    kernel = lower(out)
    x = np.random.default_rng(3).standard_normal(shape).astype(np.float16)
    scalar = evaluate_kernel(kernel, {"X": x}, engine="scalar")
    vectorized = evaluate_kernel(kernel, {"X": x}, engine="vectorized")
    for name in scalar:
        assert np.isfinite(scalar[name]).all(), name
        assert scalar[name].dtype == vectorized[name].dtype == np.float16, name
        assert np.array_equal(scalar[name], vectorized[name]), name


def test_alexnet_tiny_replay_runs_clean_and_matches_the_oracle():
    plan = compile_network(network("alexnet_tiny")).plan
    rng = np.random.default_rng(7)
    feeds = [
        {
            info.key: (0.25 * rng.standard_normal(info.shape)).astype(
                numpy_dtype(info.dtype)
            )
            for info in plan.inputs
        }
        for _ in range(2)
    ]
    got, ref = plan.replay(feeds), plan.oracle(feeds)
    assert len(got) == len(ref) == 2
    for g, r in zip(got, ref):
        assert set(g) == set(r)
        for key in g:
            assert np.isfinite(g[key]).all(), key
            assert np.array_equal(g[key], r[key]), key
