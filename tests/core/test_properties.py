"""Property-based end-to-end tests over randomly generated kernels.

Hypothesis builds random element-wise DAGs (with optional stencil and
reduction nodes); for every sample the full AKG pipeline must (a) produce
a result the verifier's independent dependence check accepts and (b)
compute the same function as the reference executor.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import AkgOptions, build
from repro.ir import ops
from repro.ir.tensor import compute, placeholder, reduce_axis, te_sum
from repro.runtime.reference import evaluate_tensors
from repro.verify import check_dependences

UNARY = ["relu", "abs", "sigmoid", "tanh"]
BINARY = ["add", "mul", "sub", "max"]


@st.composite
def random_dag(draw):
    rows = draw(st.integers(3, 8))
    cols = draw(st.integers(3, 8))
    x = placeholder((rows, cols), name="X")
    y = placeholder((rows, cols), name="Y")
    nodes = [x, y]
    n_ops = draw(st.integers(1, 6))
    for i in range(n_ops):
        kind = draw(st.sampled_from(["unary", "binary", "scalar"]))
        a = draw(st.sampled_from(nodes))
        if kind == "unary":
            op = draw(st.sampled_from(UNARY))
            t = ops.elementwise_unary(a, op, name=f"n{i}")
        elif kind == "binary":
            b = draw(st.sampled_from(nodes))
            op = draw(st.sampled_from(BINARY))
            t = ops.elementwise_binary(a, b, op, name=f"n{i}")
        else:
            t = ops.scalar_add(a, draw(st.floats(-2, 2)), name=f"n{i}")
        nodes.append(t)
    out = nodes[-1]
    if out.is_placeholder:
        out = ops.relu(x, name="fallback")
    seed = draw(st.integers(0, 1000))
    return out, (rows, cols), seed


@settings(max_examples=15, deadline=None)
@given(sample=random_dag())
def test_random_elementwise_dag_matches_reference(sample):
    out, shape, seed = sample
    rng = np.random.default_rng(seed)
    inputs = {
        "X": rng.standard_normal(shape).astype(np.float32),
        "Y": rng.standard_normal(shape).astype(np.float32),
    }
    ref = evaluate_tensors(out, inputs)[out.name]
    result = build(out, "prop", options=AkgOptions(emit_trace=True))
    got = result.execute(inputs)[out.name]
    np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)


@settings(max_examples=10, deadline=None)
@given(sample=random_dag())
def test_random_dag_schedules_are_legal(sample):
    out, _, _ = sample
    check_dependences(build(out, "prop"))


@settings(max_examples=8, deadline=None)
@given(
    size=st.integers(6, 14),
    halo=st.integers(1, 3),
    tile=st.integers(2, 6),
    seed=st.integers(0, 100),
)
def test_random_stencil_fusion_matches_reference(size, halo, tile, seed):
    """Stencil chains with arbitrary halo and tile sizes stay correct
    through overlapped post-tiling fusion."""
    a = placeholder((size,), name="A")
    pre = ops.scalar_add(a, 0.5, name="PRE")
    k = reduce_axis((0, halo + 1), "k")
    out_len = size - halo
    c = compute((out_len,), lambda i: te_sum(pre[i + k], axis=k), name="C")
    rng = np.random.default_rng(seed)
    xv = rng.standard_normal((size,)).astype(np.float32)
    ref = evaluate_tensors(c, {"A": xv})["C"]
    result = build(
        c, "stencil", options=AkgOptions(emit_trace=True, tile_sizes=[tile])
    )
    got = result.execute({"A": xv})["C"]
    np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)
