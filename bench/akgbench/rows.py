"""Benchmark rows: the input programs, their seeded tensors, and the
reference checks every run performs.

A *row* is one input program; each is reported in its own row and
aggregated with a geometric mean.  Builders are callables because a
tensor graph is consumed by one compile (fingerprints and lowering hang
state off the tensors), so every sample builds a fresh, equal graph.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.graph.subgraphs import paper_subgraphs
from repro.ir import ops
from repro.ir.lower import lower
from repro.ir.tensor import placeholder
from repro.runtime.reference import evaluate_kernel, numpy_dtype

from akgbench.harness import Tally

Builder = Callable[[], object]


# -- single operators (Fig. 9 style) ---------------------------------------------


def conv2d(channels: int, size: int, dtype: str = "fp16") -> object:
    d = placeholder((1, channels, size, size), dtype, name="D")
    w = placeholder((channels, channels, 3, 3), dtype, name="W")
    return ops.conv2d(d, w, stride=(1, 1), padding=(1, 1), name="out")


def matmul(m: int, dtype: str = "fp16") -> object:
    a = placeholder((m, m), dtype, name="A")
    b = placeholder((m, m), dtype, name="B")
    return ops.matmul(a, b, name="out")


def add_relu(rows: int, cols: int, dtype: str = "fp16") -> object:
    x = placeholder((rows, cols), dtype, name="X")
    y = placeholder((rows, cols), dtype, name="Y")
    return ops.relu(ops.add(x, y, name="s"), name="out")


def fused_elementwise(n: int, dtype: str = "fp16") -> object:
    x = placeholder((n, n), dtype, name="X")
    y = placeholder((n, n), dtype, name="Y")
    return ops.relu(ops.add(ops.relu(x, name="r"), y, name="s"), name="out")


def softmax(rows: int, cols: int, dtype: str = "fp16") -> object:
    x = placeholder((rows, cols), dtype, name="X")
    return ops.softmax_last_axis(x, name="out")


def subgraph(index: int) -> Builder:
    """Builder of Table 1 subgraph ``index`` at the paper's shape."""
    return next(s for s in paper_subgraphs() if s.index == index).build


# -- small twins: same operator kinds, scalar-oracle sized -----------------------


def stencil_chain_twin() -> object:
    """Subgraph 5's op kinds (depthwise stencil inside an activation
    chain) on a (2,1,8,8) map."""
    x = placeholder((2, 1, 8, 8), "fp16", name="X")
    w = placeholder((1, 3, 3), "fp16", name="W")
    a = ops.scalar_mul(x, 1.5, name="tw_scale")
    d = ops.depthwise_conv2d(a, w, padding=(1, 1), name="tw_dw")
    m = ops.mul(ops.sigmoid(d, name="tw_sig"), x, name="tw_gate")
    m = ops.relu(ops.scalar_add(m, 0.1, name="tw_shift"), name="tw_relu")
    m = ops.abs_op(ops.add(m, x, name="tw_res"), name="tw_abs")
    return ops.scalar_mul(m, 0.8, name="out")


def elementwise_chain_twin() -> object:
    """Subgraph 2's op kinds (BN-style element-wise chain) on (2,4,4,4)."""
    x = placeholder((2, 4, 4, 4), "fp16", name="X")
    y = placeholder((2, 4, 4, 4), "fp16", name="Y")
    t = ops.relu(ops.scalar_add(ops.scalar_mul(x, 1.01, name="tw_s0"), 0.1, name="tw_a0"), name="tw_r0")
    t = ops.abs_op(ops.scalar_add(ops.mul(t, y, name="tw_m0"), -0.2, name="tw_a1"), name="tw_abs")
    t = ops.sigmoid(ops.add(t, x, name="tw_res0"), name="tw_sig")
    t = ops.tanh_op(ops.sub(ops.mul(t, x, name="tw_m1"), y, name="tw_sub"), name="tw_tanh")
    return ops.scalar_add(ops.mul(t, t, name="tw_sq"), 1e-3, name="out")


# -- seeded tensors ---------------------------------------------------------------

#: Inputs are drawn at this scale so fp16 chains stay finite.
INPUT_SCALE = 0.25


def seeded_array(rng: np.random.Generator, shape, dtype: str) -> np.ndarray:
    dt = numpy_dtype(dtype)
    if dt.kind == "i":
        return rng.integers(0, 7, size=shape).astype(dt)
    return (INPUT_SCALE * rng.standard_normal(shape)).astype(dt)


def kernel_inputs(kernel, seed: int) -> Dict[str, np.ndarray]:
    """One seeded array per kernel placeholder (same seed, same arrays)."""
    rng = np.random.default_rng(seed)
    return {t.name: seeded_array(rng, t.shape, t.dtype) for t in kernel.inputs}


def plan_feeds(plan, seed: int, batch: int) -> List[Dict[str, np.ndarray]]:
    """``batch`` seeded feed dicts for a network plan."""
    rng = np.random.default_rng(seed)
    return [
        {i.key: seeded_array(rng, i.shape, i.dtype) for i in plan.inputs}
        for _ in range(batch)
    ]


# -- reference checks --------------------------------------------------------------


def outputs_match(
    got: Mapping[str, np.ndarray], ref: Mapping[str, np.ndarray]
) -> str:
    """'' when ``got`` is finite and bit-equal to ``ref``; else why not.
    Finiteness is asserted first: two all-inf tensors compare equal."""
    if set(got) != set(ref):
        return f"output names differ: {sorted(got)} vs {sorted(ref)}"
    for name in ref:
        if not np.isfinite(np.asarray(got[name], dtype=np.float64)).all():
            return f"{name}: non-finite values"
        if not np.array_equal(got[name], ref[name]):
            return f"{name}: differs from the reference"
    return ""


class Checker:
    """Untimed correctness checks; every comparison is one attempted
    operation on the shared tally.  A ``RuntimeWarning`` (numpy overflow,
    invalid value) raised while producing either side is a failure."""

    def __init__(self, tally: Tally, seed: int):
        self.tally = tally
        self.seed = seed

    def compare(self, label: str, produce_got, produce_ref) -> bool:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = produce_got()
            ref = produce_ref()
        why = outputs_match(got, ref)
        numeric = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if not why and numeric:
            why = f"RuntimeWarning: {numeric[0].message}"
        return self.tally.record(not why, f"{label}: {why}")

    def replay_equals_kernel(self, label: str, result) -> bool:
        """Compiled-program replay == kernel-level evaluation (timed shape)."""
        inputs = kernel_inputs(result.kernel, self.seed)
        return self.compare(
            f"{label} replay==kernel",
            lambda: result.execute(inputs, engine="vectorized"),
            lambda: evaluate_kernel(result.kernel, inputs, engine="vectorized"),
        )

    def vectorized_equals_scalar(self, label: str, outputs) -> bool:
        """Vectorized engine == the scalar oracle, on a small twin."""
        kernel = lower(outputs, f"twin_{label}")
        inputs = kernel_inputs(kernel, self.seed)
        return self.compare(
            f"{label} vectorized==scalar",
            lambda: evaluate_kernel(kernel, inputs, engine="vectorized"),
            lambda: evaluate_kernel(kernel, inputs, engine="scalar"),
        )

    def plan_equals_oracle(self, label: str, plan) -> bool:
        """Arena-backed plan replay == kernel-at-a-time execution in
        fresh buffers, with one seeded step run through the scalar
        oracle (the whole-plan scalar oracle costs 6 s; over seeds every
        step is covered)."""
        from repro.codegen.program_exec import execute_program

        feed = plan_feeds(plan, self.seed, 1)[0]
        scalar_step = self.seed % len(plan.steps)

        def reference() -> Dict[str, np.ndarray]:
            values: Dict[str, np.ndarray] = {}
            for index, step in enumerate(plan.steps):
                program = plan.programs[step.digest].program
                step_feed = {
                    cname: values[key] if key in values else feed[key]
                    for cname, key in zip(step.canonical_inputs, step.input_keys)
                }
                engine = "scalar" if index == scalar_step else "vectorized"
                got = execute_program(program, step_feed, engine=engine)
                for cname, key in zip(step.canonical_outputs, step.output_keys):
                    values[key] = got[cname]
            return {name: values[key] for name, key in plan.outputs}

        return self.compare(
            f"{label} plan==oracle", lambda: plan.replay([feed])[0], reference
        )


def healthy(tally: Tally, label: str, result) -> bool:
    """A compile counts as failed when any stage took a fallback rung."""
    degraded = bool(result.resilience.degraded)
    return tally.record(not degraded, f"{label}: degraded ResilienceReport")


def sim_summary(results: Sequence[object]) -> Dict[str, float]:
    """Exact simulator statistics summed (utilisation: averaged) over
    compiled results."""
    from repro.hw.isa import Pipe

    reports = [r.simulate() for r in results]
    n = max(len(reports), 1)
    return {
        "hw.cycles": sum(rep.total_cycles for rep in reports),
        "hw.cube_util": sum(rep.utilization(Pipe.M) for rep in reports) / n,
        "hw.vector_util": sum(rep.utilization(Pipe.V) for rep in reports) / n,
        "hw.mte2_util": sum(rep.utilization(Pipe.MTE2) for rep in reports) / n,
        "hw.dma_bytes": sum(rep.dma_bytes for rep in reports),
        "hw.sync_count": sum(rep.sync_count for rep in reports),
    }
