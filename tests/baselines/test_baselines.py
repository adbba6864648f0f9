"""Tests for the TVM-style and hand-written CCE baselines."""

import numpy as np

from repro.cce import cce_expert_build, cce_naive_build
from repro.cce import isolate_op
from repro.core.compiler import build
from repro.ir import lower, ops
from repro.ir.tensor import placeholder
from repro.runtime.reference import evaluate_tensors
from repro.tvmbaseline.compiler import expert_tile_sizes, tvm_build


class TestSchedulePrimitives:
    """The split factors a vendor GEMM template writes, as the TVM
    baseline's tile sizes."""

    def test_expert_tile_sizes_shapes(self):
        a = placeholder((512, 512), name="A")
        mm = ops.matmul(a, a, name="MM")
        stmt = lower(mm).statements[1]
        from repro.hw.spec import HardwareSpec

        sizes = expert_tile_sizes(stmt, HardwareSpec())
        assert sizes == [64, 256]


class TestExpertIsolation:
    def test_isolate_replaces_inputs(self):
        a = placeholder((8,), name="A")
        b = ops.scalar_add(a, 1.0, name="B")
        c = ops.relu(b, name="C")
        iso = isolate_op(c)
        deps = iso.op.input_tensors()
        assert all(t.is_placeholder for t in deps)

    def test_isolated_semantics_preserved(self):
        a = placeholder((6, 6), name="A")
        r = ops.relu(a, name="R")
        iso = isolate_op(r)
        x = np.random.default_rng(0).standard_normal((6, 6)).astype(np.float32)
        got = evaluate_tensors(iso, {iso.op.input_tensors()[0].name: x})["R"]
        np.testing.assert_allclose(got, np.maximum(x, 0), rtol=1e-6)


class TestBaselineOrdering:
    """The performance ordering the paper's Fig. 9/12 relies on."""

    def test_single_op_ordering(self):
        x = placeholder((16, 32, 16, 16), dtype="fp16", name="X")
        r = ops.relu(x, name="R")
        naive = cce_naive_build(r).cycles()
        expert = cce_expert_build(r).cycles()
        akg = build(r).cycles()
        assert naive > expert  # naive clearly slower
        assert abs(akg - expert) / expert < 0.5  # AKG within reach of expert

    def test_expert_close_to_akg_on_matmul(self):
        a = placeholder((256, 256), dtype="fp16", name="A")
        b = placeholder((256, 256), dtype="fp16", name="B")
        mm = ops.matmul(a, b, name="MM")
        expert = cce_expert_build(mm).cycles()
        akg = build(mm).cycles()
        assert abs(akg - expert) / expert < 0.3

    def test_expert_loses_big_on_vector_subgraph(self):
        """No cross-op fusion: every op round-trips GM (Fig. 12's 5.6x)."""
        x = placeholder((64, 128, 16, 16), dtype="fp16", name="X")
        t = x
        for i in range(8):
            t = ops.scalar_add(t, 0.1, name=f"chain{i}")
        expert = cce_expert_build(t).cycles()
        akg = build(t).cycles()
        assert expert / akg > 3.0

    def test_tvm_between_akg_and_expert_on_subgraphs(self):
        x = placeholder((64, 128, 16, 16), dtype="fp16", name="X")
        t = x
        for i in range(6):
            t = ops.relu(ops.scalar_add(t, 0.1, name=f"c{i}a"), name=f"c{i}r")
        akg = build(t).cycles()
        tvm = tvm_build(t).cycles()
        expert = cce_expert_build(t).cycles()
        assert akg <= tvm * 1.05  # AKG at least matches TVM
        assert tvm < expert       # both compilers beat per-op expert code
