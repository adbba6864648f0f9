"""Tests for the TVM-style and hand-written CCE baselines."""

import numpy as np
import pytest

from repro.cce import cce_expert_build, cce_naive_build
from repro.cce.expert import isolate_op
from repro.core.compiler import build
from repro.ir import lower, ops
from repro.ir.tensor import placeholder
from repro.runtime.reference import evaluate_tensors
from repro.tvmbaseline.compiler import tvm_build
from repro.tvmbaseline.schedule import Schedule, ScheduleError
from repro.tvmbaseline.templates import expert_tile_sizes, template_for


class TestSchedulePrimitives:
    def setup_method(self):
        a = placeholder((32, 48), name="A")
        b = placeholder((48, 16), name="B")
        self.out = ops.matmul(a, b, name="MM")
        self.s = Schedule(self.out)

    def test_split(self):
        outer, inner = self.s.split(self.out, self.out.op.axes[0].name, 8)
        stage = self.s[self.out]
        assert stage.axis(outer).extent == 4
        assert stage.axis(inner).extent == 8

    def test_split_validates_factor(self):
        with pytest.raises(ScheduleError):
            self.s.split(self.out, self.out.op.axes[0].name, 0)

    def test_reorder(self):
        i = self.out.op.axes[0].name
        j = self.out.op.axes[1].name
        self.s.reorder(self.out, [j, i])
        names = [a.name for a in self.s[self.out].axes]
        assert names.index(j) < names.index(i)

    def test_vectorize_innermost_only(self):
        i = self.out.op.axes[0].name
        with pytest.raises(ScheduleError):
            self.s.vectorize(self.out, i)

    def test_tensorize_requires_reduce_axis(self):
        i = self.out.op.axes[0].name
        with pytest.raises(ScheduleError):
            self.s.tensorize(self.out, i)
        self.s.tensorize(self.out, self.out.op.reduce_axes[0].name)
        assert self.s[self.out].tensorized is not None

    def test_unknown_axis_rejected(self):
        with pytest.raises(ScheduleError):
            self.s.split(self.out, "nope", 2)

    def test_templates_dispatch(self):
        a = placeholder((8, 8), name="A")
        assert template_for(ops.matmul(a, a, name="M")).__name__ == "matmul_template"
        assert template_for(ops.relu(a, name="R")).__name__ == "elementwise_template"
        d = placeholder((1, 2, 8, 8), name="D")
        w = placeholder((2, 2, 3, 3), name="W")
        assert template_for(ops.conv2d(d, w, name="C")).__name__ == "conv2d_template"

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
