"""Tests for the TVM-baseline compiler's documented behaviours."""


from repro.core.compiler import build
from repro.hw.isa import VectorInstr, walk
from repro.ir import ops
from repro.ir.tensor import compute, placeholder, reduce_axis, te_sum
from repro.tvmbaseline.compiler import tvm_build


class TestTvmPadding:
    def test_vector_spans_padded_to_lanes(self):
        """TVM's manual padding rounds vector spans up to full repeats and
        marks them aligned (paper: padding lets TVM win some shapes)."""
        x = placeholder((7, 33), dtype="fp16", name="X")  # ragged spans
        r = ops.relu(x, name="R")
        result = tvm_build(r, "t")
        instrs = [row[2] for row in walk(result.program.instructions)]
        vecs = [i for i in instrs if isinstance(i, VectorInstr)]
        assert vecs
        lanes = result.hw.vector_lanes("fp16")
        for v in vecs:
            assert v.aligned
            assert v.elems % lanes == 0

    def test_padding_can_beat_akg_on_ragged_shapes(self):
        """On badly-aligned spans TVM computes padding but stays aligned;
        AKG takes the unaligned path.  TVM must at least be competitive."""
        x = placeholder((64, 33), dtype="fp16", name="X")
        r = ops.sigmoid(x, name="R")
        tvm = tvm_build(r, "t").cycles()
        akg = build(r, "a").cycles()
        assert tvm < akg * 1.3


class TestTvmFusionLimits:
    def test_pointwise_chain_fuses(self):
        x = placeholder((32, 32), name="X")
        out = ops.relu(ops.scalar_add(x, 1.0, name="B"), name="C")
        result = tvm_build(out, "t")
        assert len(result.groups) == 1

    def test_stencil_producer_splits(self):
        a = placeholder((18,), name="A")
        pre = ops.scalar_add(a, 1.0, name="PRE")
        k = reduce_axis((0, 3), "k")
        c = compute((16,), lambda i: te_sum(pre[i + k], axis=k), name="C")
        result = tvm_build(c, "t")
        assert len(result.groups) == 2
        # Cross-group intermediate spills to GM in both plans.
        first_plan = result.plans[0]
        assert any(
            m.tensor_name == "PRE" and m.direction == "out"
            for m in first_plan.moves
        )

    def test_empirical_sync_is_default(self):
        x = placeholder((64, 64), dtype="fp16", name="X")
        out = ops.relu(ops.abs_op(x, name="B"), name="C")
        emp = tvm_build(out, "t").simulate().sync_count
        dp = tvm_build(out, "t", sync_policy="dp").simulate().sync_count
        assert emp >= dp

    def test_refit_shrinks_oversized_template_tiles(self):
        """Template tiles that exceed the buffers are refit, not rejected."""
        x = placeholder((4096, 4096), dtype="fp16", name="X")
        r = ops.relu(x, name="R")
        result = tvm_build(r, "t")
        group = result.groups[0]
        assert result.plans[0].fits(result.hw)
        assert group.total_tiles > 1
