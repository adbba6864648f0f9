"""Tests for intra-tile fusion: unit assignment and buffer marks."""


from repro.fusion.intratile import (
    assign_compute_units,
    is_cube_statement,
    mark_local_buffers,
)
from repro.ir import lower, ops
from repro.ir.tensor import compute, placeholder, reduce_axis, te_sum
from repro.poly.affine import var
from repro.sched.deps import compute_dependences
from repro.sched.scheduler import PolyScheduler
from repro.sched.tree import BandNode, MarkNode


class TestCubeClassification:
    def test_matmul_update_is_cube(self):
        a = placeholder((8, 8), name="A")
        b = placeholder((8, 8), name="B")
        mm = ops.matmul(a, b, name="MM")
        init, update = lower(mm).statements
        assert is_cube_statement(update)
        assert not is_cube_statement(init)

    def test_padded_conv_is_cube(self):
        d = placeholder((1, 2, 6, 6), name="D")
        w = placeholder((2, 2, 3, 3), name="W")
        cv = ops.conv2d(d, w, padding=(1, 1), name="CV")
        update = lower(cv).statements[1]
        assert is_cube_statement(update)

    def test_sum_of_squares_is_not_cube(self):
        """x[i]*x[i] is a vector reduction, not a contraction (the
        BatchNorm-statistics case)."""
        x = placeholder((4, 8), name="X")
        k = reduce_axis((0, 8), "k")
        sq = compute((4,), lambda i: te_sum(x[i, k] * x[i, k], axis=k), name="SQ")
        update = lower(sq).statements[1]
        assert not is_cube_statement(update)

    def test_plain_sum_is_not_cube(self):
        x = placeholder((4, 8), name="X")
        k = reduce_axis((0, 8), "k")
        s = compute((4,), lambda i: te_sum(x[i, k], axis=k), name="S")
        update = lower(s).statements[1]
        assert not is_cube_statement(update)


class TestUnitAssignment:
    def test_mixed_kernel(self):
        a = placeholder((8, 8), name="A")
        b = placeholder((8, 8), name="B")
        mm = ops.matmul(a, b, name="MM")
        out = ops.relu(mm, name="R")
        kernel = lower(out)
        units = assign_compute_units(kernel.statements)
        init, update, relu_stmt = kernel.statements
        assert units.unit_of(update.stmt_id) == "cube"
        assert units.unit_of(init.stmt_id) == "cube"  # L0C accumulator init
        assert units.unit_of(relu_stmt.stmt_id) == "vector"
        assert units.buffers[update.stmt_id] == "L1"
        assert units.buffers[relu_stmt.stmt_id] == "UB"

    def test_gather_goes_to_scalar(self):
        idx = placeholder((4,), dtype="int32", name="I")
        tab = placeholder((16, 8), name="T")
        g = ops.embedding_lookup(tab, idx, name="G")
        kernel = lower(g)
        units = assign_compute_units(kernel.statements)
        assert units.unit_of(kernel.statements[0].stmt_id) == "scalar"

    def test_pad_feeding_conv_absorbed_into_mte(self):
        x = placeholder((1, 2, 6, 6), name="X")
        p = ops.pad2d(x, 1, 1, name="P")
        w = placeholder((2, 2, 3, 3), name="W")
        # Consume the explicitly-padded tensor with a convolution.
        rc = reduce_axis((0, 2), "rc")
        kh = reduce_axis((0, 3), "kh")
        kw = reduce_axis((0, 3), "kw")
        cv = compute(
            (1, 2, 6, 6),
            lambda n, o, h, ww: te_sum(
                p[n, rc, h + kh, ww + kw] * w[o, rc, kh, kw], axis=(rc, kh, kw)
            ),
            name="CV",
        )
        kernel = lower(cv)
        units = assign_compute_units(kernel.statements)
        pad_stmt = kernel.statements[0]
        assert units.unit_of(pad_stmt.stmt_id) == "mte"


class TestVectorRescheduling:
    def test_fast_varying_dim(self):
        # Sec. 4.3 sinks the write's stride-1 dim innermost; lower() already
        # puts it there, and the scheduler keeps it in the last band row.
        x = placeholder((4, 8), name="X")
        r = ops.relu(x, name="R")
        kernel = lower(r)
        stmt = kernel.statements[0]
        fast = stmt.iter_names[-1]
        assert stmt.write.indices[-1].coeff(fast) == 1
        tree = PolyScheduler().schedule_kernel(kernel, compute_dependences(kernel))
        rows = [
            band.schedules[stmt.stmt_id]
            for band in tree.find_all(BandNode)
            if stmt.stmt_id in band.schedules
        ]
        assert rows and rows[-1][-1] == var(fast)

    def test_mark_local_buffers(self):
        a = placeholder((8, 8), name="A")
        b = placeholder((8, 8), name="B")
        out = ops.relu(ops.matmul(a, b, name="MM"), name="R")
        kernel = lower(out)
        deps = compute_dependences(kernel)
        tree = PolyScheduler().schedule_kernel(kernel, deps)
        units = assign_compute_units(kernel.statements)
        mark_local_buffers(tree, units)
        names = {n.name for n in tree.find_all(MarkNode)}
        assert "local_UB" in names
        assert "local_L1" in names
