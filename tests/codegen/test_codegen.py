"""Tests for vectorisation analysis, sync policies and program building."""

import pytest

from repro.codegen.sync import Stage, link_stages, merge_adjacent_stages
from repro.codegen.vectorize import (
    arithmetic_op_count,
    full_tile_fraction,
    innermost_run_elems,
    is_access_aligned,
    vector_op_kinds,
)
from repro.hw.isa import Barrier, Pipe, ScalarInstr, SetFlag, VectorInstr, WaitFlag, walk
from repro.ir import lower, ops
from repro.ir.tensor import placeholder


def count_sync_instrs(instrs):
    """Synchronisation instructions in a stream (loop bodies counted once)."""
    return sum(1 for _, _, instr, _, _ in walk(instrs) if instr.sync)


class TestVectorize:
    def test_op_count_simple(self):
        x = placeholder((8,), name="X")
        r = ops.relu(x, name="R")
        stmt = lower(r).statements[0]
        assert arithmetic_op_count(stmt.expr) == 1

    def test_op_count_compound(self):
        x = placeholder((8,), name="X")
        y = placeholder((8,), name="Y")
        from repro.ir.tensor import compute

        t = compute((8,), lambda i: (x[i] + y[i]) * 2.0 + 1.0, name="T")
        stmt = lower(t).statements[0]
        assert arithmetic_op_count(stmt.expr) == 3  # add, mul, add

    def test_vector_op_kinds(self):
        x = placeholder((8,), name="X")
        s = ops.sigmoid(x, name="S")
        stmt = lower(s).statements[0]
        assert vector_op_kinds(stmt.expr) == ["sigmoid"]

    def test_innermost_run(self):
        x = placeholder((8, 16), name="X")
        r = ops.relu(x, name="R")
        stmt = lower(r).statements[0]
        assert innermost_run_elems(stmt, [8, 16]) == 16

    def test_alignment(self):
        x = placeholder((8, 16), name="X")
        r = ops.relu(x, name="R")
        stmt = lower(r).statements[0]
        assert is_access_aligned(stmt, [8, 16], 2)  # 32 B rows
        assert not is_access_aligned(stmt, [8, 15], 2)  # 30 B rows

    def test_full_tile_fraction(self):
        assert full_tile_fraction([64, 64], [32, 32]) == 1.0
        frac = full_tile_fraction([10, 10], [4, 4])
        # 3 tiles per dim, 2 full per dim: (2/3)^2.
        assert abs(frac - 4 / 9) < 1e-9


class TestSyncPolicies:
    def chain(self):
        return [
            Stage(Pipe.MTE2, [ScalarInstr(1, "a")], "in"),
            Stage(Pipe.MTE2, [ScalarInstr(1, "b")], "in2"),
            Stage(Pipe.V, [VectorInstr("add", 128, "fp16")], "compute"),
            Stage(Pipe.MTE3, [ScalarInstr(1, "c")], "out"),
        ]

    def test_merge_adjacent(self):
        merged = merge_adjacent_stages(self.chain())
        assert [s.pipe for s in merged] == [Pipe.MTE2, Pipe.V, Pipe.MTE3]
        assert len(merged[0].instrs) == 2

    def test_dp_minimal_flags(self):
        out = link_stages(self.chain(), "dp")
        # Two pipe boundaries -> exactly two set/wait pairs.
        assert count_sync_instrs(out) == 4

    def test_empirical_more_flags_than_dp(self):
        dp = count_sync_instrs(link_stages(self.chain(), "dp"))
        emp = count_sync_instrs(link_stages(self.chain(), "empirical"))
        assert emp > dp

    def test_naive_uses_barriers(self):
        out = link_stages(self.chain(), "naive")
        assert any(isinstance(i, Barrier) for i in out)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            link_stages(self.chain(), "magic")

    def test_dp_order_preserved(self):
        out = link_stages(self.chain(), "dp")
        labels = [i.label for i in out if isinstance(i, ScalarInstr)]
        assert labels == ["a", "b", "c"]

    def test_set_before_wait(self):
        out = link_stages(self.chain(), "dp")
        for i, instr in enumerate(out):
            if isinstance(instr, WaitFlag):
                # The matching set appears earlier with the same event.
                assert any(
                    isinstance(p, SetFlag) and p.event == instr.event
                    for p in out[:i]
                )


class TestProgramBuilder:
    def test_relu_program_shape(self):
        from repro.core.compiler import build

        x = placeholder((64, 128), dtype="fp16", name="X")
        r = ops.relu(x, name="R")
        result = build(r, "relu")
        text = result.program.dump()
        assert "dma GM->UB" in text
        assert "vrelu" in text
        assert "dma UB->GM" in text

    def test_matmul_program_has_cube_path(self):
        from repro.core.compiler import build

        a = placeholder((64, 64), dtype="fp16", name="A")
        b = placeholder((64, 64), dtype="fp16", name="B")
        mm = ops.matmul(a, b, name="MM")
        text = build(mm, "mm").program.dump()
        assert "mmad" in text
        assert "L0B" in text
        assert "L0C->UB" in text

    def test_conv_program_has_img2col(self):
        from repro.core.compiler import build

        d = placeholder((1, 8, 12, 12), dtype="fp16", name="D")
        w = placeholder((8, 8, 3, 3), dtype="fp16", name="W")
        cv = ops.conv2d(d, w, padding=(1, 1), name="CV")
        text = build(cv, "cv").program.dump()
        assert "img2col" in text

    def test_double_buffer_toggle_changes_cycles(self):
        from repro.core.compiler import AkgOptions, build

        x = placeholder((512, 512), dtype="fp16", name="X")
        r = ops.relu(x, name="R")
        with_db = build(r, "r", options=AkgOptions(double_buffer=True)).cycles()
        without = build(r, "r", options=AkgOptions(double_buffer=False)).cycles()
        assert with_db < without

    def test_sync_policy_changes_sync_count(self):
        from repro.core.compiler import AkgOptions, build

        x = placeholder((512, 512), dtype="fp16", name="X")
        r = ops.sigmoid(ops.relu(x, name="R"), name="S")
        dp = build(r, "r", options=AkgOptions(sync_policy="dp")).simulate()
        emp = build(r, "r", options=AkgOptions(sync_policy="empirical")).simulate()
        assert emp.sync_count >= dp.sync_count


class TestCceEmission:
    def test_emit_cce_contains_intrinsics(self):
        from repro.core.compiler import build

        a = placeholder((32, 32), dtype="fp16", name="A")
        b = placeholder((32, 32), dtype="fp16", name="B")
        mm = ops.matmul(a, b, name="MM")
        code = build(mm, "mm").cce_code()
        assert "copy_gm_to_cbuf" in code
        assert "mad(" in code
        assert "__cbuf__" in code
        assert "set_flag" in code
        # The fractal GEMM band's rows (fm/fn/fk) are no statement's
        # iterators: the reference AST renders them as opaque loops
        # instead of silently dropping the whole block.
        assert "/* schedule-tree AST (reference)" in code
        assert "// row outside the domain: fk" in code

    @pytest.mark.parametrize("dtype, ctype", [("fp32", "float"), ("int32", "int32_t")])
    def test_emit_cce_signature_follows_dtype(self, dtype, ctype):
        from repro.core.compiler import build

        x = placeholder((16, 32), dtype=dtype, name="X")
        y = placeholder((16, 32), dtype=dtype, name="Y")
        code = build(ops.add(x, y, name="S"), f"add_{dtype}").cce_code()
        signature = code.splitlines()[1]
        assert f"(__gm__ {ctype}* X, __gm__ {ctype}* Y, __gm__ {ctype}* S)" in signature
        assert f"__ubuf__ {ctype} X_local[" in code

    def test_emit_cce_vector_kernel(self):
        from repro.core.compiler import build

        x = placeholder((64, 64), dtype="fp16", name="X")
        r = ops.relu(x, name="R")
        code = build(r, "relu").cce_code()
        assert "vrelu" in code
        assert "copy_ubuf_to_gm" in code

    def test_ast_generation_for_tiled_tree(self):
        from repro.codegen.ast import generate_ast
        from repro.core.compiler import build

        x = placeholder((64, 64), dtype="fp16", name="X")
        r = ops.relu(x, name="R")
        result = build(r, "relu")
        ast = generate_ast(result.tree, result.kernel.statements)
        text = ast.render()
        assert "for (" in text
