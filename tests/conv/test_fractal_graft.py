"""Tests for grafting the fractal GEMM subtree into compiled kernels."""

import pytest

from repro.conv.fractal import FractalGemm, fractal_subtree, graft_fractal
from repro.core.compiler import build
from repro.ir import lower, ops
from repro.ir.tensor import placeholder
from repro.sched.tree import BandNode, MarkNode


def fractal_mark(tree):
    return next((m for m in tree.find_all(MarkNode) if m.name == "fractal_gemm"), None)


class TestGraft:
    def test_matmul_tree_carries_fractal_mark(self):
        a = placeholder((64, 64), dtype="fp16", name="A")
        b = placeholder((64, 64), dtype="fp16", name="B")
        res = build(ops.matmul(a, b, name="MM"), "mm")
        mark = fractal_mark(res.tree)
        assert mark is not None
        band = mark.child
        assert isinstance(band, BandNode)
        assert band.tile_sizes == [16, 16, 16]  # the last-level block

    def test_conv_tree_carries_fractal_mark(self):
        d = placeholder((1, 8, 12, 12), dtype="fp16", name="D")
        w = placeholder((8, 8, 3, 3), dtype="fp16", name="W")
        res = build(ops.conv2d(d, w, padding=(1, 1), name="CV"), "cv")
        assert fractal_mark(res.tree) is not None

    def test_vector_kernel_has_no_fractal_mark(self):
        x = placeholder((32, 32), dtype="fp16", name="X")
        res = build(ops.relu(x, name="R"), "r")
        assert fractal_mark(res.tree) is None

    def test_fractal_subtree_shape(self):
        a = placeholder((32, 48), name="A")
        b = placeholder((48, 16), name="B")
        mm = ops.matmul(a, b, name="MM")
        kernel = lower(mm)
        update = kernel.statements[1]
        node = fractal_subtree(update, FractalGemm(32, 48, 16))
        assert isinstance(node, MarkNode)
        tile_band = node.child
        assert isinstance(tile_band, BandNode)
        assert tile_band.permutable
        point = tile_band.child
        assert isinstance(point, BandNode)
        assert point.tile_sizes is None

    def test_graft_missing_statement_raises(self):
        a = placeholder((8, 8), name="A")
        res = build(ops.relu(a, name="R"), "r")
        kernel = lower(ops.matmul(a, a, name="MM"))
        foreign = kernel.statements[1]
        with pytest.raises(ValueError):
            graft_fractal(res.tree, foreign, FractalGemm(8, 8, 8))
