"""Tests for the te DSL, lowering and the reference executor."""

import numpy as np
import pytest

from repro.ir import lower, ops
from repro.ir.expr import IterVar, TensorRef, collect_reads, walk
from repro.ir.tensor import compute, placeholder, reduce_axis, te_sum
from repro.runtime.reference import evaluate_kernel, evaluate_tensors
from tests.core.test_diskcache import catalog_graphs
from tests.poly._box import ilp_box


def rand(shape, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(dtype)


class TestDsl:
    def test_placeholder(self):
        a = placeholder((4, 5), name="A")
        assert a.is_placeholder
        assert a.shape == (4, 5)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            placeholder((4, 0), name="A")

    def test_tensor_ref_rank_check(self):
        a = placeholder((4, 5), name="A")
        with pytest.raises(ValueError):
            _ = a[1]

    def test_compute_creates_axes(self):
        a = placeholder((4, 5), name="A")
        b = compute((4, 5), lambda i, j: a[i, j] + 1, name="B")
        assert not b.is_placeholder
        assert len(b.op.axes) == 2
        assert b.op.axes[0].extent == 4

    def test_reduce_axis_kind(self):
        k = reduce_axis((0, 7), "k")
        assert k.kind == "reduce"
        assert k.extent == 7

    def test_sum_requires_reduce_axis(self):
        data_axis = IterVar("i", 4, kind="data")
        a = placeholder((4,), name="A")
        with pytest.raises(ValueError):
            te_sum(a[data_axis], axis=data_axis)

    def test_ancestors_topological(self):
        a = placeholder((4,), name="A")
        b = compute((4,), lambda i: a[i] + 1, name="B")
        c = compute((4,), lambda i: b[i] * 2, name="C")
        names = [t.name for t in c.ancestors()]
        assert names == ["A", "B", "C"]

    def test_collect_reads_is_the_walk_preorder(self):
        """The explicit-stack loop reads in :func:`walk`'s order on every
        compute body of the catalog, plus a cast and a gather (a read
        nested in another read's indices)."""
        x = placeholder((4, 6), "fp16", name="X")
        table = placeholder((10, 6), name="T")
        idx = placeholder((4,), "int32", name="I")
        graphs = [out for _label, out in catalog_graphs()] + [
            ops.cast(x, "fp32"),
            ops.embedding_lookup(table, idx),
            ops.gelu(x),
        ]
        bodies = 0
        for out in graphs:
            outs = out if isinstance(out, list) else [out]
            for t in [a for o in outs for a in o.ancestors() if a.op is not None]:
                expected = [n for n in walk(t.op.body) if isinstance(n, TensorRef)]
                got = collect_reads(t.op.body)
                assert [id(r) for r in got] == [id(r) for r in expected], t.name
                bodies += 1
        assert bodies > 40

    def test_diamond_dag_ancestors_unique(self):
        a = placeholder((4,), name="A")
        b = compute((4,), lambda i: a[i] + 1, name="B")
        c = compute((4,), lambda i: a[i] * 2, name="C")
        d = compute((4,), lambda i: b[i] + c[i], name="D")
        names = [t.name for t in d.ancestors()]
        assert names.count("A") == 1
        assert names[-1] == "D"


class TestLowering:
    def test_elementwise_single_statement(self):
        a = placeholder((4, 5), name="A")
        b = compute((4, 5), lambda i, j: a[i, j] + 1, name="B")
        kernel = lower(b)
        assert len(kernel.statements) == 1
        stmt = kernel.statements[0]
        assert stmt.kind == "compute"
        assert stmt.iter_extents == [4, 5]
        assert stmt.write.is_affine
        assert len(stmt.reads) == 1

    def test_reduction_splits_into_init_and_update(self):
        a = placeholder((4, 6), name="A")
        b = placeholder((6, 3), name="B")
        k = reduce_axis((0, 6), "k")
        c = compute((4, 3), lambda i, j: te_sum(a[i, k] * b[k, j], axis=k), name="C")
        kernel = lower(c)
        kinds = [s.kind for s in kernel.statements]
        assert kinds == ["init", "reduce"]
        init, update = kernel.statements
        assert init.iter_extents == [4, 3]
        assert update.iter_extents == [4, 3, 6]
        assert update.data_rank == 2
        assert update.reduce_iters == ["k"]
        # Self-accumulation read is present.
        assert update.reads[0].tensor is c

    def test_duplicate_reduce_names_uniquified(self):
        a = placeholder((4, 6), name="A")
        k1 = reduce_axis((0, 6), "k")
        s1 = compute((4,), lambda i: te_sum(a[i, k1], axis=k1), name="S1")
        b = placeholder((4, 6), name="B")
        k2 = reduce_axis((0, 6), "k")
        s2 = compute((4,), lambda i: te_sum(b[i, k2] + s1[i], axis=k2), name="S2")
        kernel = lower(s2)
        names = [n for s in kernel.statements for n in s.iter_names]
        assert len(names) == len(set(names))

    def test_intermediates_classified(self):
        a = placeholder((4,), name="A")
        b = compute((4,), lambda i: a[i] + 1, name="B")
        c = compute((4,), lambda i: b[i] * 2, name="C")
        kernel = lower(c)
        assert [s.tensor.name for s in kernel.statements] == ["B", "C"]
        assert [t.name for t in kernel.outputs] == ["C"]

    def test_access_relation_map(self):
        a = placeholder((8, 8), name="A")
        b = compute((6, 6), lambda i, j: a[i + 2, j] * 2, name="B")
        kernel = lower(b)
        stmt = kernel.statements[0]
        read_map = stmt.reads[0].as_map(stmt.space)
        box = ilp_box(
            read_map.constraints + stmt.domain().constraints, read_map.out_space.dims
        )
        assert box["A_d0"] == (2, 7)
        assert box["A_d1"] == (0, 5)

    def test_non_affine_access_detected(self):
        idx = placeholder((4,), dtype="int32", name="IDX")
        a = placeholder((10,), name="A")
        # Gather: A[IDX[i]] is not affine.
        g = compute((4,), lambda i: a[idx[i]], name="G")
        kernel = lower(g)
        stmt = kernel.statements[0]
        gather_read = [r for r in stmt.reads if r.tensor is a][0]
        assert not gather_read.is_affine
        footprint = gather_read.as_map(stmt.space)
        cons = footprint.constraints + stmt.domain().constraints
        assert ilp_box(cons, footprint.out_space.dims) == {"A_d0": (0, 9)}


class TestReferenceExecutor:
    def test_elementwise_add(self):
        a = placeholder((4, 5), name="A")
        b = placeholder((4, 5), name="B")
        c = compute((4, 5), lambda i, j: a[i, j] + b[i, j], name="C")
        xa, xb = rand((4, 5), 1), rand((4, 5), 2)
        out = evaluate_tensors(c, {"A": xa, "B": xb})["C"]
        np.testing.assert_allclose(out, xa + xb, rtol=1e-6)

    def test_matmul_matches_numpy(self):
        a = placeholder((5, 7), name="A")
        b = placeholder((7, 3), name="B")
        k = reduce_axis((0, 7), "k")
        c = compute((5, 3), lambda i, j: te_sum(a[i, k] * b[k, j], axis=k), name="C")
        xa, xb = rand((5, 7), 3), rand((7, 3), 4)
        out = evaluate_tensors(c, {"A": xa, "B": xb})["C"]
        np.testing.assert_allclose(out, xa @ xb, rtol=1e-5)

    def test_chained_ops(self):
        a = placeholder((6,), name="A")
        b = compute((6,), lambda i: a[i] * 2, name="B")
        c = compute((6,), lambda i: b[i] + 3, name="C")
        xa = rand((6,), 5)
        out = evaluate_tensors(c, {"A": xa})["C"]
        np.testing.assert_allclose(out, xa * 2 + 3, rtol=1e-6)

    def test_fp16_storage_rounds(self):
        a = placeholder((4,), dtype="fp16", name="A")
        b = compute((4,), lambda i: a[i] + 0.0, name="B", dtype="fp16")
        xa = np.array([1.0002, 2.0, 3.0, 4.0], dtype=np.float16)
        out = evaluate_tensors(b, {"A": xa})["B"]
        assert out.dtype == np.float16

    def test_missing_input_raises(self):
        a = placeholder((4,), name="A")
        b = compute((4,), lambda i: a[i] + 1, name="B")
        kernel = lower(b)
        with pytest.raises(KeyError):
            evaluate_kernel(kernel, {})

    def test_wrong_shape_raises(self):
        a = placeholder((4,), name="A")
        b = compute((4,), lambda i: a[i] + 1, name="B")
        kernel = lower(b)
        with pytest.raises(ValueError):
            evaluate_kernel(kernel, {"A": np.zeros((5,), dtype=np.float32)})


class TestBoxBounds:
    """``PolyStatement.box_bounds`` is what two integer ILPs over the
    statement's domain answer, and every reader of it -- band row extents,
    AST loop bounds, access hulls -- agrees with those ILPs."""

    @staticmethod
    def _kernels():
        from repro.service.wire import demo_kernel

        from tests.core.test_golden_programs import GOLDEN

        kernels = [lower(GOLDEN[name][0](), name) for name in sorted(GOLDEN)]
        for op, shape in (("relu", [4, 24]), ("matmul", [8, 16, 12]),
                          ("conv2d", [2, 4, 8, 8])):
            kernel = lower(demo_kernel(op, shape, batch_max=8), f"sym_{op}")
            assert kernel.sym_dims  # shape-generic: a symbolic leading dim
            kernels.append(kernel)
        return kernels

    @staticmethod
    def _ilp_bounds(stmt, row):
        from repro.poly.ilp import IlpProblem, IlpStatus

        problem = IlpProblem(stmt.domain().constraints)
        lo, hi = problem.minimize(row), problem.maximize(row)
        if IlpStatus.OPTIMAL is lo.status is hi.status:
            return lo.value, hi.value
        return lo.status, hi.status

    def test_closed_form_equals_two_ilps(self):
        import random
        from collections import Counter

        from repro.codegen.ast import _AstGenerator
        from repro.fusion.posttile import band_row_spans
        from repro.poly.affine import AffineExpr, var
        from repro.sched.deps import _access_box

        rng = random.Random(39)
        seen = Counter()
        for kernel in self._kernels():
            for stmt in kernel.statements:
                dims = stmt.iter_names
                for d in dims:
                    want = self._ilp_bounds(stmt, var(d))
                    assert _AstGenerator._dim_bounds(stmt, var(d)) == want
                rows = []
                for _ in range(6):
                    picked = rng.sample(dims, rng.randint(1, min(3, len(dims))))
                    coeffs = {d: rng.choice((-3, -2, -1, 1, 2, 3)) for d in picked}
                    rows.append(AffineExpr(coeffs, rng.randint(-5, 5)))
                for acc in [stmt.write, *stmt.reads]:
                    if acc.indices is not None:
                        assert _access_box(stmt, acc) == [
                            self._ilp_bounds(stmt, idx) for idx in acc.indices
                        ]
                        rows.extend(acc.indices)
                for row in rows:
                    lo, hi = want = self._ilp_bounds(stmt, row)
                    assert stmt.box_bounds(row) == want, (stmt, row)
                    assert band_row_spans({stmt.stmt_id: [row]}, {stmt.stmt_id: stmt}) == [want]
                    seen["skewed"] += len(row.coeffs) > 1
                    seen["negative"] += any(c < 0 for c in row.coeffs.values())
                    seen["scaled"] += any(abs(c) > 1 for c in row.coeffs.values())
        assert min(seen.values()) >= 100, seen

    def test_outside_dims_and_empty_boxes(self):
        import copy

        from repro.codegen.ast import _AstGenerator
        from repro.core.errors import FusionError
        from repro.fusion.posttile import band_row_spans
        from repro.poly.affine import var
        from repro.poly.ilp import IlpStatus

        kernel = lower(ops.relu(placeholder((4, 6), "fp16", name="X"), name="out"))
        stmt = kernel.statements[0]
        inside = stmt.iter_names[0]
        row = var(inside) * 2 + var("fm")  # a dim the box does not bound
        assert stmt.box_bounds(row) is None
        assert self._ilp_bounds(stmt, row) == (IlpStatus.UNBOUNDED,) * 2
        with pytest.raises(FusionError):
            band_row_spans({stmt.stmt_id: [row]}, {stmt.stmt_id: stmt})
        empty = copy.copy(stmt)
        empty.__dict__.pop("_domain", None)
        empty.iter_extents = [0] + stmt.iter_extents[1:]
        assert empty.box_bounds(var(inside)) is None
        assert self._ilp_bounds(empty, var(inside)) == (IlpStatus.INFEASIBLE,) * 2
        assert _AstGenerator._dim_bounds(empty, var(inside)) == (0, 0)
        with pytest.raises(FusionError):
            band_row_spans({empty.stmt_id: [var(inside)]}, {empty.stmt_id: empty})
