"""Tests for the Pluto-style scheduler and the legality of its schedules.

A schedule built from a tensor graph is judged the way production judges
it: ``build()`` it and let the verifier's ``check_dependences`` prove
every dependence preserved.  Trees no build produces (the initial tree, a
reversed sequence, a hand-lowered Jacobi stencil) are judged by the
reference checker in ``_reference_legality``.
"""

import pytest

from repro.core.compiler import build
from repro.ir import lower, ops
from repro.ir.expr import FloatImm
from repro.ir.lower import PolyStatement, TensorAccess
from repro.ir.tensor import Tensor, compute, placeholder, reduce_axis, te_sum
from repro.poly.affine import AffineExpr, var
from repro.sched.clustering import conservative_clustering
from repro.sched.deps import compute_dependences
from repro.sched.scheduler import PolyScheduler
from repro.sched.tree import (
    BandNode,
    DomainNode,
    FilterNode,
    LeafNode,
    SequenceNode,
)
from repro.verify import check_dependences
from tests.sched._reference_legality import check_legality


def schedule(outputs, name="k"):
    kernel = lower(outputs, name)
    deps = compute_dependences(kernel)
    tree = PolyScheduler().schedule_kernel(kernel, deps)
    return kernel, deps, tree


def assert_builds_legally(outputs, name="k"):
    """The compiled result runs every dependence's source first (the
    verifier raises ``VerificationError`` otherwise)."""
    check_dependences(build(outputs, name))


def cluster_of(clustering, stmt_id):
    """Index of the cluster holding ``stmt_id``."""
    return next(
        i for i, c in enumerate(clustering.clusters) if stmt_id in [s.stmt_id for s in c]
    )


class TestClustering:
    def test_running_example_clusters(self):
        """The Fig. 3 pattern: bias-add, conv, abs, relu."""
        H, W, KH, KW = 12, 12, 3, 3
        a = placeholder((H, W), name="A")
        a1 = ops.scalar_add(a, 1.0, name="A1")
        b = placeholder((KH, KW), name="B")
        kh = reduce_axis((0, KH), "kh")
        kw = reduce_axis((0, KW), "kw")
        c = compute(
            (H - KH + 1, W - KW + 1),
            lambda h, w: te_sum(a1[h + kh, w + kw] * b[kh, kw], axis=(kh, kw)),
            name="C",
        )
        c1 = ops.abs_op(c, name="C1")
        c2 = ops.relu(c1, name="C2")
        kernel = lower(c2)
        deps = compute_dependences(kernel)
        clustering = conservative_clustering(kernel, deps)
        # Conservative clustering groups {S1,S2} (init+update); the stencil
        # dependence keeps S0 out of the live-out group.
        groups = [[s.stmt_id for s in c] for c in clustering.clusters]
        assert ["S1", "S2"] in groups
        s0_cluster = cluster_of(clustering, "S0")
        assert s0_cluster not in clustering.live_out
        # Elementwise followers join the live-out group.
        assert cluster_of(clustering, "S3") in clustering.live_out
        assert cluster_of(clustering, "S4") in clustering.live_out
        assert cluster_of(clustering, "S2") in clustering.live_out

    def test_pointwise_chain_single_live_out_group(self):
        a = placeholder((8, 8), name="A")
        b = ops.scalar_add(a, 1.0, name="B")
        c = ops.relu(b, name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        clustering = conservative_clustering(kernel, deps)
        assert len(clustering.live_out) == 2  # both clusters merged
        assert not clustering.intermediate_indices

    def test_rank_change_is_barrier(self):
        x = placeholder((4, 8), name="X")
        k = reduce_axis((0, 8), "k")
        s = compute((4,), lambda i: te_sum(x[i, k], axis=k), name="S")
        out = compute((4,), lambda i: s[i] * 2, name="OUT")
        kernel = lower(out)
        deps = compute_dependences(kernel)
        clustering = conservative_clustering(kernel, deps)
        # The reduction group and the elementwise group share aligned dim i
        # with distance 0, so they may fuse; verify classification ran and
        # produced a live-out group containing OUT.
        assert cluster_of(clustering, kernel.statements[-1].stmt_id) in clustering.live_out


def mirrored(outputs):
    """``outputs`` and one more output: a copy of the last of them,
    reversed along its last axis.  Both are live-out, so the reversed read
    (subscript ``n - 1 - j``, not separable) is a dependence inside one
    band, and its emptiness test, identity rows and Pluto rows are posed
    to the ILP -- which no dependence of a separable kernel reaches."""
    outputs = list(outputs) if isinstance(outputs, (list, tuple)) else [outputs]
    last = outputs[-1]
    n = last.shape[-1]
    rev = compute(
        tuple(last.shape), lambda *ix: last[ix[:-1] + (n - 1 - ix[-1],)], name="rev"
    )
    return outputs + [rev]


def jacobi_kernel(reads=((-1, 1), (-1, -1))):
    """``X[t, i] = f(X[t + dt, i + di] for (dt, di) in reads)``: a stencil
    in time whose identity row ``i`` is illegal."""
    from repro.ir.lower import LoweredKernel

    x = Tensor("X", (6, 8), "fp32")
    stmt = PolyStatement(
        stmt_id="S0",
        tensor=x,
        iter_names=["t", "i"],
        iter_extents=[6, 8],
        data_rank=2,
        write=TensorAccess(x, [var("t"), var("i")]),
        reads=[TensorAccess(x, [var("t") + dt, var("i") + di]) for dt, di in reads],
        expr=FloatImm(0.0),
        kind="compute",
    )
    return LoweredKernel("jacobi", [], [x], [stmt])


class TestScheduler:
    def test_elementwise_identity_schedule(self):
        a = placeholder((8, 8), name="A")
        b = ops.scalar_add(a, 1.0, name="B")
        kernel, deps, tree = schedule(b)
        bands = tree.find_all(BandNode)
        assert bands
        assert bands[0].coincident == [True, True]  # fully parallel
        assert_builds_legally(b)

    def test_matmul_schedule_legal(self):
        a = placeholder((6, 6), name="A")
        b = placeholder((6, 6), name="B")
        c = ops.matmul(a, b, name="C")
        kernel, deps, tree = schedule(c)
        assert_builds_legally(c)
        # Outer (i, j) rows are coincident; the k band is not.
        outer = tree.find_all(BandNode)[0]
        assert outer.coincident == [True, True]

    def test_running_example_schedule_legal(self):
        a = placeholder((10, 10), name="A")
        a1 = ops.scalar_add(a, 1.0, name="A1")
        b = placeholder((3, 3), name="B")
        kh = reduce_axis((0, 3), "kh")
        kw = reduce_axis((0, 3), "kw")
        c = compute(
            (8, 8),
            lambda h, w: te_sum(a1[h + kh, w + kw] * b[kh, kw], axis=(kh, kw)),
            name="C",
        )
        c2 = ops.relu(c, name="C2")
        assert_builds_legally(c2)

    def test_initial_tree_matches_textual_order(self):
        a = placeholder((4,), name="A")
        b = ops.scalar_add(a, 1.0, name="B")
        c = ops.relu(b, name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        tree = PolyScheduler().initial_tree(kernel)
        assert not check_legality(tree, deps)
        seq = tree.find_all(SequenceNode)[0]
        assert [f.stmt_ids[0] for f in seq.children] == ["S0", "S1"]

    def test_reversed_order_detected_illegal(self):
        a = placeholder((4,), name="A")
        b = ops.scalar_add(a, 1.0, name="B")
        c = ops.relu(b, name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        s0, s1 = kernel.statements
        # Build a tree scheduling the consumer before the producer.
        mk = lambda s: FilterNode(
            [s.stmt_id],
            BandNode(
                {s.stmt_id: [AffineExpr.variable(d) for d in s.iter_names]},
                LeafNode(),
            ),
        )
        tree = DomainNode(
            {s.stmt_id: s.iter_names for s in kernel.statements},
            SequenceNode([mk(s1), mk(s0)]),
        )
        assert check_legality(tree, deps)

    def test_skewed_stencil_requires_pluto(self):
        """A Jacobi-like self dependence forces a skewed second row."""
        kernel = jacobi_kernel()
        deps = compute_dependences(kernel)
        assert any(d.is_self for d in deps)
        tree = PolyScheduler().schedule_kernel(kernel, deps)
        assert not check_legality(tree, deps)
        band = tree.find_all(BandNode)[0]
        # The identity row `i` is illegal against the (1, -1) dependence, so
        # the second row skews.  Which skew is stated, not inherited from the
        # solver's pivot order: least coefficient sum, then least |shift| --
        # `i + t`, not the `i + t + 16` / `i + t - 16` a bare Pluto objective
        # leaves to whichever optimal vertex the LP stops on.
        assert band.schedules["S0"] == [var("t"), var("i") + var("t")]

    def test_skewing_disabled_truncates_band(self):
        kernel = jacobi_kernel(reads=[(-1, 1)])
        deps = compute_dependences(kernel)
        tree = PolyScheduler(skew=False).schedule_kernel(kernel, deps)
        band = tree.find_all(BandNode)[0]
        assert len(band.schedules["S0"]) == 1  # only the legal `t` row


class TestLegalityOfCommonOps:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ops.relu(placeholder((8, 8), name="A")),
            lambda: ops.matmul(
                placeholder((5, 6), name="A"), placeholder((6, 4), name="B")
            ),
            lambda: ops.transpose(placeholder((4, 6), name="A"), (1, 0)),
            lambda: ops.softmax_last_axis(placeholder((3, 5), name="A")),
            lambda: ops.batch_norm_reduce(placeholder((2, 3, 4, 4), name="A"))[0],
        ],
    )
    def test_schedules_are_legal(self, make):
        assert_builds_legally(make())
