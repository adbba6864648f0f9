"""Tests for dependence analysis."""

import pytest

from repro.core.context import counters
from repro.ir import lower, ops
from repro.ir.tensor import compute, placeholder, reduce_axis, te_sum
from repro.poly.affine import AffineExpr
from repro.sched.deps import _dependence_relations, compute_dependences

from tests.core.test_golden_programs import GOLDEN


def dep_index(deps):
    return {(d.src.stmt_id, d.dst.stmt_id, d.kind) for d in deps}


class TestFlowDeps:
    def test_elementwise_chain(self):
        a = placeholder((8,), name="A")
        b = compute((8,), lambda i: a[i] + 1, name="B")
        c = compute((8,), lambda i: b[i] * 2, name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        kinds = dep_index(deps)
        assert ("S0", "S1", "flow") in kinds
        # No spurious self dependences for pure elementwise statements.
        assert not any(d.is_self for d in deps)

    def test_pointwise_distance_zero(self):
        a = placeholder((8,), name="A")
        b = compute((8,), lambda i: a[i] + 1, name="B")
        c = compute((8,), lambda i: b[i] * 2, name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        flow = [d for d in deps if d.kind == "flow"][0]
        assert flow.distance_vector() == [0]

    def test_shifted_distance(self):
        a = placeholder((10,), name="A")
        b = compute((10,), lambda i: a[i] + 1, name="B")
        c = compute((7,), lambda i: b[i + 3] * 2, name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        flow = [d for d in deps if d.kind == "flow"][0]
        # C[i] reads B[i+3]: dst index i relates to src index i+3 -> delta -3.
        assert flow.distance_vector() == [-3]

    def test_reduction_dependences(self):
        a = placeholder((4, 6), name="A")
        k = reduce_axis((0, 6), "k")
        c = compute((4,), lambda i: te_sum(a[i, k], axis=k), name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        kinds = dep_index(deps)
        # init -> update: flow (update reads C) and output (both write C).
        assert ("S0", "S1", "flow") in kinds
        assert ("S0", "S1", "output") in kinds
        # update self deps along k: flow, anti and output.
        assert ("S1", "S1", "flow") in kinds
        assert ("S1", "S1", "output") in kinds
        assert ("S1", "S1", "anti") in kinds

    def test_self_dep_direction_is_forward(self):
        a = placeholder((4, 6), name="A")
        k = reduce_axis((0, 6), "k")
        c = compute((4,), lambda i: te_sum(a[i, k], axis=k), name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        self_flow = [d for d in deps if d.is_self and d.kind == "flow"]
        assert self_flow
        for d in self_flow:
            vec = d.distance_vector()
            # data dim distance 0; reduce dim strictly positive.
            assert vec[0] == 0
            assert vec[1] is None or vec[1] >= 1

    def test_no_dep_between_independent_ops(self):
        a = placeholder((8,), name="A")
        b = compute((8,), lambda i: a[i] + 1, name="B")
        c = compute((8,), lambda i: a[i] * 2, name="C")
        d = compute((8,), lambda i: b[i] + c[i], name="D")
        kernel = lower(d)
        deps = compute_dependences(kernel)
        kinds = dep_index(deps)
        assert ("S0", "S1", "flow") not in kinds
        assert ("S0", "S2", "flow") in kinds
        assert ("S1", "S2", "flow") in kinds

    def test_stencil_relation_footprint(self):
        a = placeholder((10,), name="A")
        b = compute((10,), lambda i: a[i] * 2, name="B")
        k = reduce_axis((0, 3), "k")
        c = compute((8,), lambda i: te_sum(b[i + k], axis=k), name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        flows = [
            d
            for d in deps
            if d.kind == "flow" and d.src.stmt_id == "S0" and not d.is_self
        ]
        assert flows
        dep = [d for d in flows if d.dst.kind == "reduce"][0]
        vec = dep.distance_vector()
        assert vec is None or vec[0] is None  # range, not constant

    def test_matmul_dep_count_reasonable(self):
        a = placeholder((4, 5), name="A")
        b = placeholder((5, 3), name="B")
        c = ops.matmul(a, b, name="C")
        kernel = lower(c)
        deps = compute_dependences(kernel)
        # init->update flow+output, update self flow/anti/output on k.
        assert len(deps) >= 4
        assert {d.kind for d in deps} >= {"flow", "output"}
        assert all(d.tensor_name in ("A", "B", "C") for d in deps)


class TestIsUniform:
    def test_pointwise_is_uniform(self):
        a = placeholder((8,), name="A")
        b = compute((8,), lambda i: a[i] + 1, name="B")
        c = compute((8,), lambda i: b[i] * 2, name="C")
        deps = compute_dependences(lower(c))
        flow = [d for d in deps if d.kind == "flow"][0]
        assert flow.is_uniform
        assert flow.distance_vector() == [0]

    def test_shifted_is_uniform(self):
        a = placeholder((10,), name="A")
        b = compute((10,), lambda i: a[i] + 1, name="B")
        c = compute((7,), lambda i: b[i + 3] * 2, name="C")
        deps = compute_dependences(lower(c))
        flow = [d for d in deps if d.kind == "flow"][0]
        assert flow.is_uniform
        assert flow.distance_vector() == [-3]

    def test_stencil_is_not_uniform_but_vector_is_truthy(self):
        """The bug ``is_uniform`` exists to fix: a stencil dependence's
        distance vector may be a (truthy) list holding ``None`` entries."""
        a = placeholder((10,), name="A")
        b = compute((10,), lambda i: a[i] * 2, name="B")
        k = reduce_axis((0, 3), "k")
        c = compute((8,), lambda i: te_sum(b[i + k], axis=k), name="C")
        deps = compute_dependences(lower(c))
        dep = [
            d
            for d in deps
            if d.kind == "flow" and d.src.stmt_id == "S0" and not d.is_self
            and d.dst.kind == "reduce"
        ][0]
        vec = dep.distance_vector()
        if vec is not None:
            assert bool(vec)  # truthy despite non-constant entries...
            assert any(entry is None for entry in vec)
        assert not dep.is_uniform  # ...so this is the test to use

    def test_rank_mismatch_is_not_uniform(self):
        a = placeholder((4, 6), name="A")
        k = reduce_axis((0, 6), "k")
        c = compute((4,), lambda i: te_sum(a[i, k], axis=k), name="C")
        deps = compute_dependences(lower(c))
        cross_rank = [
            d
            for d in deps
            if not d.is_self
            and len(d.src.iter_names) != len(d.dst.iter_names)
        ]
        assert cross_rank
        for d in cross_rank:
            assert d.distance_vector() is None
            assert not d.is_uniform

    def test_reduction_self_flow_not_uniform(self):
        """Self dependences of a reduction update carry a *range* of
        distances (k' - k >= 1), so ``is_uniform`` must be False even
        though ``distance_vector()`` returns a list."""
        a = placeholder((4, 6), name="A")
        k = reduce_axis((0, 6), "k")
        c = compute((4,), lambda i: te_sum(a[i, k], axis=k), name="C")
        deps = compute_dependences(lower(c))
        self_flow = [d for d in deps if d.is_self and d.kind == "flow"]
        assert self_flow
        for d in self_flow:
            assert not d.is_uniform
            vec = d.distance_vector()
            assert vec is not None and any(e is None for e in vec)


class TestSelfDependences:
    def test_self_deps_have_all_three_kinds(self):
        a = placeholder((4, 6), name="A")
        k = reduce_axis((0, 6), "k")
        c = compute((4,), lambda i: te_sum(a[i, k], axis=k), name="C")
        deps = compute_dependences(lower(c))
        self_kinds = {d.kind for d in deps if d.is_self}
        assert self_kinds == {"flow", "anti", "output"}

    def test_self_dep_relations_are_lex_forward(self):
        """Every self-dependence relation is a union member fixing an
        equal prefix and advancing one level: constant entries before the
        first varying dim are 0, and some relation fixes a full prefix."""
        a = placeholder((4, 5), name="A")
        b = placeholder((5, 3), name="B")
        deps = compute_dependences(lower(ops.matmul(a, b, name="C")))
        self_vecs = [
            d.distance_vector()
            for d in deps
            if d.is_self and d.distance_vector() is not None
        ]
        assert self_vecs
        for vec in self_vecs:
            for entry in vec:
                if entry is None:
                    break  # the advancing level: a range, not a constant
                assert entry == 0  # equal-prefix dims
        # Deeper levels exist: some relation pins the two data dims.
        assert any(vec[:2] == [0, 0] for vec in self_vecs)

    def test_elementwise_has_no_self_deps(self):
        a = placeholder((8, 8), name="A")
        deps = compute_dependences(lower(ops.relu(a, name="R")))
        assert not any(d.is_self for d in deps)


class TestBoundingBoxPruning:
    def _chain(self):
        a = placeholder((8,), name="A")
        b = compute((8,), lambda i: a[i] + 1, name="B")
        c = compute((8,), lambda i: b[i] * 2, name="C")
        return lower(c)

    def test_disjoint_footprints_pruned_and_exactly_empty(self):
        """A consumer reading a region the producer never writes: the
        interval hulls are disjoint, the pruned path rejects the pair
        without ILP, and the exact path agrees it is empty."""
        from repro.ir.lower import TensorAccess

        kernel = self._chain()
        src, dst = kernel.statements
        # src writes B[i] with i in [0, 7]; fabricate a read of B[j + 100]
        # (hull [100, 107]) from dst's domain.
        shifted = TensorAccess(
            src.tensor,
            [AffineExpr.variable(dst.iter_names[0]) + 100],
        )
        pruned_rels, _ = _dependence_relations(
            src, dst, src.write, shifted, prune=True
        )
        stats = counters("deps.")
        assert pruned_rels == []
        assert stats["pairs_checked"] == 1
        assert stats["pairs_pruned"] == 1
        exact_rels, _ = _dependence_relations(
            src, dst, src.write, shifted, prune=False
        )
        assert exact_rels == []

    def test_overlapping_footprints_not_pruned(self):
        kernel = self._chain()
        src, dst = kernel.statements
        read = dst.reads[0]
        rels, _ = _dependence_relations(src, dst, src.write, read, prune=True)
        stats = counters("deps.")
        assert len(rels) == 1
        assert stats["pairs_checked"] == 1
        assert stats.get("pairs_pruned", 0) == 0

    def test_prune_counters_only_tick_when_enabled(self):
        kernel = self._chain()
        compute_dependences(kernel, prune=False)
        assert counters("deps.").get("pairs_checked", 0) == 0
        compute_dependences(kernel, prune=True)
        assert counters("deps.")["pairs_checked"] > 0

    @staticmethod
    def _example_kernels():
        def chain():
            a = placeholder((12, 9), name="A")
            return ops.relu(ops.scalar_add(a, 1.0, name="B"), name="C")

        def matmul():
            a = placeholder((6, 7), name="A")
            b = placeholder((7, 5), name="B")
            return ops.matmul(a, b, name="MM")

        def conv2d():
            d = placeholder((1, 2, 7, 7), name="D")
            w = placeholder((2, 2, 3, 3), name="W")
            return ops.conv2d(d, w, stride=(1, 1), padding=(1, 1), name="CV")

        def stencil():
            a = placeholder((14, 14), name="A")
            a1 = ops.scalar_add(a, 1.0, name="A1")
            b = placeholder((3, 3), name="B")
            kh = reduce_axis((0, 3), "kh")
            kw = reduce_axis((0, 3), "kw")
            return compute(
                (12, 12),
                lambda h, w: te_sum(
                    a1[h + kh, w + kw] * b[kh, kw], axis=(kh, kw)
                ),
                name="C",
            )

        def softmax():
            x = placeholder((5, 11), name="X")
            return ops.softmax_last_axis(x, name="SM")

        def reduction():
            x = placeholder((6, 20), name="X")
            k = reduce_axis((0, 20), "k")
            return compute((6,), lambda i: te_sum(x[i, k], axis=k), name="S")

        return {
            "chain": chain,
            "matmul": matmul,
            "conv2d": conv2d,
            "stencil": stencil,
            "softmax": softmax,
            "reduction": reduction,
        }

    @pytest.mark.parametrize("name", sorted(_example_kernels.__func__()))
    def test_pruned_equals_unpruned_on_example_kernels(self, name):
        """The acceptance regression: pruning never changes the computed
        dependence set — same edges, same kinds, same exact relations."""
        kernel = lower(self._example_kernels()[name]())
        pruned = compute_dependences(kernel, prune=True)
        exact = compute_dependences(kernel, prune=False)

        def canon(deps):
            return [
                (
                    d.src.stmt_id,
                    d.dst.stmt_id,
                    d.kind,
                    d.tensor_name,
                    tuple(d.relation.constraints),
                )
                for d in deps
            ]

        assert canon(pruned) == canon(exact)


def _canon(deps):
    """Everything a dependence list says, constraint order included."""
    return [
        (d.kind, d.src.stmt_id, d.dst.stmt_id, d.tensor_name,
         list(d.rename.items()),
         [(c.is_equality, list(c.expr.coeffs.items()), c.expr.const)
          for c in d.relation.constraints])
        for d in deps
    ]


class TestInjectiveSelfPairs:
    """A self pair of one injective access -- separable, or coupled -- is
    answered as ``prune=False`` answers it: in closed form when its
    subscripts are separable, by the ILP otherwise."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_pruned_equals_unpruned_on_golden_kernels(self, name):
        kernel = lower(GOLDEN[name][0](), name)
        assert _canon(compute_dependences(kernel, prune=True)) == _canon(
            compute_dependences(kernel, prune=False)
        )

    @staticmethod
    def _statement(rng, seen):
        """One statement over ``X``: a write and up to two reads of the
        kinds the closed form and the ILP must both get right."""
        from repro.ir.expr import FloatImm
        from repro.ir.lower import LoweredKernel, PolyStatement, TensorAccess
        from repro.ir.tensor import Tensor
        from repro.poly.affine import var

        dims = ["i", "j", "k"][: rng.randint(1, 3)]
        i, j = rng.choice(dims), rng.choice(dims)
        n = 6
        kinds = {
            "plain": lambda: [var(d) for d in dims],
            "double": lambda: [var(d) + var(d) for d in dims],  # X[i + i]
            "strided": lambda: [var(d) * 2 + rng.randint(0, 3) for d in dims],
            "skewed": lambda: [var(i) + var(j)] + [var(d) for d in dims[1:]],
            "reversed": lambda: [AffineExpr.constant(n - 1) - var(d) for d in dims],
            "constant": lambda: [AffineExpr.constant(rng.randint(0, 2))],
            "reduction": lambda: [var(d) for d in dims[:-1]] or [AffineExpr.constant(0)],
        }
        kind = rng.choice(sorted(kinds))
        seen[kind] += 1
        write = kinds[kind]()
        x = Tensor("X", (4 * n,) * len(write), "fp32")
        reads = []
        if rng.random() < 0.5:  # in-place stencil: X[i] = f(X[i - 1])
            seen["stencil"] += 1
            reads.append(TensorAccess(x, [e - 1 for e in write]))
        if rng.random() < 0.3:  # the written element read back
            reads.append(TensorAccess(x, list(write)))
        stmt = PolyStatement(
            stmt_id="S0",
            tensor=x,
            iter_names=dims,
            iter_extents=[n] * len(dims),
            data_rank=len(dims),
            write=TensorAccess(x, write),
            reads=reads,
            expr=FloatImm(0.0),
            kind="compute",
        )
        return LoweredKernel("self_pairs", [], [x], [stmt])

    def test_pruned_equals_unpruned_on_a_seeded_corpus(self):
        import random
        from collections import Counter

        from repro.sched import deps as deps_module

        rng = random.Random(20261017)
        seen = Counter()
        for _ in range(200):
            kernel = self._statement(rng, seen)
            stmt = kernel.statements[0]
            rename = {d: f"{d}__dst" for d in stmt.iter_names}
            separable = deps_module._separable(
                stmt, stmt, stmt.write, stmt.write,
                list(range(len(stmt.iter_names))), rename,
            )
            seen["closed"] += separable is not None
            seen["posed"] += separable is None
            assert _canon(compute_dependences(kernel, prune=True)) == _canon(
                compute_dependences(kernel, prune=False)
            )
        for path in (
            "plain", "double", "strided", "skewed", "reversed", "constant",
            "reduction", "stencil", "closed", "posed",
        ):
            assert seen[path] >= 10, (path, seen)


def _equal_pairs_kernel(rng, seen):
    """A producer ``B`` and a consumer whose accesses repeat one index
    list: a reduction's output read beside its write, ``b[i] + b[i]``, or
    ``B`` read three times alike, with a shifted read now and then."""
    n = rng.randint(3, 6)
    rank = rng.choice([1, 2])
    shape = (n + 2,) * rank
    a = placeholder(shape, name="A")
    b = compute(shape, lambda *ix: a[ix] * 2, name="B")
    kind = rng.choice(["reduction", "double", "thrice"])
    seen[kind] += 1
    shift = rng.random() < 0.4
    seen["shifted"] += shift

    def at(*ix):
        return b[ix]

    def shifted(*ix):
        return b[tuple(v + 1 for v in ix)] if shift else 0.0

    if kind == "reduction":
        k = reduce_axis((0, n), "k")
        if rank == 1:
            out = compute((n,), lambda i: te_sum(at(i) * at(k) + shifted(i), axis=k), name="C")
        else:
            out = compute(
                (n, n), lambda i, j: te_sum(at(i, k) * at(k, j) + shifted(i, j), axis=k),
                name="C",
            )
    elif kind == "double":
        out = compute((n,) * rank, lambda *ix: at(*ix) + at(*ix) + shifted(*ix), name="C")
    else:
        out = compute(
            (n,) * rank, lambda *ix: at(*ix) * at(*ix) - at(*ix) + shifted(*ix), name="C"
        )
    return lower(out, "equal_pairs")


def _corpus():
    """The golden kernels, the seeded self-access corpus and the seeded
    equal-pairs corpus, with the paths each took counted."""
    import random
    from collections import Counter

    seen = Counter()
    kernels = [lower(GOLDEN[name][0](), name) for name in sorted(GOLDEN)]
    rng = random.Random(20261017)
    kernels += [TestInjectiveSelfPairs._statement(rng, seen) for _ in range(60)]
    rng = random.Random(38)
    kernels += [_equal_pairs_kernel(rng, seen) for _ in range(60)]
    return kernels, seen


class TestPosedOnce:
    """Each dependence system is posed once: one problem per dependence,
    shared by equal access pairs, and distance bounds asked once -- with
    the answers of the exhaustive, posed-fresh path."""

    def test_pruned_equals_unpruned_and_equal_pairs_share(self):
        kernels, seen = _corpus()
        for path in ("reduction", "double", "thrice", "shifted", "stencil"):
            assert seen[path] >= 5, (path, seen)
        shared = 0
        for kernel in kernels:
            deps = compute_dependences(kernel, prune=True)
            assert _canon(deps) == _canon(compute_dependences(kernel, prune=False))
            problems = [id(d.problem) for d in deps]
            shared += len(problems) - len(set(problems))
            # A shared problem is posed over equal constraints only.
            by_problem = {}
            for d in deps:
                first = by_problem.setdefault(id(d.problem), d)
                assert first.relation.constraints == d.relation.constraints
                assert (first.src, first.dst) == (d.src, d.dst)
        assert shared >= 50

    def test_distance_bounds_equal_a_fresh_problem(self):
        from repro.poly.cache import set_solver_cache_enabled
        from repro.poly.ilp import IlpProblem
        from repro.sched.deps import _expr_bounds

        kernels, _ = _corpus()
        checked = 0
        for kernel in kernels:
            # Asked one bound at a time (as the scheduler's identity rows
            # ask them), then all at once (as clustering does).
            singly = [
                [(d.distance_bound(p), d.distance_bound(p, upper=True))
                 for p in range(min(len(d.src.iter_names), len(d.dst.iter_names)))]
                for d in compute_dependences(kernel)
            ]
            for d, one_by_one in zip(compute_dependences(kernel), singly):
                bounds = d.distance_bounds()
                if len(d.src.iter_names) != len(d.dst.iter_names):
                    assert bounds is None and d.distance_vector() is None
                    continue
                deltas = [
                    AffineExpr.variable(d.rename[t]) - AffineExpr.variable(s)
                    for s, t in zip(d.src.iter_names, d.dst.iter_names)
                ]
                set_solver_cache_enabled(False)
                try:
                    fresh = _expr_bounds(IlpProblem(d.relation.constraints), deltas)
                finally:
                    set_solver_cache_enabled(True)
                assert list(bounds) == fresh == one_by_one
                assert d.distance_vector() == [
                    lo if lo is not None and lo == hi else None for lo, hi in fresh
                ]
                checked += 1
        assert checked >= 300

    def test_dependences_sharing_a_problem_share_its_answers(self):
        from repro.poly.cache import solver_cache_stats

        def asked():
            ilp = solver_cache_stats()["ilp"]
            return ilp["hits"] + ilp["misses"]

        kernels, _ = _corpus()
        followers = 0
        for kernel in kernels:
            deps = compute_dependences(kernel, prune=True)
            first = {}
            for d in deps:
                lead = first.setdefault(id(d.problem), d)
                if lead is d:
                    lead.distance_bounds()
                    continue
                before = asked()
                assert d.distance_bounds() == lead.distance_bounds()
                assert asked() == before  # answered when the first asked
                followers += 1
            exact = compute_dependences(kernel, prune=False)
            assert [d.distance_bounds() for d in exact] == [
                d.distance_bounds() for d in deps
            ]
        assert followers >= 50

    def test_threads_sharing_problems_and_answers_agree(self):
        import random
        import sys
        import threading

        from repro.poly.cache import clear_solver_caches
        from repro.poly.ilp import IlpProblem
        from repro.sched.deps import _expr_bounds

        kernel = lower(GOLDEN["subgraph5"][0](), "subgraph5")
        serial = [d.distance_bounds() for d in compute_dependences(kernel)]
        aligned = [i for i, bounds in enumerate(serial) if bounds is not None]
        n_threads = 4  # more threads than the cores tier-1 runs on

        def race(ask, n):
            # Every thread asks all n questions, each in its own order.
            results = [None] * n_threads
            barrier = threading.Barrier(n_threads)

            def run(k):
                order = random.Random(k).sample(range(n), n)
                barrier.wait()
                got = {i: ask(i) for i in order}
                results[k] = [got[i] for i in range(n)]

            threads = [
                threading.Thread(target=run, args=(k,)) for k in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            return results

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                # Fresh dependences: equal pairs share a problem and its
                # answers, and no thread has asked a distance yet.
                deps = compute_dependences(kernel)
                clear_solver_caches()
                assert race(lambda i: deps[i].distance_bounds(), len(deps)) == [
                    serial
                ] * n_threads
                # Fresh problems: no witness is solved before the race.
                problems = [IlpProblem(deps[i].relation.constraints) for i in aligned]
                deltas = [
                    [deps[i]._delta(p) for p in range(len(deps[i].src.iter_names))]
                    for i in aligned
                ]
                clear_solver_caches()
                assert race(
                    lambda j: _expr_bounds(problems[j], deltas[j]), len(aligned)
                ) == [[list(serial[i]) for i in aligned]] * n_threads
        finally:
            sys.setswitchinterval(interval)

    def test_a_second_ask_poses_nothing(self):
        from repro.poly.cache import solver_cache_stats

        def asked():
            ilp = solver_cache_stats()["ilp"]
            return ilp["hits"] + ilp["misses"]

        # Kernels with a coupled access pair of equal ranks, whose
        # distances the ILP answers: a skewed read and a reversed one.
        a = placeholder((14, 7), name="A")
        b = compute((14, 7), lambda i, j: a[i, j] + 1, name="B")
        skewed = compute((7, 7), lambda i, j: b[i + j, j] * 2, name="C")
        reversed_ = compute((14, 7), lambda i, j: b[13 - i, j] * 2, name="C")
        for kernel in (lower(skewed), lower(reversed_)):
            deps = compute_dependences(kernel)
            before = asked()
            vectors = [d.distance_vector() for d in deps]
            assert asked() > before
            before = asked()
            assert [d.distance_vector() for d in deps] == vectors
            assert [d.is_uniform for d in deps] == [
                v is not None and None not in v for v in vectors
            ]
            assert asked() == before

    def test_a_reloaded_dependence_answers_alike(self):
        import pickle

        for name in ("conv2d_16x32", "subgraph5", "matmul_256"):
            for d in compute_dependences(lower(GOLDEN[name][0](), name)):
                blob = pickle.dumps(d)
                vector = d.distance_vector()
                assert pickle.dumps(d) == blob  # the memo is not state
                clone = pickle.loads(blob)
                assert clone.problem is not d.problem
                assert clone.distance_vector() == vector

    def test_two_threads_schedule_one_front_end_alike(self):
        import pickle
        import sys
        import threading

        from repro.core import diskcache
        from repro.core.frontend import run_frontend
        from repro.poly.cache import clear_solver_caches
        from repro.sched.clustering import merge_uniform_clusters
        from repro.sched.scheduler import PolyScheduler

        name = "subgraph5"
        with diskcache.disabled():
            frontend = run_frontend(GOLDEN[name][0](), name)
        serial = frontend.split_variant()[1].render()

        def schedule(shared, trees, k, barrier):
            barrier.wait()
            clustering = merge_uniform_clusters(shared.clustering)
            tree = PolyScheduler(shared.scheduler_options).schedule_kernel(
                shared.kernel, shared.deps, clustering
            )
            trees[k] = tree.render()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for _ in range(10):
                # Reloaded, so both threads are the first to ask every
                # dependence, and with the solver tables empty, so both solve.
                shared = pickle.loads(pickle.dumps(frontend))
                clear_solver_caches()
                trees = [None, None]
                barrier = threading.Barrier(2)
                threads = [
                    threading.Thread(target=schedule, args=(shared, trees, k, barrier))
                    for k in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert trees[0] == trees[1] == serial
        finally:
            sys.setswitchinterval(interval)
