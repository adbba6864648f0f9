"""Tile probes on integer rows against the named reference.

``repro.tiling.reverse`` solves a footprint on positional rows of the
instance relation and the index expressions, bounds an extent on the
rows of the bounded dim's component with integer pair bounds, and builds
tile membership rows directly.  The oracle is the path they replaced
(``tests/tiling/_reference_footprint.py``): a positional ``compose``, one
named projection per tensor dim and an ``AffineExpr`` pair loop over
``Fraction`` values.  Every answer must be equal -- on every footprint
and extent a cold compile of the ``WINDOWLESS`` kernels solves (a
statement with a tile window solves none), on every membership the
golden rows and the tuner rows build, and on a seeded corpus built for
the cases a wrong step shows on.  The solver's fault site, deadline and
budget still guard every solve.
"""

import pickle
import random
from collections import Counter

import pytest

from repro.autotune.tuner import tune_tile_sizes
from repro.core import diskcache, faults, resilience
from repro.core.compiler import build
from repro.core.context import stage
from repro.core.errors import SolverBudgetError
from repro.core.resilience import StageBudget
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.poly import fm
from repro.poly.affine import AffineExpr, Constraint, var
from repro.fusion import posttile
from repro.poly.cache import RankSpace, clear_solver_caches
from repro.poly.maps import BasicMap
from repro.poly.sets import Space
from repro.storage import promote
from repro.tiling import reverse

from tests.core.test_golden_programs import GOLDEN
from tests.sched.test_scheduler import mirrored
from tests.tiling import _reference_footprint as reference

#: The tuner rows of the repo benchmark (one front-end, ~11 backend builds),
#: and three paper subgraphs: the fused producers of subgraphs 1 and 5
#: build their relations, and subgraph 4 the stencil memberships.
TUNED = (
    "add_relu_128x512", "matmul_256", "softmax_32x64", "subgraph1", "subgraph4",
    "subgraph5",
)


def _windowless(op, shape):
    """A 4-D ``op`` output beside its mirrored copy: the scheduler shifts
    the original's last band row, so that statement has no tile window."""

    def make():
        x = placeholder(shape, "fp16", name="X")
        y = placeholder(shape, "fp16", name="Y")
        b = placeholder(shape[1:2], "fp16", name="B")
        return mirrored({
            "relu": lambda: ops.relu(x, name="out"),
            "add": lambda: ops.add(x, y, name="out"),
            "bias_add": lambda: ops.broadcast_add_channel(x, b, name="out"),
        }[op]())

    return make


#: Tuned too: kernels whose footprints and extents FM answers.
WINDOWLESS = {
    f"{op}_{'x'.join(map(str, shape))}_mirrored": _windowless(op, shape)
    for op in ("relu", "add", "bias_add")
    for shape in ((8, 16, 4, 4), (4, 8, 8, 8))
}
TUNE_PARAMS = dict(seed=0, first_round=8, round_size=4, max_rounds=2, parallel=False)


def _exact(constraints):
    """Everything a reader of a constraint list can see, down to which
    string object each coefficient is keyed by (pickles share strings by
    identity)."""
    return [
        (c.is_equality, list(c.expr.coeffs.items()), c.expr.const,
         type(c.expr.const), [id(n) for n in c.expr.coeffs])
        for c in constraints
    ]


# -- (a) every miss of a cold compile ---------------------------------------------


@pytest.fixture(scope="module")
def compiled():
    """Compile the nine golden rows and tune five of them and the
    ``WINDOWLESS`` kernels cold, keeping every footprint, extent system and
    membership call they pose."""
    seen = {"footprint": [], "extent": [], "membership": []}
    bounds, extents, membership = (
        promote.footprint_bounds, posttile.affine_extent_bounds,
        reverse.tile_membership_constraints,
    )

    def footprint(relation, indices, tile_counts):
        out = bounds(relation, indices, tile_counts)
        seen["footprint"].append((relation, list(indices), list(tile_counts), out))
        return out

    def extent(constraints, dims, box_ranges):
        out = extents(constraints, dims, box_ranges)
        seen["extent"].append((list(constraints), list(dims), dict(box_ranges), out))
        return out

    def member(rows, sizes, tile_dims):
        out = membership(rows, sizes, tile_dims)
        seen["membership"].append((list(rows), list(sizes), list(tile_dims), out))
        return out

    with pytest.MonkeyPatch.context() as patch, diskcache.disabled():
        patch.setattr(promote, "footprint_bounds", footprint)
        patch.setattr(posttile, "affine_extent_bounds", extent)
        patch.setattr(reverse, "tile_membership_constraints", member)
        for name in sorted(GOLDEN):
            clear_solver_caches()
            build(GOLDEN[name][0](), name)
        for name in TUNED:
            clear_solver_caches()
            tune_tile_sizes(GOLDEN[name][0](), name, **TUNE_PARAMS)
        for name, make in WINDOWLESS.items():
            clear_solver_caches()
            tune_tile_sizes(make(), name, **TUNE_PARAMS)
    clear_solver_caches()
    return seen


def test_every_compiled_footprint_miss_equals_the_reference(compiled):
    for relation, indices, counts, got in compiled["footprint"]:
        want = reference.footprint_bounds(relation, indices, counts)
        assert got == want, (relation, indices, counts)
    assert len(compiled["footprint"]) >= 100


def test_every_compiled_extent_miss_equals_the_reference(compiled):
    misses = {}
    for constraints, dims, box_ranges, got in compiled["extent"]:
        space = RankSpace(constraints)
        box = tuple([box_ranges.get(n) for n in space.names])
        for dim, bound in zip(dims, got):
            key = (space.rows, space.rank.get(dim), box)
            if key not in misses:
                want = reference.extent_bound(constraints, dim, box_ranges)
                assert bound == want, (constraints, dim, box_ranges)
                misses[key] = bound
    assert len(misses) >= 100


def test_every_compiled_membership_equals_the_reference(compiled):
    for rows, sizes, tile_dims, got in compiled["membership"]:
        want = reference.tile_membership_constraints(rows, sizes, tile_dims)
        assert _exact(got) == _exact(want)
        assert pickle.dumps(got) == pickle.dumps(want)
    assert len(compiled["membership"]) >= 500


# -- (b) a seeded corpus ------------------------------------------------------------


def _index(rng, iters, seen):
    """One affine index expression over ``iters``."""
    i, j = rng.choice(iters), rng.choice(iters)
    kind = rng.choice(
        ("plain", "double", "strided", "reversed", "skewed", "mixed", "constant")
    )
    seen[kind] += 1
    return {
        "plain": lambda: var(i),
        "double": lambda: var(i) + var(i),  # A[i + i]
        "strided": lambda: var(i) * rng.choice((2, 3)) + rng.randint(0, 2),
        # A[N - 1 - i]
        "reversed": lambda: AffineExpr.constant(rng.randint(4, 40)) - 1 - var(i),
        "skewed": lambda: var(i) + var(j),
        "mixed": lambda: var(i) * 3 - var(j) * 2 + 1,
        "constant": lambda: AffineExpr.constant(rng.randint(0, 3)),
    }[kind]()


def _relation(rng, seen):
    """A ``tile -> instances`` relation the way fusion builds one, plus the
    rows a hand-written one may carry."""
    tiles = rng.sample(["o0", "o1", "q", "t9"], rng.randint(1, 3))
    iters = rng.sample(["h", "w", "c", "n", "k_ax0", "a"], rng.randint(1, 4))
    cons = []
    for i in iters:
        if rng.random() < 0.9:
            cons.append(Constraint.ge(var(i), 0))
        if rng.random() < 0.85:  # else: no upper bound, an unbounded dim
            cons.append(Constraint.le(var(i), rng.randint(3, 40)))
    rows, sizes, dims = [], [], []
    for o in tiles:
        if rng.random() < 0.2:
            seen["unmentioned_box_dim"] += 1
            continue
        i, j = rng.choice(iters), rng.choice(iters)
        rows.append(rng.choice((var(i), var(i) * 2, var(i) + var(j), var(i) - var(j) * 2)))
        sizes.append(rng.choice((1, 2, 3, 4, 6, 8)))
        dims.append(o)
    membership = reverse.tile_membership_constraints(rows, sizes, dims)
    seen["scaled_membership"] += any(  # normalised by a gcd > 1
        abs(membership[2 * k].expr.coeffs[o]) != s
        for k, (o, s) in enumerate(zip(dims, sizes))
    )
    cons += membership
    if rng.random() < 0.4:  # an equality pivot, often with |a| > 1
        a, b = rng.choice((1, 2, 3)), rng.choice((-2, -1, 1, 3))
        i, j = rng.sample(iters, 2) if len(iters) > 1 else (iters[0], rng.choice(tiles))
        cons.append(Constraint.eq(var(i) * a + var(j) * b, rng.randint(-2, 2)))
    if rng.random() < 0.3:  # a coupling inequality
        i, j = rng.choice(iters), rng.choice(iters)
        cons.append(Constraint.le(var(i) + var(j) * rng.choice((1, 2)), rng.randint(5, 30)))
    if rng.random() < 0.1:  # a constant row, true or false
        seen["constant_row"] += 1
        constant = AffineExpr.constant(rng.choice((-1, 0, 2)))
        cons.append(Constraint(constant, rng.random() < 0.5))
    rng.shuffle(cons)
    return BasicMap(Space("T", tiles), Space("S", iters), cons)


def _watch(monkeypatch):
    """Count the paths the corpus was built for as the solves take them."""
    seen = Counter()
    substitute, floor = fm._substitute, reference.floor

    def watched_substitute(rows, r, pivot):
        seen["non_unit_pivot"] += abs(pivot[0][r]) > 1
        return substitute(rows, r, pivot)

    def watched_floor(value):
        seen["non_integral_bound"] += value != int(value)
        return floor(value)

    monkeypatch.setattr(fm, "_substitute", watched_substitute)
    monkeypatch.setattr(reference, "floor", watched_floor)
    return seen


def test_footprints_equal_the_reference_on_a_seeded_corpus(monkeypatch):
    seen = _watch(monkeypatch)
    rng = random.Random(20261017)
    for _ in range(300):
        relation = _relation(rng, seen)
        iters = relation.out_space.dims
        shape = [rng.randint(1, 64) for _ in range(rng.randint(1, 3))]
        indices = [_index(rng, iters, seen) for _ in shape]
        counts = [rng.randint(1, 5) for _ in relation.in_space.dims]
        got = reverse.footprint_bounds(relation, indices, counts)
        assert got == reference.footprint_bounds(relation, indices, counts), (
            relation, indices, counts
        )
        seen["unbounded"] += None in got
    for path in (
        "double", "strided", "reversed", "skewed", "non_unit_pivot",
        "non_integral_bound", "unbounded", "unmentioned_box_dim",
        "constant_row", "scaled_membership",
    ):
        assert seen[path] >= 10, (path, seen)


def _extent_system(rng, seen):
    """Rows over box variables ``b*``, the bounded dims ``x*`` and free
    variables ``v*``, in blocks that may or may not share a variable."""
    box = {
        b: (rng.randint(-2, 1), rng.randint(1, 6))
        for b in rng.sample(["b0", "b1", "b2"], 2)
    }
    names = ["x0", "x1", "v0", "v1", "v2"] + list(box)
    cons = []
    for _ in range(rng.randint(2, 8)):
        picked = rng.sample(names, rng.randint(1, 3))
        coeffs = {n: rng.choice((-3, -2, -1, 1, 2, 3)) for n in picked}
        cons.append(Constraint(AffineExpr(coeffs, rng.randint(-9, 9)), rng.random() < 0.3))
    for x in ("x0", "x1"):  # a lower and an upper bound over the box
        if rng.random() < 0.8:
            b = rng.choice(list(box))
            cons.append(Constraint.ge(var(x), var(b) * rng.choice((1, 2, 4))))
            upper = var(b) * 4 + rng.randint(0, 7)
            cons.append(Constraint.le(var(x) * rng.choice((1, 2)), upper))
    if rng.random() < 0.1:
        seen["constant_row"] += 1
        cons.append(Constraint(AffineExpr.constant(-1), False))
    rng.shuffle(cons)
    return cons, box


def test_extents_equal_the_reference_on_a_seeded_corpus(monkeypatch):
    seen = _watch(monkeypatch)
    rng = random.Random(20261018)
    for _ in range(300):
        cons, box = _extent_system(rng, seen)
        dims = ["x0", "x1", "absent"]
        got = reverse.affine_extent_bounds(cons, dims, box)
        want = [reference.extent_bound(cons, d, box) for d in dims]
        assert got == want, (cons, box)
        for dim in dims:
            rows = [c for c in cons if dim in c.expr.coeffs]
            seen["coupled"] += any(
                n.startswith("v") or n.startswith("x") and n != dim
                for c in rows for n in c.expr.coeffs
            )
            seen["equality_bound"] += any(c.is_equality for c in rows)
        seen["unbounded"] += got[:2].count(None)
    for path in (
        "coupled", "equality_bound", "non_unit_pivot", "non_integral_bound",
        "unbounded", "constant_row",
    ):
        assert seen[path] >= 10, (path, seen)


# -- fault site, deadline and budget ------------------------------------------------


def _coupled():
    """``x`` bound through ``y`` and ``z``; ``w`` shares only the box
    variable ``t`` with them, so it is a block of its own."""
    return [
        Constraint.ge(var("x") - var("y"), 0),
        Constraint.le(var("x"), var("y") + var("z")),
        Constraint.ge(var("y"), var("t") * 4),
        Constraint.le(var("y"), var("t") * 4 + 3),
        Constraint.ge(var("z"), 0),
        Constraint.le(var("z"), 2),
        Constraint.ge(var("w"), var("t")),
        Constraint.le(var("w"), 9),
    ]


def _extents(constraints, dim):
    return reverse.affine_extent_bounds(constraints, [dim], {"t": (0, 3)})


def test_injected_fault_reaches_cold_footprint_and_extent_misses():
    # A component of one variable eliminates nothing, and still fires.
    single = [
        Constraint.ge(var("x"), var("t") * 4),
        Constraint.le(var("x"), var("t") * 4 + 3),
    ]
    relation = BasicMap(Space("T", ["t"]), Space("S", ["x"]), single)
    with faults.inject("fm.eliminate:error"):
        with pytest.raises(SolverBudgetError):
            reverse.footprint_bounds(relation, [var("x") * 2], [4])
        with pytest.raises(SolverBudgetError):
            _extents(single, "x")
    assert reverse.footprint_bounds(relation, [var("x") * 2], [4]) == [7]
    assert _extents(single, "x") == [4]


def test_deadline_is_checked_once_per_eliminated_variable(monkeypatch):
    checks = Counter()
    deadline = resilience.check_deadline

    def counted():
        checks["deadline"] += 1
        deadline()

    monkeypatch.setattr(resilience, "check_deadline", counted)
    bound = _extents(_coupled(), "x")
    assert bound == [6]  # x in [4t, 4t + 5]
    assert checks["deadline"] == 2  # y and z; never w


def test_lowered_budget_stops_a_coupled_extent():
    with stage("budgeted", StageBudget(fm_constraints=2)):
        with pytest.raises(SolverBudgetError, match="exploded past 2"):
            _extents(_coupled(), "x")
        # The rows actually carried: ``w`` alone eliminates nothing.
        assert _extents(_coupled(), "w") == [10]
