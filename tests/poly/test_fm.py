"""Tests for Fourier-Motzkin elimination."""

import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.cache import clear_solver_caches
from repro.poly.fm import project_onto
from repro.poly.ilp import IlpProblem

from tests.poly import _reference_fm as reference
from tests.poly._counts import hits_misses
from tests.poly._reference_fm import eliminate_variable, remove_redundant


def box_constraints(**bounds):
    cons = []
    for name, (lo, hi) in bounds.items():
        cons.append(Constraint.ge(var(name), lo))
        cons.append(Constraint.le(var(name), hi))
    return cons


class TestEliminate:
    def test_box_elimination(self):
        cons = box_constraints(x=(0, 5), y=(2, 7))
        out = eliminate_variable(cons, "y")
        names = {v for c in out for v in c.variables()}
        assert names == {"x"}

    def test_equality_substitution(self):
        # y == 2x, 0 <= y <= 10  ->  0 <= 2x <= 10  ->  0 <= x <= 5.
        cons = box_constraints(y=(0, 10)) + [
            Constraint.eq(var("y"), var("x") * 2)
        ]
        out = eliminate_variable(cons, "y")
        problem = IlpProblem(out)
        assert problem.lexmin(["x"]) == {"x": 0}
        assert problem.maximize(var("x")).value == 5

    def test_lower_upper_combination(self):
        # x <= y <= x + 3, 0 <= y <= 10: eliminating y leaves x in [-3, 10].
        cons = [
            Constraint.ge(var("y"), var("x")),
            Constraint.le(var("y"), var("x") + 3),
            Constraint.ge(var("y"), 0),
            Constraint.le(var("y"), 10),
        ]
        out = eliminate_variable(cons, "y")
        problem = IlpProblem(out)
        assert problem.lexmin(["x"]) == {"x": -3}
        assert problem.maximize(var("x")).value == 10

    def test_project_onto_multiple(self):
        cons = box_constraints(a=(0, 3), b=(1, 4), c=(2, 5))
        out = project_onto(cons, ["b"])
        names = {v for c in out for v in c.variables()}
        assert names == {"b"}


class TestRedundancy:
    def test_duplicate_removed(self):
        c = Constraint.ge(var("x"), 3)
        out = remove_redundant([c, c, c])
        assert len(out) == 1

    def test_dominated_constant_removed(self):
        weak = Constraint.ge(var("x"), 1)
        strong = Constraint.ge(var("x"), 5)
        out = remove_redundant([weak, strong])
        assert out == [strong]

    def test_trivially_true_dropped(self):
        out = remove_redundant([Constraint.ge(AffineExpr.constant(4), 0)])
        assert out == []


@settings(max_examples=30, deadline=None)
@given(
    lo_x=st.integers(-5, 5), w_x=st.integers(0, 5),
    lo_y=st.integers(-5, 5), w_y=st.integers(0, 5),
    a=st.integers(-2, 2), b=st.integers(1, 3), c=st.integers(-6, 6),
)
def test_projection_is_sound_overapproximation(lo_x, w_x, lo_y, w_y, a, b, c):
    """For every integer point of the original system, its projection must
    satisfy the FM result (soundness: FM over-approximates)."""
    cons = box_constraints(x=(lo_x, lo_x + w_x), y=(lo_y, lo_y + w_y))
    cons.append(Constraint.ge(var("x") * a + var("y") * b, c))
    projected = project_onto(cons, ["x"])
    for x in range(lo_x, lo_x + w_x + 1):
        feasible_y = any(
            a * x + b * y >= c
            for y in range(lo_y, lo_y + w_y + 1)
        )
        if feasible_y:
            env = {"x": x}
            assert all(cc.satisfied(env) for cc in projected)


# -- the rank-row projection against the named reference ----------------------


def _exact(constraints):
    """Everything a caller can read off a projection: list order,
    coefficient-dict order, the numbers and their types."""
    return [
        (c.is_equality, list(c.expr.coeffs.items()), c.expr.const, type(c.expr.const))
        for c in constraints
    ]


def _same_projection(constraints, keep):
    """Production equals the reference -- cold, then from the memo -- and
    hands back the caller's own object for exactly the rows it did not
    touch."""
    want = reference.project_onto(constraints, keep)
    clear_solver_caches()
    for _ in range(2):  # the miss, then the hit
        got = project_onto(constraints, keep)
        assert _exact(got) == _exact(want), (constraints, keep)
    assert hits_misses("fm") == (1, 1)
    clear_solver_caches()
    got = project_onto(constraints, keep)
    mine = [any(c is o for o in constraints) for c in got]
    assert mine == [any(c is o for o in constraints) for c in want], (constraints, keep)


def _row(rng, names, equality):
    picked = rng.sample(names, rng.randint(1, min(4, len(names))))
    coeffs = {n: rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6)) for n in picked}
    return Constraint(AffineExpr(coeffs, rng.randint(-9, 9)), equality)


def _system(rng, names):
    cons = [_row(rng, names, rng.random() < 0.35) for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.3:  # one object twice, or an equal copy
        twin = rng.choice(cons)
        cons.append(twin if rng.random() < 0.5 else Constraint(twin.expr, twin.is_equality))
    if rng.random() < 0.15:  # a constant row, true or false
        cons.append(Constraint(AffineExpr({}, rng.randint(-3, 3)), rng.random() < 0.5))
    rng.shuffle(cons)
    return cons


#: Hand-made systems for the cases a wrong integer step shows on.
EDGES = [
    # x + y + z = 0 turns x + 7y + z + 3 = 0 into 6y + 3 = 0: the gcd 6 of
    # its coefficients does not divide 3, so it stays as it is -- no
    # integer point, and not 2y + 1 = 0.
    ([Constraint.eq(var("x") + var("y") + var("z"), 0),
      Constraint.eq(var("x") + var("y") * 7 + var("z") + 3, 0)], ["y"]),
    # 2x + 3y = 1 turns 2x + 3y - 5 >= 0 into the constant row -4 >= 0.
    ([Constraint.eq(var("x") * 2 + var("y") * 3, 1),
      Constraint.ge(var("x") * 2 + var("y") * 3 - 5, 0)], []),
    # A non-unit pivot (3x + 2y = 1) substitutes a rational replacement.
    ([Constraint.eq(var("x") * 3 + var("y") * 2, 1),
      Constraint.ge(var("x") * 4 - var("z"), 2),
      Constraint.le(var("x") + var("z") * 5, 9),
      Constraint.eq(var("x") * 6 + var("y"), var("z"))], ["y", "z"]),
    # The same object twice, as pivot and as duplicate.
    ([Constraint.eq(var("x") * 2 - var("y"), 3)] * 2
     + [Constraint.ge(var("x"), 0), Constraint.le(var("x"), 4)], ["y"]),
    # Nothing to eliminate: the system comes back as it is, constant rows
    # included.
    ([Constraint.ge(AffineExpr.constant(2), 0), Constraint.ge(var("x"), 1)], ["x"]),
]


@pytest.mark.parametrize("index", range(len(EDGES)))
def test_row_projection_equals_the_reference_on_edges(index):
    _same_projection(*EDGES[index])


def _watch_reference(monkeypatch):
    """Count the paths the corpus was built for as the reference takes them."""
    seen = Counter()
    real = reference.eliminate_variable

    def watch(constraints, name):
        pivots = [c for c in constraints if c.is_equality and c.expr.coeff(name)]
        out = real(constraints, name)
        if pivots:
            a = min(abs(c.expr.coeff(name)) for c in pivots)
            seen["non_unit_pivot"] += a > 1
            others = [c.expr.coeff(name) for c in constraints if c.expr.coeff(name)]
            seen["rational_substitution"] += any(b % a for b in others)
        for c in out:
            coeffs = list(c.expr.coeffs.values())
            seen["constant_row"] += not coeffs
            if c.is_equality and coeffs:
                seen["no_integer_point"] += c.expr.const % gcd(*coeffs) != 0
        return out

    monkeypatch.setattr(reference, "eliminate_variable", watch)
    return seen


def test_row_projection_equals_the_reference_on_a_seeded_corpus(monkeypatch):
    seen = _watch_reference(monkeypatch)
    rng = random.Random(20240611)
    for _ in range(600):
        names = [f"v{i}" for i in range(rng.randint(2, 6))]
        rng.shuffle(names)  # creation order is not rank order
        cons = _system(rng, names)
        seen["duplicate_row"] += len(set(cons)) < len(cons)
        _same_projection(cons, rng.sample(names, rng.randint(0, len(names) - 1)))
    # The corpus is only evidence if it reaches the paths it was built for.
    for path in (
        "non_unit_pivot", "rational_substitution", "no_integer_point",
        "constant_row", "duplicate_row",
    ):
        assert seen[path] >= 20, (path, seen)
