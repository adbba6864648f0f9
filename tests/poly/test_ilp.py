"""Unit and property tests for the exact (I)LP solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.ilp import IlpProblem, IlpStatus


def box_problem(bounds):
    """IlpProblem for a box {name: (lo, hi)}."""
    p = IlpProblem()
    for name, (lo, hi) in bounds.items():
        p.add_constraint(Constraint.ge(var(name), lo))
        p.add_constraint(Constraint.le(var(name), hi))
    return p


class TestLp:
    def test_simple_minimum(self):
        p = box_problem({"x": (2, 10)})
        r = p.minimize(var("x"), integer=False)
        assert r.status is IlpStatus.OPTIMAL
        assert r.value == 2

    def test_negative_bounds(self):
        p = box_problem({"x": (-7, -3)})
        r = p.minimize(var("x"), integer=False)
        assert r.value == -7
        r = p.maximize(var("x"), integer=False)
        assert r.value == -3

    def test_infeasible(self):
        p = box_problem({"x": (5, 2)})
        r = p.minimize(var("x"), integer=False)
        assert r.status is IlpStatus.INFEASIBLE

    def test_unbounded(self):
        p = IlpProblem([Constraint.ge(var("x"), 0)])
        r = p.maximize(var("x"), integer=False)
        assert r.status is IlpStatus.UNBOUNDED

    def test_constraint_tightening_applies_before_solve(self):
        # 2x >= 1 is normalised to x >= 1 (integer tightening happens in the
        # Constraint layer, so even the rational relaxation sees x >= 1).
        p = IlpProblem([Constraint.ge(var("x") * 2 - 1, 0)])
        r = p.minimize(var("x"), integer=False)
        assert r.value == 1

    def test_rational_optimum_via_equalities(self):
        # Equalities are not tightened: x == y/2, y == 1 -> x = 1/2.
        p = IlpProblem(
            [
                Constraint.eq(var("x") * 2 - var("y"), 0),
                Constraint.eq(var("y"), 1),
            ]
        )
        r = p.minimize(var("x"), integer=False)
        assert r.value == Fraction(1, 2)

    def test_two_variable_lp(self):
        # min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
        p = IlpProblem(
            [
                Constraint.ge(var("x") + var("y") * 2, 4),
                Constraint.ge(var("x") * 3 + var("y"), 6),
                Constraint.ge(var("x"), 0),
                Constraint.ge(var("y"), 0),
            ]
        )
        r = p.minimize(var("x") + var("y"), integer=False)
        assert r.status is IlpStatus.OPTIMAL
        # Optimum at intersection: x = 8/5, y = 6/5, value 14/5.
        assert r.value == Fraction(14, 5)

    def test_equality_constraints(self):
        p = IlpProblem(
            [
                Constraint.eq(var("x") + var("y"), 10),
                Constraint.ge(var("x"), 0),
                Constraint.ge(var("y"), 0),
            ]
        )
        r = p.minimize(var("x"), integer=False)
        assert r.value == 0
        assert r.assignment["y"] == 10


class TestIlp:
    def test_integer_rounding_up(self):
        # min x s.t. 2x >= 1 over integers -> x = 1... constraint normalises
        # to x >= 1 already; use 2x >= 3 (x >= 3/2) via equality to avoid
        # the normaliser: x = y, 2y >= 3 with fractional relaxation.
        p = IlpProblem(
            [
                Constraint.ge(var("x") * 2 + var("y"), 3),
                Constraint.ge(var("y"), 0),
                Constraint.le(var("y"), 0),
                Constraint.ge(var("x"), 0),
            ]
        )
        r = p.minimize(var("x"), integer=True)
        assert r.value == 2

    def test_knapsack_like(self):
        # max 3x + 4y s.t. 2x + 3y <= 7, x,y >= 0 integer.
        p = IlpProblem(
            [
                Constraint.le(var("x") * 2 + var("y") * 3, 7),
                Constraint.ge(var("x"), 0),
                Constraint.ge(var("y"), 0),
            ]
        )
        r = p.maximize(var("x") * 3 + var("y") * 4, integer=True)
        assert r.status is IlpStatus.OPTIMAL
        assert r.value == 10  # x=2,y=1 -> 10 beats x=3,y=0 -> 9 and x=0,y=2 -> 8

    def test_integer_infeasible_but_rational_feasible(self):
        # 2x == 1 has a rational solution but no integer one.
        p = IlpProblem([Constraint.eq(var("x") * 2, 1)])
        assert p.is_feasible(integer=False)
        assert not p.is_feasible(integer=True)

    def test_lexmin(self):
        p = IlpProblem(
            [
                Constraint.ge(var("a") + var("b"), 5),
                Constraint.ge(var("a"), 0),
                Constraint.le(var("a"), 3),
                Constraint.ge(var("b"), 0),
                Constraint.le(var("b"), 9),
            ]
        )
        point = p.lexmin(["a", "b"])
        assert point == {"a": 0, "b": 5}

    def test_lexmin_infeasible(self):
        p = box_problem({"x": (5, 2)})
        assert p.lexmin(["x"]) is None

    def test_lexmin_unbounded_raises(self):
        p = IlpProblem([Constraint.le(var("x"), 5)])
        with pytest.raises(ValueError):
            p.lexmin(["x"])


@settings(max_examples=40, deadline=None)
@given(
    lo1=st.integers(-8, 8),
    width1=st.integers(0, 6),
    lo2=st.integers(-8, 8),
    width2=st.integers(0, 6),
    c1=st.integers(-3, 3),
    c2=st.integers(-3, 3),
    rhs=st.integers(-10, 10),
)
def test_ilp_matches_brute_force(lo1, width1, lo2, width2, c1, c2, rhs):
    """Integer minimum of c1*x + c2*y over a box with one extra half-plane
    must match brute-force enumeration."""
    hi1, hi2 = lo1 + width1, lo2 + width2
    extra = Constraint.ge(var("x") * 1 + var("y") * 2, rhs)
    p = box_problem({"x": (lo1, hi1), "y": (lo2, hi2)})
    p.add_constraint(extra)
    obj = var("x") * c1 + var("y") * c2
    result = p.minimize(obj, integer=True)

    feasible = [
        (x, y)
        for x in range(lo1, hi1 + 1)
        for y in range(lo2, hi2 + 1)
        if x + 2 * y >= rhs
    ]
    if not feasible:
        assert result.status is IlpStatus.INFEASIBLE
    else:
        expected = min(c1 * x + c2 * y for x, y in feasible)
        assert result.status is IlpStatus.OPTIMAL
        assert result.value == expected


@settings(max_examples=25, deadline=None)
@given(
    lo1=st.integers(-5, 5),
    width1=st.integers(0, 5),
    lo2=st.integers(-5, 5),
    width2=st.integers(0, 5),
)
def test_lexmin_matches_brute_force(lo1, width1, lo2, width2):
    """Lexicographic minimum on a constrained box matches sorted enumeration."""
    hi1, hi2 = lo1 + width1, lo2 + width2
    p = box_problem({"x": (lo1, hi1), "y": (lo2, hi2)})
    p.add_constraint(Constraint.ge(var("x") + var("y"), lo1 + lo2 + 1))
    point = p.lexmin(["x", "y"])
    feasible = sorted(
        (x, y)
        for x in range(lo1, hi1 + 1)
        for y in range(lo2, hi2 + 1)
        if x + y >= lo1 + lo2 + 1
    )
    if not feasible:
        assert point is None
    else:
        assert (point["x"], point["y"]) == feasible[0]


SIDES = st.sampled_from(["both", "lo", "hi", "none"])


def _diamond_problem(cx, cy, radius, bounds):
    """``|x - cx| + |y - cy| <= radius`` as four coupling rows, so the region
    is bounded whichever sides of ``bounds`` (name -> (sides, lo, hi)) are
    kept: a one-sided variable is shifted to its bound, a free one split."""
    x, y = var("x") - cx, var("y") - cy
    p = IlpProblem(
        [
            Constraint.le(x + y, radius),
            Constraint.le(x - y, radius),
            Constraint.le(y - x, radius),
            Constraint.le(-x - y, radius),
        ]
    )
    for name, (sides, lo, hi) in bounds.items():
        if sides in ("both", "lo"):
            p.add_constraint(Constraint.ge(var(name), lo))
        if sides in ("both", "hi"):
            p.add_constraint(Constraint.le(var(name), hi))
    return p


def _diamond_points(cx, cy, radius, bounds):
    def inside(name, v):
        sides, lo, hi = bounds[name]
        return (sides not in ("both", "lo") or v >= lo) and (
            sides not in ("both", "hi") or v <= hi
        )

    return sorted(
        (x, y)
        for x in range(cx - radius, cx + radius + 1)
        for y in range(cy - radius, cy + radius + 1)
        if abs(x - cx) + abs(y - cy) <= radius and inside("x", x) and inside("y", y)
    )


DIAMOND = dict(
    cx=st.integers(-6, 6),
    cy=st.integers(-6, 6),
    radius=st.integers(0, 5),
    sides_x=SIDES,
    sides_y=SIDES,
    lo_x=st.integers(-8, 8),
    width_x=st.integers(0, 6),
    lo_y=st.integers(-8, 8),
    width_y=st.integers(0, 6),
)


def _diamond_bounds(sides_x, sides_y, lo_x, width_x, lo_y, width_y):
    return {"x": (sides_x, lo_x, lo_x + width_x), "y": (sides_y, lo_y, lo_y + width_y)}


@settings(max_examples=60, deadline=None)
@given(c1=st.integers(-3, 3), c2=st.integers(-3, 3), **DIAMOND)
def test_ilp_matches_brute_force_on_one_sided_and_free_variables(
    cx, cy, radius, c1, c2, **sides
):
    """Variables bounded on both sides, one side or not at all take
    different columns in the tableau; the integer optimum is the
    enumerated one for each, and the point returned attains it."""
    bounds = _diamond_bounds(**sides)
    p = _diamond_problem(cx, cy, radius, bounds)
    obj = var("x") * c1 + var("y") * c2
    result = p.minimize(obj, integer=True)

    feasible = _diamond_points(cx, cy, radius, bounds)
    if not feasible:
        assert result.status is IlpStatus.INFEASIBLE
    else:
        assert result.status is IlpStatus.OPTIMAL
        assert result.value == min(c1 * x + c2 * y for x, y in feasible)
        point = (result.assignment["x"], result.assignment["y"])
        assert point in feasible and c1 * point[0] + c2 * point[1] == result.value


@settings(max_examples=40, deadline=None)
@given(**DIAMOND)
def test_lexmin_matches_brute_force_on_one_sided_and_free_variables(
    cx, cy, radius, **sides
):
    bounds = _diamond_bounds(**sides)
    p = _diamond_problem(cx, cy, radius, bounds)
    feasible = _diamond_points(cx, cy, radius, bounds)
    point = p.lexmin(["x", "y"])
    if not feasible:
        assert point is None
    else:
        assert (point["x"], point["y"]) == feasible[0]


class TestBatchMinimize:
    """batch_minimize must be indistinguishable from minimize in a loop."""

    def _diamond(self):
        p = IlpProblem()
        p.add_constraint(Constraint.ge(var("x") + var("y"), 1))
        p.add_constraint(Constraint.le(var("x") + var("y"), 9))
        p.add_constraint(Constraint.ge(var("x") - var("y"), -4))
        p.add_constraint(Constraint.le(var("x") - var("y"), 4))
        p.add_constraint(Constraint.eq(var("z"), var("x") + 2))
        return p

    def test_matches_sequential_minimize(self):
        objectives = [
            var("x"),
            var("x") * -1,
            var("y"),
            var("z"),
            var("x") + var("y") * 3,
        ]
        batched = self._diamond().batch_minimize(objectives)
        for obj, got in zip(objectives, batched):
            want = self._diamond().minimize(obj)
            assert got.status is want.status
            assert got.value == want.value
            assert got.assignment == want.assignment

    def test_shares_cache_lines_with_minimize(self):
        from repro.poly.cache import clear_solver_caches, solver_cache_stats

        from tests.poly._counts import hits_misses

        clear_solver_caches()
        self._diamond().minimize(var("x"))
        assert hits_misses("ilp") == (0, 1)
        self._diamond().batch_minimize([var("x"), var("y")])
        # x hits the entry minimize stored; only y misses.
        assert hits_misses("ilp") == (1, 2)
        self._diamond().minimize(var("y"))
        assert solver_cache_stats()["ilp"]["hits"] == 2
        clear_solver_caches()

    def test_infeasible_and_unbounded_members(self):
        p = IlpProblem()
        p.add_constraint(Constraint.ge(var("x"), 3))
        p.add_constraint(Constraint.le(var("x"), 1))
        rs = p.batch_minimize([var("x"), var("x") * -1])
        assert all(r.status is IlpStatus.INFEASIBLE for r in rs)
        q = IlpProblem([Constraint.ge(var("x"), 0)])
        rs = q.batch_minimize([var("x"), var("x") * -1])
        assert rs[0].status is IlpStatus.OPTIMAL and rs[0].value == 0
        assert rs[1].status is IlpStatus.UNBOUNDED

    def test_assignments_are_isolated_copies(self):
        rs = self._diamond().batch_minimize([var("x"), var("x")])
        rs[0].assignment["x"] = Fraction(777)
        assert rs[1].assignment["x"] != Fraction(777)

    def test_empty_batch(self):
        assert self._diamond().batch_minimize([]) == []

    def test_rational_batch(self):
        # Equalities are not tightened: x == y/2, y == 1 -> x = 1/2.
        p = IlpProblem(
            [
                Constraint.eq(var("x") * 2 - var("y"), 0),
                Constraint.eq(var("y"), 1),
            ]
        )
        batched = p.batch_minimize([var("x"), var("x") * -1], integer=False)
        assert batched[0].value == Fraction(1, 2)
        assert -batched[1].value == Fraction(1, 2)


class TestPresolveOnce:
    """A problem presolves its system once, whoever poses the objectives."""

    def _counted(self, monkeypatch):
        from repro.poly import ilp
        from repro.poly.cache import clear_solver_caches

        calls = []
        real = ilp._presolve

        def counting(system, integer=True):
            calls.append(len(system[1]))  # one number tuple per constraint
            return real(system, integer)

        monkeypatch.setattr(ilp, "_presolve", counting)
        clear_solver_caches()
        return calls

    def test_one_presolve_serves_every_objective(self, monkeypatch):
        calls = self._counted(monkeypatch)
        p = TestBatchMinimize()._diamond()
        assert p.minimize(var("x")).value == -1
        assert p.maximize(var("z")).value == 8
        p.batch_minimize([var("y"), var("x") + var("y")])
        assert p.is_feasible()
        assert calls == [5]

    def test_a_new_constraint_drops_it(self, monkeypatch):
        calls = self._counted(monkeypatch)
        p = TestBatchMinimize()._diamond()
        assert p.minimize(var("z")).value == 1
        p.add_constraint(Constraint.ge(var("x"), 2))
        assert p.minimize(var("z")).value == 4
        p.add_constraints([Constraint.eq(var("y"), var("x"))])
        assert p.maximize(var("z")).value == 6
        assert calls == [5, 6, 7]


# -- constant objectives --------------------------------------------------------


def _watch_constants(monkeypatch):
    """Hold every constant-objective answer against a fresh, uncached
    ``_solve_folded`` of its fold; returns the answers checked, counted by
    ``(integer, status)``."""
    from collections import Counter

    from repro.poly import ilp

    solve, constant = ilp._solve_folded, ilp._constant
    inputs = {}
    checked = Counter()

    def remembered(folded, objective, back, integer):
        got = solve(folded, objective, back, integer)
        inputs[id(got)] = (got, folded, back, integer)  # alive: no id reuse
        return got

    def compared(witness, value):
        got = constant(witness, value)
        source, folded, back, integer = inputs[id(witness)]
        assert source is witness
        fresh = solve(folded, ({}, value), back, integer)
        assert (got.status, got.value, got.assignment) == (
            fresh.status, fresh.value, fresh.assignment
        )
        checked[integer, got.status] += 1
        return got

    monkeypatch.setattr(ilp, "_solve_folded", remembered)
    monkeypatch.setattr(ilp, "_constant", compared)
    return checked


def _fixing_member(rng):
    """A system over ``x*`` (boxed, so branch and bound ends) with ``y*``
    fixed by unit equalities, and an objective the presolve turns into a
    constant: a combination of the fixing rows, plus a constant.  Returns
    the box, the ``y*`` replacements, the constraints and the objective."""
    box = {
        f"x{i}": (rng.randint(-2, 0), rng.randint(0, 3))
        for i in range(rng.randint(1, 3))
    }
    cons = []
    for x, (lo, hi) in box.items():
        cons += [Constraint.ge(var(x), lo), Constraint.le(var(x), hi)]
    fixed = {}
    objective = AffineExpr.constant(rng.randint(-5, 5))
    for j in range(rng.randint(1, 2)):
        rest = AffineExpr(
            {x: rng.randint(-2, 2) for x in box if rng.random() < 0.7},
            rng.randint(-3, 3),
        )
        fixed[f"y{j}"] = rest
        cons.append(Constraint.eq(var(f"y{j}"), rest))
        objective = objective + (var(f"y{j}") - rest) * rng.randint(-2, 2)
    for _ in range(rng.randint(0, 2)):
        # Coupling rows: some systems lose every (integer) point.
        coeffs = {n: rng.randint(-3, 3) for n in [*box, *fixed]}
        row = AffineExpr(coeffs, rng.randint(-4, 4))
        cons.append(Constraint(row, rng.random() < 0.3))
    return box, fixed, cons, objective


def _has_integer_point(box, fixed, cons):
    """Some integer point of the box, ``y*`` as fixed, satisfies ``cons``."""
    import itertools

    for values in itertools.product(*[range(lo, hi + 1) for lo, hi in box.values()]):
        point = dict(zip(box, values))
        point.update({y: rest.evaluate(point) for y, rest in fixed.items()})
        if all(c.satisfied(point) for c in cons):
            return True
    return False


class TestFeasibilityWitness:
    """An objective the presolve leaves without ranks is answered off the
    problem's one feasibility witness -- exactly what solving it would
    answer."""

    def test_compiles_answer_constants_as_a_fresh_solve(self, monkeypatch):
        from repro.core import diskcache
        from repro.core.compiler import build
        from repro.graph import compile_network, network
        from repro.ir import lower
        from repro.poly.cache import clear_solver_caches
        from repro.sched.deps import compute_dependences

        from tests.core.test_golden_programs import GOLDEN

        checked = _watch_constants(monkeypatch)
        diskcache.set_disk_cache_enabled(False)
        for name in sorted(GOLDEN):
            clear_solver_caches()
            build(GOLDEN[name][0](), name)
            # The dependence questions as the ILP oracle poses them: a
            # build answers its separable pairs' in closed form.
            for dep in compute_dependences(lower(GOLDEN[name][0](), name), prune=False):
                dep.distance_bounds()
        clear_solver_caches()
        compile_network(network("mobilenetv2_tiny"))
        clear_solver_caches()
        assert checked[True, IlpStatus.OPTIMAL] >= 100, checked

    @pytest.mark.parametrize("integer", [True, False])
    def test_seeded_corpus_answers_constants_as_a_fresh_solve(
        self, integer, monkeypatch
    ):
        import random

        from repro.poly.cache import set_solver_cache_enabled

        checked = _watch_constants(monkeypatch)
        rng = random.Random(39)
        set_solver_cache_enabled(False)
        try:
            for _ in range(300):
                box, fixed, cons, objective = _fixing_member(rng)
                got = IlpProblem(cons).minimize(objective, integer=integer)
                if integer:
                    assert (got.status is IlpStatus.OPTIMAL) is _has_integer_point(
                        box, fixed, cons
                    ), cons
                if got.status is IlpStatus.OPTIMAL:
                    assert got.value == objective.evaluate(got.assignment)
                    assert all(c.satisfied(got.assignment) for c in cons)
        finally:
            set_solver_cache_enabled(True)
        for status in (IlpStatus.OPTIMAL, IlpStatus.INFEASIBLE):
            assert checked[integer, status] >= 30, checked

    @pytest.mark.parametrize("integer", [True, False])
    def test_infeasible_systems_answer_infeasible(self, integer, monkeypatch):
        from repro.poly.cache import clear_solver_caches

        checked = _watch_constants(monkeypatch)
        clear_solver_caches()
        empty = [  # folded away: x in [3, 1]
            Constraint.ge(var("x"), 3), Constraint.le(var("x"), 1),
        ]
        coupled = [  # no point at all: x + y >= 5 in the unit box
            Constraint.ge(var("x") + var("y"), 5),
            Constraint.ge(var("x"), 0), Constraint.le(var("x"), 1),
            Constraint.ge(var("y"), 0), Constraint.le(var("y"), 1),
        ]
        for cons in (empty, coupled):
            p = IlpProblem(cons)
            constant = p.minimize(AffineExpr.constant(7), integer)
            assert constant.status is IlpStatus.INFEASIBLE
            assert not p.is_feasible(integer)
        # A rational point but no integral one: 2x = 2y + 1.
        p = IlpProblem([Constraint.eq(var("x") * 2, var("y") * 2 + 1),
                        Constraint.ge(var("y"), 0), Constraint.le(var("y"), 3)])
        assert p.is_feasible(integer) is (not integer)
        assert p.is_feasible(not integer) is integer  # a witness per integrality
        assert checked[integer, IlpStatus.INFEASIBLE] == 4 + integer
        clear_solver_caches()

    def test_a_bound_before_the_emptiness_test_answers_as_after(self):
        from repro.ir import lower
        from repro.poly.cache import set_solver_cache_enabled
        from repro.sched.deps import compute_dependences

        from tests.core.test_golden_programs import GOLDEN

        compared = 0
        set_solver_cache_enabled(False)
        try:
            for name in sorted(GOLDEN):
                for d in compute_dependences(lower(GOLDEN[name][0](), name)):
                    n = min(len(d.src.iter_names), len(d.dst.iter_names))
                    deltas = [d._delta(pos) for pos in range(n)]
                    answers = []
                    for bound_first in (True, False):
                        p = IlpProblem(d.relation.constraints)
                        if bound_first:
                            bounds = [p.minimize(e) for e in deltas]
                        empty = p.minimize(AffineExpr.constant(0))
                        if not bound_first:
                            bounds = [p.minimize(e) for e in deltas]
                        answers.append([
                            (r.status, r.value, r.assignment) for r in [empty, *bounds]
                        ])
                    assert answers[0] == answers[1], d
                    compared += 1
        finally:
            set_solver_cache_enabled(True)
        assert compared >= 50
