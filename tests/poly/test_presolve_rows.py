"""The ILP's row presolve against the named presolve it replaced.

``repro.poly.ilp`` solves a miss on its memo key's rank rows: the presolve
eliminates unit-coefficient equalities with ``fm._substitute``, and fold,
simplex and branch and bound read ``{rank: coefficient}`` rows.  The named
presolve it replaced is ``tests/poly/_reference_presolve.py``.  Held here:

- the row presolve, decoded, *is* the reference's: the same reduced
  constraints in list order, coefficient-dict order and numbers, and the
  same back-substitutions;
- ``minimize`` and ``batch_minimize`` answer what the named front end
  answers around production's solver -- status, value and assignment items
  in order -- and their status and value are those of the ``Fraction``
  reference simplex (branch and bound over its relaxations for an integer
  solve).

Two corpora: (a) every query the cold builds of the golden rows and their
verification pose, hits included, and (b) a seeded random corpus built for the presolve's
edge paths.
"""

import random
from collections import Counter

import pytest

from repro.core import diskcache
from repro.core.compiler import build
from repro.poly import ilp
from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.cache import RankSpace, clear_solver_caches
from repro.poly.fm import rows_of
from repro.poly.ilp import IlpProblem, IlpResult, IlpStatus
from repro.verify import verify_result

from tests.core.test_golden_programs import GOLDEN
from tests.poly import _reference_presolve as reference
from tests.poly import _reference_simplex


def _decoded(space, rows, back):
    """The row presolve's output under ``space``'s names."""
    name = space.names.__getitem__
    reduced = [([(name(r), x) for r, x in row[0].items()], row[1], row[2]) for row in rows]
    subs = [
        (name(r), [(name(n), x) for n, x in rest.items()], const)
        for r, rest, const in back
    ]
    return reduced, subs


def _named(constraints, back):
    """The reference's output in the shape of :func:`_decoded`."""
    reduced = [(list(c.expr.coeffs.items()), c.expr.const, c.is_equality) for c in constraints]
    subs = [(n, list(e.coeffs.items()), e.const) for n, e in back]
    return reduced, subs


def _same_presolve(constraints):
    """Returns how many eliminations the system took."""
    space = RankSpace(constraints)
    rows, back = ilp._presolve(space.rows)
    want = _named(*reference._presolve_system(constraints))
    assert _decoded(space, rows, back) == want, constraints
    return len(back)


def _reference_answer(constraints, objective, integer):
    """The named front end around production's solver: the reference
    presolve, the objective through its eliminations, production's fold
    and solve on the reduced system's rank rows, and the assignment
    extended through the eliminations by name."""
    reduced, back = reference._presolve_system(constraints)
    objective = reference._apply_back_substitutions(objective, back)
    space, (rows, ranks, numbers) = RankSpace(reduced).with_expr(objective)
    folded = ilp._fold_bounds(rows_of(rows), integer)
    got = ilp._solve_folded(folded, (dict(zip(ranks, numbers)), numbers[-1]), [], integer)
    if got.status is not IlpStatus.OPTIMAL:
        return got
    assignment = {space.names[r]: v for r, v in got.assignment.items()}
    return IlpResult(got.status, got.value, reference.back_substitute(assignment, back))


def _items(result):
    return result.status, result.value, list(result.assignment.items())


def _fraction_reference(constraints, objective, integer, monkeypatch):
    """Status and value of the reference path with the ``Fraction``
    tableau in production's simplex's place (the relaxations of branch and
    bound for an integer solve).  The presolve tightens an inequality's
    constant as ``Constraint`` does, which is exact for integer points
    only, so a rational solve is compared on the presolved system, as
    ``test_simplex_equivalence`` compares it."""
    with monkeypatch.context() as patched:
        patched.setattr(ilp, "_simplex_solve", _reference_simplex.solve_folded)
        got = _reference_answer(constraints, objective, integer)
    return got.status, got.value


def _check_query(constraints, objective, integer, got, monkeypatch, fraction=True):
    want = _reference_answer(constraints, objective, integer)
    assert _items(got) == _items(want), (constraints, objective, integer)
    if fraction:
        reference_optimum = _fraction_reference(constraints, objective, integer, monkeypatch)
        assert (got.status, got.value) == reference_optimum, (constraints, objective)


# -- (a): what the golden rows pose ----------------------------------------------


@pytest.fixture(scope="module")
def golden_queries():
    """Every ``(constraints, objective, integer)`` the cold builds of the
    golden rows (``"build"``) and their verification (``"verify"``) pose,
    with the answer they got and the phase that first posed it (each
    distinct query once; a repeat must have got the same answer)."""
    posed = {}
    phase = []
    real = IlpProblem._memoized

    def record(self, space, objective, integer, fire):
        got = real(self, space, objective, integer, fire)
        key = (tuple(self.constraints), objective, integer)
        if key in posed:
            assert _items(posed[key][0]) == _items(got), key
        else:
            posed[key] = (got, phase[-1])
        return got

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(IlpProblem, "_memoized", record)
        diskcache.set_disk_cache_enabled(False)
        try:
            for builder, *_ in GOLDEN.values():
                clear_solver_caches()
                phase.append("build")
                result = build(builder(), "presolve")
                phase.append("verify")
                verify_result(result)
        finally:
            diskcache.set_disk_cache_enabled(True)
            clear_solver_caches()
    return posed


def test_golden_presolves_equal_the_reference(golden_queries):
    systems = {constraints for constraints, _, _ in golden_queries}
    steps = Counter(_same_presolve(list(constraints)) for constraints in systems)
    # Real systems eliminate: dependence relations are mostly equalities.
    assert len(systems) > 100 and sum(n * k for n, k in steps.items()) > 100, steps


def _check_golden(golden_queries, monkeypatch, fraction_phases):
    statuses = Counter()
    for (constraints, objective, integer), (got, phase) in golden_queries.items():
        fraction = phase in fraction_phases
        _check_query(list(constraints), objective, integer, got, monkeypatch, fraction)
        statuses[got.status, phase] += 1
    return statuses


def test_golden_queries_equal_the_reference(golden_queries, monkeypatch):
    # The verifier's emptiness checks are mostly integer-infeasible, and
    # branch and bound over the reference's vertices takes ~25 s on them:
    # their status and value are compared under ``slow``.
    statuses = _check_golden(golden_queries, monkeypatch, {"build"})
    assert statuses[IlpStatus.OPTIMAL, "build"] > 100, statuses
    assert statuses[IlpStatus.INFEASIBLE, "build"] > 10, statuses
    assert statuses[IlpStatus.INFEASIBLE, "verify"] > 100, statuses


@pytest.mark.slow
def test_golden_verifier_queries_equal_the_fraction_reference(golden_queries, monkeypatch):
    _check_golden(golden_queries, monkeypatch, {"build", "verify"})


# -- (b): a seeded corpus for the edge paths ---------------------------------------


def _expr(rng, names, span=3, const=6):
    coeffs = {n: rng.randint(-span, span) for n in names if rng.random() < 0.6}
    return AffineExpr(coeffs, rng.randint(-const, const))


def _system(rng, names, boxed, seen):
    """Bounds on the variables (all of them when ``boxed``), then
    equalities -- unit and non-unit, and some with no integer point --
    and inequalities, each through one integer point unless it has none,
    duplicated constraint objects, and now and then a constant row, true
    or false."""
    point = {n: rng.randint(-2, 3) for n in names}
    cons = []
    for n in names:
        if boxed or rng.random() < 0.6:
            cons.append(Constraint.ge(var(n), rng.randint(-4, 0)))
        if boxed or rng.random() < 0.6:
            cons.append(Constraint.le(var(n), rng.randint(0, 6)))
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("unit", "unit", "nonunit", "no_point", "ineq"))
        expr = _expr(rng, names)
        if kind == "unit":
            unit = {rng.choice(names): rng.choice((1, -1))}
            expr = AffineExpr({**expr.coeffs, **unit}, expr.const)
        elif kind == "nonunit":
            expr = AffineExpr({n: 2 * c + (c > 0) for n, c in expr.coeffs.items()}, expr.const)
        if kind == "no_point":
            expr = AffineExpr({n: 2 * c for n, c in expr.coeffs.items()}, 2 * expr.const + 1)
        else:
            expr = expr - expr.evaluate(point) + (rng.randint(0, 3) if kind == "ineq" else 0)
        if not expr.coeffs:
            continue
        seen[kind] += 1
        cons.insert(rng.randint(0, len(cons)), Constraint(expr, kind != "ineq"))
    if cons and rng.random() < 0.3:
        seen["duplicate_object"] += 1
        c = rng.choice(cons)
        cons.insert(rng.randint(0, len(cons)), c)
    if rng.random() < 0.15:
        false = rng.random() < 0.5
        seen["constant_false" if false else "constant_true"] += 1
        row = Constraint.ge(AffineExpr.constant(-1 if false else 2))
        cons.insert(rng.randint(0, len(cons)), row)
    return cons


def test_seeded_corpus_equals_the_reference(monkeypatch):
    rng = random.Random(20240508)
    seen = Counter()
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 5))]
        # Branch and bound must end: an integer solve gets a box.
        integer = rng.random() < 0.5
        constraints = _system(rng, names, integer, seen)
        steps = _same_presolve(constraints)
        seen["eliminated"] += steps > 0
        seen["negative_unit"] += any(
            c.is_equality and -1 in c.expr.coeffs.values() for c in constraints
        )
        objectives = [_expr(rng, names) for _ in range(3)]
        problem = IlpProblem(constraints)
        clear_solver_caches()
        batched = problem.batch_minimize(objectives, integer=integer)
        # Branch and bound over the reference's vertices can take a minute
        # on a five-variable box with no integer point; three variables
        # keep the integer comparison to seconds.
        fraction = not integer or len(names) <= 3
        for objective, got in zip(objectives, batched):
            _check_query(constraints, objective, integer, got, monkeypatch, fraction)
            seen[got.status] += 1
            seen["fraction", integer] += fraction
        # One at a time on a fresh problem: the same answers, now as hits.
        fresh = IlpProblem(constraints)
        for objective, got in zip(objectives, batched):
            assert _items(fresh.minimize(objective, integer=integer)) == _items(got)
    # The corpus is only evidence if it reaches the paths it was built for.
    for path in (
        "unit", "nonunit", "no_point", "ineq", "duplicate_object",
        "constant_false", "constant_true", "eliminated", "negative_unit",
    ):
        assert seen[path] >= 10, (path, seen)
    assert all(seen[status] >= 20 for status in IlpStatus), seen
    assert seen["fraction", True] >= 100 and seen["fraction", False] >= 100, seen


# -- an objective over a variable no constraint mentions -----------------------------


def test_an_objective_that_widens_the_space(monkeypatch):
    """``RankSpace.with_expr`` ranks the extra variable (``a`` sorts first
    and shifts every rank), the miss is presolved on the widened rows, and
    the problem's own presolve still serves objectives in its space."""
    b, c, a = var("b"), var("c"), var("a")
    cons = [Constraint.eq(c - b, 2), Constraint.ge(b, 0), Constraint.le(b, 5)]
    problem = IlpProblem(cons)
    clear_solver_caches()
    assert _items(problem.minimize(c)) == (IlpStatus.OPTIMAL, 2, [("b", 0), ("c", 2)])
    widened = problem.minimize(c + a)
    assert widened.status is IlpStatus.UNBOUNDED
    assert _items(widened) == _items(_reference_answer(cons, c + a, True))
    assert _items(problem.maximize(c)) == (IlpStatus.OPTIMAL, 7, [("b", 5), ("c", 7)])
    # An infeasible system stays infeasible, whatever the objective names.
    empty = IlpProblem(cons + [Constraint.ge(b, 6)])
    assert empty.minimize(a - c).status is IlpStatus.INFEASIBLE
    _check_query(cons, c + a, False, problem.minimize(c + a, integer=False), monkeypatch)


def test_a_variable_only_a_replacement_mentions_is_free():
    """``x = y`` alone: the presolve eliminates ``x`` and leaves ``y`` in no
    row, bound or objective, so it is free and gets 0."""
    problem = IlpProblem([Constraint.eq(var("x"), var("y"))])
    assert problem.is_feasible()
    assert _items(problem.minimize(AffineExpr.constant(0))) == (
        IlpStatus.OPTIMAL, 0, [("y", 0), ("x", 0)]
    )
