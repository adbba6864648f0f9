"""The bounded integer-tableau simplex against the ``Fraction`` reference.

``repro.poly.ilp`` keeps bounds out of its tableau (a bound shifts a
column; only rows that couple variables are rows), so it does not walk
the reference's vertices and need not stop on the same one.  What it
promises instead, and what is held here:

- **status and optimal value** of every solve equal the reference's;
- the assignment is a **certificate**: a point that satisfies every
  constraint and attains the value (integral for an integer solve), and a
  pure function of the input;
- the **work is bounded**: exact pivot and tableau-row counts per pinned
  compile -- a regression guard that needs no clock.

Three angles:

(i)   every solve issued while compiling four real workloads;
(ii)  a seeded corpus of small LPs built to hit the awkward paths, plus
      branch and bound over the members it must terminate on;
(iii) the solver-cache hit/miss counts of those four compiles are
      pinned: the compiler still asks the same questions, and the
      name-free memo keys (``repro.poly.cache``) still fold them into the
      same distinct problems.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.graph import compile_network, network
from repro.graph.subgraphs import paper_subgraphs
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.poly import ilp
from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.cache import RankSpace, clear_solver_caches, solver_cache_stats
from repro.poly.fm import rows_of
from repro.poly.ilp import IlpProblem, IlpResult, IlpStatus

from tests.poly import _reference_simplex as reference
from tests.poly._reference_simplex import raw as _raw


def _same_optimum(got, want):
    assert got.status is want.status
    assert got.value == want.value


def _certified(result, constraints, objective, integer=False):
    """``result.assignment`` proves ``result.value``: feasible, attains it."""
    if result.status is not IlpStatus.OPTIMAL:
        return
    point = result.assignment
    assert all(c.satisfied(point) for c in constraints), (constraints, point)
    assert objective.evaluate(point) == result.value
    if integer:
        assert all(v.denominator == 1 for v in point.values()), point


def _infeasible(constraints, integer):
    """``constraints`` have no point (no integral one for ``integer``): the
    reference finds no rational point, or one variable's own constraints
    leave no integer between its reference minimum and maximum."""
    names = sorted({n for c in constraints for n in c.expr.coeffs})
    zero = AffineExpr({}, 0)
    if reference._simplex_solve(constraints, zero, names).status is IlpStatus.INFEASIBLE:
        return True
    for name in names if integer else []:
        own = [c for c in constraints if list(c.expr.coeffs) == [name]]
        low = reference._simplex_solve(own, var(name), [name])
        high = reference._simplex_solve(own, -var(name), [name])
        if IlpStatus.OPTIMAL is low.status is high.status:
            if math.ceil(low.value) > math.floor(-high.value):
                return True
    return False


def _solve_presolved(constraints, objective, integer):
    """What a problem whose presolve left ``constraints`` answers, under
    their names: the row fold and solve on their rank rows, decoded."""
    space, (rows, ranks, numbers) = RankSpace(constraints).with_expr(objective)
    folded = ilp._fold_bounds(rows_of(rows), integer)
    got = ilp._solve_folded(folded, (dict(zip(ranks, numbers)), numbers[-1]), [], integer)
    assignment = {space.names[r]: v for r, v in got.assignment.items()}
    return IlpResult(got.status, got.value, assignment)


def _boxed_names(constraints):
    """The variables the row fold bounds on both sides."""
    space = RankSpace(constraints)
    lo, hi, _ = ilp._fold_bounds(rows_of(space.rows), False) or ({}, {}, [])
    return {space.names[r] for r in lo.keys() & hi.keys()}


def _ilp_work():
    stats = solver_cache_stats()["ilp"]
    return stats["pivots"], stats["rows"]


# -- (i) + (iii): real compiles ------------------------------------------------


def _conv2d_16x32():
    d = placeholder((1, 16, 32, 32), "fp16", name="D")
    w = placeholder((16, 16, 3, 3), "fp16", name="W")
    return ops.conv2d(d, w, stride=(1, 1), padding=(1, 1), name="out")


def _subgraph(index):
    return next(s for s in paper_subgraphs() if s.index == index).build()


def _matmul_256():
    a = placeholder((256, 256), "fp16", name="A")
    b = placeholder((256, 256), "fp16", name="B")
    return ops.matmul(a, b, name="out")


def _mirrored(make):
    """``make``'s outputs beside a mirrored copy of the last, whose
    dependence poses the ILP (``tests.sched.test_scheduler.mirrored``)."""
    from tests.sched.test_scheduler import mirrored

    return lambda: mirrored(make())


def _build(make):
    return lambda: build(make(), "equiv", options=AkgOptions(emit_trace=True))


# name -> (compile, simplex solves, (pivots, tableau rows) summed over them,
# (hits, misses) of the ilp, fm, extent and footprint tables).  The split
# into hits and misses is that of the name-free keys (with name-carrying
# keys subgraph5 read ilp 373/164, fm 223/244).  subgraph2's systems have
# no coupling row and never reach the simplex.  The hit/miss pins were
# re-recorded when the footprint table went in front of ``compose`` (every
# repeat of a footprint question used to reach fm and extent as hits --
# subgraph2 read fm 270/66, extent 1188/48 -- and band row extents were
# posed three times per fusion: ilp hits 723 -> 627), and again when
# extent and footprint misses began to solve their own integer rows (fm
# misses 23 / 27 / 30 / 84 -> 0 / 1 / 0 / 0, extent 11/19, 122/21, 84/24,
# 89/68 -> the pins); misses and simplex solves may only fall.  They fell
# again when band row extents were posed once per front-end (ilp hits
# subgraph2 627 -> 587, subgraph5 410 -> 386), a self pair of one
# injective access stopped posing its emptiness tests (ilp 71/52,
# 546/215, 587/30, 386/79 -> the pins) and a plan began to look each
# distinct footprint up once (footprint hits 1, 34, 282, 64 -> the pins):
# subgraph2 asks 6 footprint questions, one per planned size vector.  Ilp
# hits fell once more when each dependence system was posed once (one
# problem per dependence, equal access pairs answered once, distance
# bounds asked once and read by the scheduler's identity rows: 71, 354,
# 507, 502 -> 56, 101, 170, 301; misses, solves, pivots and rows
# unchanged).  Then each question went where it is already answered: a
# constant objective (a distance the presolve fixes) reads its fold's one
# feasibility witness, dependences sharing a problem share its distance
# answers, and band row extents and AST loop bounds are the iteration
# box's closed form: simplex solves 27 / 27 / 0 / 67 -> 3 / 7 / 0 / 11,
# work (27, 270), (40, 243), (67, 659) -> the pins, ilp (56, 48),
# (101, 75), (170, 26), (301, 207) -> the pins.  Pivots and rows are exact
# and may only fall too: with one row per bound and one artificial per row
# the same solves took 891 / 726 / 0 / 2,151 pivots over 783 / 630 / 0 /
# 1,871 rows.  Then separable access pairs were answered in closed form,
# and a relation's problem posed only for a Pluto row: simplex solves
# 3 / 7 / 0 / 11 -> 0 / 5 / 0 / 0, work (3, 30), (16, 67), (11, 107) ->
# the pins, ilp (0, 40), (53, 67), (162, 18), (109, 191) -> the pins.  A
# cold conv2d_16x32, subgraph2 or mobilenetv2_tiny build poses no ILP at
# all; subgraph5's depthwise read is its one coupled pair.  A matmul
# beside its mirrored copy (``tests.sched.test_scheduler.mirrored``)
# poses the ILP from dependence analysis and Pluto rows.  Then a live-out
# statement tiled by identity band rows read its per-tile extents and
# footprints off its tile window: extent (7, 7), (110, 14), (80, 4),
# (65, 35), (3, 5) and footprint (0, 4), (5, 5), (0, 6), (8, 16), (0, 15)
# -> the pins.  Only subgraph5's fused producer still asks either table
# (its footprint hit is a second access with the same key in one plan).
COMPILES = {
    "conv2d_16x32": (
        _build(_conv2d_16x32), 0, (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)
    ),
    "subgraph5": (
        _build(lambda: _subgraph(5)), 5, (14, 50), (0, 9), (0, 1), (8, 4), (1, 1)
    ),
    "subgraph2": (
        _build(lambda: _subgraph(2)), 0, (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)
    ),
    "mobilenetv2_tiny": (
        lambda: compile_network(network("mobilenetv2_tiny")),
        0,
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 0),
        (0, 0),
    ),
    "matmul_256_mirrored": (
        _build(_mirrored(_matmul_256)), 1, (50, 66), (2, 13), (0, 0), (0, 0), (0, 0)
    ),
}

#: The compiles above that pose no ILP query: every dependence separable.
NO_ILP = {"conv2d_16x32", "subgraph2", "mobilenetv2_tiny"}

#: The compiles above without a fused producer: every statement has a tile
#: window, so they pose no extent or footprint query.
WINDOWED = {"conv2d_16x32", "subgraph2", "mobilenetv2_tiny", "matmul_256_mirrored"}


@pytest.mark.parametrize("name", sorted(COMPILES))
def test_compile_time_solves_equal_the_reference(name, monkeypatch):
    compile_it, n_solves, work, *pins = COMPILES[name]
    diskcache.set_disk_cache_enabled(False)
    simplex, fold, front_end = ilp._simplex_solve, ilp._fold_bounds, ilp._solve_folded
    constant = ilp._constant
    solves = []
    sources = {}
    answered = {}
    read_off = []

    def cross_checked(lo, hi, rows, objective, names):
        got = simplex(lo, hi, rows, objective, names)
        _same_optimum(got, reference.solve_folded(lo, hi, rows, objective, names))
        solves.append(got.status)
        return got

    def remembered(rows, integer):
        # Every fold is kept beside the presolved rows it came from (and
        # alive, so no id is reused); a fold to ``None`` must be right that
        # the system is infeasible.  Rows are read as constraints over
        # their ranks.
        folded = fold(rows, integer)
        constraints = reference.named(rows)
        if folded is None:
            assert _infeasible(constraints, integer), constraints
        else:
            sources[id(folded)] = (folded, constraints)
        return folded

    def certified(folded, objective, back, integer):
        # Every uncached answer, read off a box or found by the simplex,
        # rational or branched: the presolved system, single-variable rows
        # and all, is what it answers.
        got = front_end(folded, objective, back, integer)
        constraints = None
        if folded is None:
            assert got.status is IlpStatus.INFEASIBLE
        else:
            source, constraints = sources[id(folded)]
            assert source is folded
            _certified(got, constraints, AffineExpr(*objective), integer)
        answered[id(got)] = (got, constraints, integer)  # alive: no id reuse
        return got

    def certified_constant(witness, value):
        # A constant objective's answer is read off the zero objective's
        # solve of its fold, certified above: it keeps that status and
        # point, which is feasible and attains any constant.
        got = constant(witness, value)
        source, constraints, integer = answered[id(witness)]
        assert source is witness
        assert (got.status, got.assignment) == (witness.status, witness.assignment)
        if constraints is not None:
            _certified(got, constraints, AffineExpr({}, value), integer)
        read_off.append(got.status)
        return got

    monkeypatch.setattr(ilp, "_simplex_solve", cross_checked)
    monkeypatch.setattr(ilp, "_fold_bounds", remembered)
    monkeypatch.setattr(ilp, "_solve_folded", certified)
    monkeypatch.setattr(ilp, "_constant", certified_constant)
    clear_solver_caches()
    compile_it()
    # Every compile that poses the ILP asks constant objectives.
    assert bool(read_off) == (name not in NO_ILP)
    assert len(solves) == n_solves
    assert _ilp_work() == work
    stats = solver_cache_stats()
    assert len(pins) == len(stats)
    for table, pin in zip(("ilp", "fm", "extent", "footprint"), pins):
        assert (stats[table]["hits"], stats[table]["misses"]) == pin, table
    # The tables were cold, so every kernel must have real solves left to
    # compare -- a memo that absorbed them all would pass vacuously.  Only
    # ``fm`` may be unreached: extent and footprint misses solve their own
    # rows, and subgraph5's fused stencil producer is its one projection.
    # So may ``ilp`` by a compile of ``NO_ILP``, and extent and footprint
    # by a compile of ``WINDOWED``, whose pins (0, 0) say so.
    for table in ("ilp", "extent", "footprint"):
        unreached = NO_ILP if table == "ilp" else WINDOWED
        assert stats[table]["misses"] > 0 or name in unreached, table


# -- (ii): seeded corpus -------------------------------------------------------


def _expr(rng, names, span=3, const=6, denominators=(1,)):
    while True:
        coeffs = {
            n: Fraction(rng.randint(-span, span), rng.choice(denominators))
            for n in names
            if rng.random() < 0.75
        }
        if any(coeffs.values()):  # never a constant (trivially true/false) row
            return AffineExpr(
                coeffs, Fraction(rng.randint(-const, const), rng.choice(denominators))
            )


def _box(rng, names):
    out = []
    for n in names:
        out.append(Constraint.ge(var(n), rng.randint(-4, 0)))
        out.append(Constraint.le(var(n), rng.randint(0, 5)))
    return out


def _through(expr, point):
    """``expr`` shifted so that it vanishes at ``point``."""
    return expr - expr.evaluate(point)


def _boxed(rng, names):
    extra = [
        Constraint(_expr(rng, names), rng.random() < 0.3)
        for _ in range(rng.randint(0, 3))
    ]
    return _box(rng, names) + extra


def _open(rng, names):
    return [
        Constraint(_expr(rng, names), rng.random() < 0.2)
        for _ in range(rng.randint(1, 5))
    ]


def _degenerate(rng, names):
    # Every constraint is tight at one point: ratio-test ties on each
    # pivot, and equalities whose artificials sit at zero after phase 1
    # (drive-out, with pivots of either sign).
    point = {n: rng.randint(-2, 2) for n in names}
    cons = [
        Constraint(_through(_expr(rng, names), point), rng.random() < 0.4)
        for _ in range(rng.randint(2, 6))
    ]
    return cons + (_box(rng, names) if rng.random() < 0.5 else [])


def _redundant(rng, names):
    # Linearly dependent equalities: an artificial stays basic at zero on
    # an all-zero row and must be harmless in phase 2.
    point = {n: rng.randint(-2, 2) for n in names}
    e1 = _through(_expr(rng, names), point)
    e2 = _through(_expr(rng, names), point)
    cons = [_raw(e1, True), _raw(e2, True), _raw(e1 + e2, True), _raw(e1 * 2, True)]
    rng.shuffle(cons)
    return cons + _box(rng, names)


def _rational(rng, names):
    # Fractional bounds and unnormalised rows: the shift must be
    # substituted before denominators are cleared.
    cons = [
        _raw(_expr(rng, names, denominators=(1, 2, 3, 5)), rng.random() < 0.3)
        for _ in range(rng.randint(1, 4))
    ]
    return cons + _box(rng, names)


def _traffic(rng, names):
    # The shape the compiler poses: a box on nearly every variable -- some
    # keep only one side, some neither -- and one or two rows that couple
    # a few of them.
    cons = []
    for n in names:
        sides = rng.choice(("both",) * 6 + ("lo", "hi", "none"))
        if sides in ("both", "lo"):
            cons.append(Constraint.ge(var(n), rng.randint(-4, 0)))
        if sides in ("both", "hi"):
            cons.append(Constraint.le(var(n), rng.randint(0, 15)))
    for _ in range(rng.randint(1, 2)):
        coupled = rng.sample(names, min(len(names), rng.randint(2, 4)))
        cons.append(Constraint(_expr(rng, coupled, const=12), rng.random() < 0.2))
    rng.shuffle(cons)
    return cons


# family -> the most variables it is posed over
FAMILIES = {
    _boxed: 4, _open: 4, _degenerate: 4, _redundant: 4, _rational: 4, _traffic: 8
}
PER_FAMILY = 80


def _watch_paths(monkeypatch):
    """Count the paths the corpus was built for as the solver takes them."""
    seen = Counter()
    driving_out = []
    real_pivot = ilp._pivot
    real_drive_out = ilp._drive_out_artificials
    real_solve = ilp._simplex_solve

    def watch_pivot(tableau, basis, row, col):
        pivot, rhs = tableau[row][col], tableau[row][-1]
        seen["negative_pivot"] += pivot < 0
        if not driving_out:  # a ratio-test pivot: did another row tie the winner?
            seen["tie"] += any(
                r is not tableau[row] and r[col] > 0 and r[-1] * pivot == rhs * r[col]
                for r in tableau
            )
        real_pivot(tableau, basis, row, col)

    def watch_drive_out(tableau, basis, n_struct):
        seen["phase_1"] += 1  # reached only past a feasible phase 1
        driving_out.append(True)
        real_drive_out(tableau, basis, n_struct)
        driving_out.pop()
        seen["artificial_left_basic"] += any(col >= n_struct for col in basis)

    def watch_solve(lo, hi, rows, objective, names):
        seen["simplex"] += 1
        for n in names:
            sides = (n in lo, n in hi)
            seen[{(True, True): "boxed", (True, False): "lo_only",
                  (False, True): "hi_only", (False, False): "free"}[sides]] += 1
        seen["fractional_shift"] += any(
            b.denominator != 1 for b in (*lo.values(), *hi.values())
        )
        return real_solve(lo, hi, rows, objective, names)

    monkeypatch.setattr(ilp, "_pivot", watch_pivot)
    monkeypatch.setattr(ilp, "_drive_out_artificials", watch_drive_out)
    monkeypatch.setattr(ilp, "_simplex_solve", watch_solve)
    return seen


def _check_corpus(seed, monkeypatch):
    """Every member against the reference; returns the statuses seen."""
    rng = random.Random(seed)
    statuses = Counter()
    production = ilp._simplex_solve
    for family, most in FAMILIES.items():
        for _ in range(PER_FAMILY):
            names = [f"x{i}" for i in range(rng.randint(1, most))]
            constraints = family(rng, names)
            denominators = (1, 2, 3, 7) if rng.random() < 0.3 else (1,)
            objective = _expr(rng, names, denominators=denominators)
            where = (family.__name__, constraints, objective)

            got = _solve_presolved(constraints, objective, False)
            want = reference._simplex_solve(constraints, objective, names)
            _same_optimum(got, want)
            _certified(got, constraints, objective)
            again = _solve_presolved(constraints, objective, False)
            assert again.assignment == got.assignment, where
            statuses[got.status] += 1

            if _boxed_names(constraints).issuperset(names):
                # A box bounds the search: branch and bound must end, and
                # end where it ends over the reference's relaxations.
                got = _solve_presolved(constraints, objective, True)
                with monkeypatch.context() as patched:
                    patched.setattr(ilp, "_simplex_solve", reference.solve_folded)
                    want = _solve_presolved(constraints, objective, True)
                assert ilp._simplex_solve is production
                _same_optimum(got, want)
                _certified(got, constraints, objective, integer=True)
                statuses["integer"] += 1
    return statuses


def test_seeded_corpus_equals_the_reference(monkeypatch):
    seen = _watch_paths(monkeypatch)
    before = _ilp_work()
    statuses = _check_corpus(20210621, monkeypatch)
    pivots, rows = (after - b for after, b in zip(_ilp_work(), before))

    # The corpus is only evidence if it reaches the paths it was built for.
    assert all(statuses[status] >= 20 for status in IlpStatus), statuses
    assert statuses["integer"] >= 100, statuses
    for path in (
        "tie", "negative_pivot", "artificial_left_basic",  # as the reference has
        "phase_1", "boxed", "lo_only", "hi_only", "free", "fractional_shift",
    ):
        assert seen[path] >= 10, (path, seen)
    # Most solves start feasible at the shifted origin and skip phase 1.
    assert seen["phase_1"] < seen["simplex"]
    assert pivots > 0 and rows > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20))
def test_seeded_corpus_sweep(seed, monkeypatch):
    _check_corpus(seed, monkeypatch)


# -- rational solves through the presolve ------------------------------------------


def _unit_substituted(rng, names):
    # Unit equalities the presolve substitutes, and rows that may gain a
    # common factor once it has (``x = y`` turns ``x + y >= 1`` into
    # ``2y >= 1``, whose constant an integer solve floors).
    cons = _box(rng, names)
    for _ in range(rng.randint(1, 2)):
        a, b = rng.sample(names, 2)
        cons.append(Constraint.eq(var(a), var(b) + rng.randint(-2, 2)))
        if rng.random() < 0.7:
            pair, bound = var(a) + var(b), rng.randint(-1, 5)
            side = Constraint.ge if rng.random() < 0.5 else Constraint.le
            cons.append(side(pair, bound))
    if rng.random() < 0.4:
        cons.append(Constraint(_expr(rng, names), rng.random() < 0.2))
    rng.shuffle(cons)
    return cons


def _floored_rational(constraints, objective):
    """The rational solve as it was before the presolve took the solve's
    integrality: rows floored as for an integer solve."""
    _, (system, ranks, numbers) = RankSpace(constraints).with_expr(objective)
    rows, back = ilp._presolve(system, True)
    objective = ilp._substituted(dict(zip(ranks, numbers)), numbers[-1], back)
    return ilp._solve_folded(ilp._fold_bounds(rows, False), objective, back, False)


def test_presolved_rational_solves_equal_the_reference():
    """A rational solve through a whole problem, presolve included,
    answers what the reference answers on the constraints as given.  The
    presolve used to floor a substituted inequality's constant for a
    rational solve too, so ``x = y, x + y >= 1, x + y <= 1`` -- which
    ``x = y = 1/2`` satisfies -- came back infeasible."""
    x, y = var("x"), var("y")
    cons = [Constraint.eq(x, y), Constraint.ge(x + y, 1), Constraint.le(x + y, 1)]
    clear_solver_caches()
    got = IlpProblem(cons).minimize(x, integer=False)
    _same_optimum(got, reference._simplex_solve(cons, x, ["x", "y"]))
    assert (got.status, got.value) == (IlpStatus.OPTIMAL, Fraction(1, 2))
    assert _floored_rational(cons, x).status is IlpStatus.INFEASIBLE

    rng = random.Random(20261018)
    statuses = Counter()
    for _ in range(PER_FAMILY * 2):
        names = [f"x{i}" for i in range(rng.randint(2, 4))]
        constraints = _unit_substituted(rng, names)
        objective = _expr(rng, names)
        got = IlpProblem(constraints).minimize(objective, integer=False)
        want = reference._simplex_solve(constraints, objective, names)
        _same_optimum(got, want)
        _certified(got, constraints, objective)
        floored = _floored_rational(constraints, objective)
        statuses["floored_differs"] += (floored.status, floored.value) != (
            want.status, want.value
        )
        statuses[got.status] += 1
    # The corpus is only evidence if the old presolve got some of it wrong.
    assert statuses["floored_differs"] >= 10, statuses
    assert statuses[IlpStatus.OPTIMAL] >= 20 and statuses[IlpStatus.INFEASIBLE] >= 5, statuses


# -- branch and bound tightens columns -------------------------------------------


def _relaxation_sizes(monkeypatch):
    """Tableau rows of every relaxation ``_branch_and_bound`` solves."""
    sizes = []
    production = ilp._simplex_solve

    def sized(*args):
        before = _ilp_work()[1]
        got = production(*args)
        sizes.append(_ilp_work()[1] - before)
        return got

    monkeypatch.setattr(ilp, "_simplex_solve", sized)
    return sizes


def test_branching_bounds_leave_the_row_count_unchanged(monkeypatch):
    sizes = _relaxation_sizes(monkeypatch)
    x, y = var("x"), var("y")
    problem = IlpProblem(
        [
            Constraint.ge(x, 0), Constraint.le(x, 9),
            Constraint.ge(y, 0), Constraint.le(y, 9),
            Constraint.le(x * 2 + y * 3, 7),
            Constraint.le(x * 4 - y * 2, 5),
        ]
    )
    clear_solver_caches()
    result = problem.maximize(x * 3 + y * 4, integer=True)
    best = max(
        3 * a + 4 * b
        for a in range(10)
        for b in range(10)
        if 2 * a + 3 * b <= 7 and 4 * a - 2 * b <= 5
    )
    assert (result.status, result.value) == (IlpStatus.OPTIMAL, best)
    # Two coupling rows and one ``p <= hi - lo`` row per variable, at the
    # root and at every node under it.
    assert len(sizes) > 2 and set(sizes) == {4}


def test_branching_a_one_sided_variable_adds_at_most_its_own_row(monkeypatch):
    sizes = _relaxation_sizes(monkeypatch)
    x, y = var("x"), var("y")
    problem = IlpProblem(
        [Constraint.ge(x, 0), Constraint.ge(y, 0), Constraint.le(x * 2 + y * 3, 7)]
    )
    clear_solver_caches()
    result = problem.maximize(x * 3 + y * 4, integer=True)
    assert (result.status, result.value) == (IlpStatus.OPTIMAL, 10)
    assert len(sizes) > 2 and sizes[0] == 1 and max(sizes) <= 3
