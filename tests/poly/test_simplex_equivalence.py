"""The integer-tableau simplex against the ``Fraction`` reference.

``repro.poly.ilp`` promises more than equal optima: it takes the *same
pivots* as the textbook ``Fraction`` tableau it replaced (same column
layout, Bland entering rule, ratio-test tie-break, drive-out order), so
that every LP lands on the same vertex and every schedule and emitted
program stays byte-identical.  Three angles:

(i)   every simplex solve issued while compiling four real workloads
      equals the reference on status, value and full assignment;
(ii)  a seeded corpus of small LPs built to hit the awkward paths equals
      the reference *and* replays its pivot sequence exactly;
(iii) the solver-cache hit/miss counts of those four compiles are
      pinned: the compiler still asks the same questions, and the
      name-free memo keys (``repro.poly.cache``) still fold them into the
      same distinct problems.
"""

import random
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
from repro.poly.cache import clear_solver_caches, solver_cache_stats
from repro.poly.ilp import IlpStatus

from tests.poly import _reference_simplex as reference


def _same_result(got, want):
    assert got.status is want.status
    assert got.value == want.value
    assert got.assignment == want.assignment


def _record_pivots(monkeypatch, module):
    """Log the (row, column) of every pivot ``module`` performs."""
    log = []
    real = module._pivot

    def recording(tableau, basis, row, col):
        log.append((row, col))
        real(tableau, basis, row, col)

    monkeypatch.setattr(module, "_pivot", recording)
    return log


# -- (i) + (iii): real compiles ------------------------------------------------


def _conv2d_16x32():
    d = placeholder((1, 16, 32, 32), "fp16", name="D")
    w = placeholder((16, 16, 3, 3), "fp16", name="W")
    return ops.conv2d(d, w, stride=(1, 1), padding=(1, 1), name="out")


def _subgraph(index):
    return next(s for s in paper_subgraphs() if s.index == index).build()


def _build(make):
    return lambda: build(make(), "equiv", options=AkgOptions(emit_trace=True))


# name -> (compile, simplex solves, (hits, misses) of the ilp, fm, extent and
# footprint tables).  The split into hits and misses is that of the
# name-free keys (with name-carrying keys subgraph5 read ilp 373/164, fm
# 223/244).  subgraph2's systems are all interval-shaped and never reach
# the simplex.  Re-recorded when the footprint table went in front of
# ``compose`` (every repeat of a footprint question used to reach fm and
# extent as hits -- subgraph2 read fm 270/66, extent 1188/48 -- and band
# row extents were posed three times per fusion: ilp hits 723 -> 627);
# misses and simplex solves may only fall.  subgraph2 asks 288 footprint
# questions, one distinct per probed size vector.
COMPILES = {
    "conv2d_16x32": (_build(_conv2d_16x32), 27, (71, 52), (0, 23), (11, 19), (1, 4)),
    "subgraph5": (
        _build(lambda: _subgraph(5)), 27, (410, 79), (0, 27), (122, 21), (64, 5)
    ),
    "subgraph2": (
        _build(lambda: _subgraph(2)), 0, (627, 30), (0, 30), (84, 24), (282, 6)
    ),
    "mobilenetv2_tiny": (
        lambda: compile_network(network("mobilenetv2_tiny")),
        67,
        (546, 215),
        (0, 84),
        (89, 68),
        (34, 16),
    ),
}


@pytest.mark.parametrize("name", sorted(COMPILES))
def test_compile_time_solves_equal_the_reference(name, monkeypatch):
    compile_it, n_solves, *pins = COMPILES[name]
    diskcache.set_disk_cache_enabled(False)
    new_pivots = _record_pivots(monkeypatch, ilp)
    ref_pivots = _record_pivots(monkeypatch, reference)
    production = ilp._simplex_solve
    solves = []

    def cross_checked(constraints, objective, names):
        got = production(constraints, objective, names)
        _same_result(got, reference._simplex_solve(constraints, objective, names))
        assert len(new_pivots) == len(ref_pivots)
        solves.append(got.status)
        return got

    monkeypatch.setattr(ilp, "_simplex_solve", cross_checked)
    clear_solver_caches()
    compile_it()
    assert len(solves) == n_solves
    stats = solver_cache_stats()
    assert len(pins) == len(stats)
    for table, pin in zip(("ilp", "fm", "extent", "footprint"), pins):
        assert (stats[table]["hits"], stats[table]["misses"]) == pin, table
        # The tables were cold, so every kernel must have real solves left
        # to compare -- a memo that absorbed them all would pass vacuously.
        assert stats[table]["misses"] > 0


# -- (ii): seeded corpus -------------------------------------------------------


def _raw(expr, is_equality):
    """A constraint holding ``expr`` as given: ``Constraint`` would scale
    it to coprime integers, and the solver must not depend on that."""
    c = Constraint(expr, is_equality)
    c.expr = expr
    return c


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
    cons = [
        _raw(_expr(rng, names, denominators=(1, 2, 3, 5)), rng.random() < 0.3)
        for _ in range(rng.randint(1, 4))
    ]
    return cons + _box(rng, names)


FAMILIES = (_boxed, _open, _degenerate, _redundant, _rational)
PER_FAMILY = 80


def test_seeded_corpus_replays_the_reference_pivot_sequence(monkeypatch):
    new_pivots = _record_pivots(monkeypatch, ilp)
    ref_pivots = _record_pivots(monkeypatch, reference)
    seen = {"negative_pivot": 0, "artificial_left_basic": 0, "tie": 0}
    driving_out = []

    real_pivot = ilp._pivot  # the recording wrapper

    def watch_pivot(tableau, basis, row, col):
        pivot, rhs = tableau[row][col], tableau[row][-1]
        seen["negative_pivot"] += pivot < 0
        if not driving_out:  # a ratio-test pivot: did another row tie the winner?
            seen["tie"] += any(
                r is not tableau[row] and r[col] > 0 and r[-1] * pivot == rhs * r[col]
                for r in tableau
            )
        real_pivot(tableau, basis, row, col)

    real_drive_out = ilp._drive_out_artificials

    def watch_drive_out(tableau, basis, n_struct):
        driving_out.append(True)
        real_drive_out(tableau, basis, n_struct)
        driving_out.pop()
        seen["artificial_left_basic"] += any(col >= n_struct for col in basis)

    monkeypatch.setattr(ilp, "_pivot", watch_pivot)
    monkeypatch.setattr(ilp, "_drive_out_artificials", watch_drive_out)

    rng = random.Random(20210621)
    statuses = {status: 0 for status in IlpStatus}
    for family in FAMILIES:
        for _ in range(PER_FAMILY):
            names = [f"x{i}" for i in range(rng.randint(1, 4))]
            constraints = family(rng, names)
            denominators = (1, 2, 3, 7) if rng.random() < 0.3 else (1,)
            objective = _expr(rng, names, denominators=denominators)
            del new_pivots[:], ref_pivots[:]
            got = ilp._simplex_solve(constraints, objective, names)
            want = reference._simplex_solve(constraints, objective, names)
            _same_result(got, want)
            assert new_pivots == ref_pivots, (family.__name__, constraints, objective)
            statuses[got.status] += 1

    # The corpus is only evidence if it reaches the paths it was built for.
    assert all(count >= 20 for count in statuses.values()), statuses
    assert all(count >= 10 for count in seen.values()), seen
