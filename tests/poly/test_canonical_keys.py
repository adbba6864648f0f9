"""The name-free solver memo keys (``repro.poly.cache.RankSpace``).

A memo hit must be what the uncached solver would return for the caller's
own system -- same list order, same coefficient-dict order, same
assignment-key order -- whether the entry was stored under these names or
under any others with the same sort order; a renaming that permutes the
sort order must not be confused with one that keeps it.
"""

import random
from fractions import Fraction

import pytest

from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.cache import (
    FM_CACHE,
    ILP_CACHE,
    clear_solver_caches,
    solver_cache_stats,
)
from repro.poly.fm import project_onto
from repro.poly.ilp import IlpProblem, IlpStatus
from repro.poly.maps import BasicMap
from repro.poly.sets import Space
from repro.storage.promote import footprint_extents

from tests.poly._counts import hits_misses
from tests.storage.test_promote import _uncached, fused_group
from tests.tiling._reference_footprint import compose


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_solver_caches()
    yield
    clear_solver_caches()


# -- exact views: everything a caller could observe, order included -------------


def _typed(value):
    return (type(value), value)  # Fraction(2) == 2, but they are not interchangeable


def _exact_constraints(constraints):
    return [
        (
            [(n, _typed(v)) for n, v in c.expr.coeffs.items()],
            _typed(c.expr.const),
            c.is_equality,
        )
        for c in constraints
    ]


def _exact_result(result):
    return (
        result.status,
        _typed(result.value),
        [(n, _typed(v)) for n, v in result.assignment.items()],
    )


# -- (a) random systems x random renamings ---------------------------------------

NAMES = ["a", "b", "c", "d"]


def _random_expr(rng, names, span=3):
    picked = [n for n in names if rng.random() < 0.7] or [rng.choice(names)]
    rng.shuffle(picked)  # coefficient-dict order is part of the problem
    coeffs = {n: rng.choice([c for c in range(-span, span + 1) if c]) for n in picked}
    return AffineExpr(coeffs, rng.randint(-6, 6))


def _random_system(rng):
    cons = []
    for n in NAMES:
        cons.append(Constraint.ge(var(n), rng.randint(-3, 1)))
        cons.append(Constraint.le(var(n), rng.randint(2, 9)))
    for _ in range(rng.randint(1, 3)):
        cons.append(Constraint(_random_expr(rng, NAMES), rng.random() < 0.3))
    rng.shuffle(cons)
    return cons


def _renaming(rng, order_preserving):
    fresh = sorted(
        rng.sample([f"{p}{i}" for p in "qrstuvw" for i in range(4)], len(NAMES))
    )
    if not order_preserving:
        while fresh == sorted(fresh):
            rng.shuffle(fresh)
    return dict(zip(NAMES, fresh))


def _queries(rng, cons, mapping):
    """The three memoized entry points over ``cons`` renamed by ``mapping``,
    as ``(table, solve)`` with every result in its exact view."""
    keep = rng.sample(NAMES, 2)
    objective = _random_expr(rng, NAMES)
    batch = [_random_expr(rng, NAMES) for _ in range(3)]
    integer = rng.random() < 0.7

    def under(m):
        renamed = [c.rename(m) for c in cons]
        return [
            (
                FM_CACHE,
                lambda: _exact_constraints(
                    project_onto(renamed, [m[n] for n in keep])
                ),
            ),
            (
                ILP_CACHE,
                lambda: _exact_result(
                    IlpProblem(renamed).minimize(objective.rename(m), integer)
                ),
            ),
            (
                ILP_CACHE,
                lambda: [
                    _exact_result(r)
                    for r in IlpProblem(renamed).batch_minimize(
                        [o.rename(m) for o in batch], integer
                    )
                ],
            ),
        ]

    return under({n: n for n in NAMES}), under(mapping)


@pytest.mark.parametrize("order_preserving", [True, False])
def test_warm_results_equal_uncached_under_renaming(order_preserving):
    rng = random.Random(20210620 + order_preserving)
    for _ in range(60):
        cons = _random_system(rng)
        mapping = _renaming(rng, order_preserving)
        original, renamed = _queries(rng, cons, mapping)
        for (table, warm_up), (_, solve) in zip(original, renamed):
            warm_up()  # fills the tables under the original names
            misses = hits_misses(table.name)[1]
            got = solve()
            assert got == _uncached(solve)
            if order_preserving:
                assert hits_misses(table.name)[1] == misses, "an order-preserving twin must hit"
        clear_solver_caches()


def test_order_permuting_renaming_is_a_different_key():
    """Swapping two names changes the elimination order and the tableau
    columns; the memo must not serve one system's answer to the other."""
    cons = [
        Constraint.ge(var("a"), 0),
        Constraint.le(var("a"), 4),
        Constraint.ge(var("b"), 0),
        Constraint.le(var("b"), 4),
        Constraint.eq(var("a") + var("b"), 4),
    ]
    IlpProblem(cons).minimize(AffineExpr.constant(0))
    swapped = [c.rename({"a": "y", "b": "x"}) for c in cons]
    IlpProblem(swapped).minimize(AffineExpr.constant(0))
    assert hits_misses("ilp") == (0, 2)


# -- (b) compose ------------------------------------------------------------------


def _tile_to_instances():
    t, s = Space("T", ["o0", "o1"]), Space("S", ["h", "w"])
    cons = [
        Constraint.ge(var("h") - var("o0") * 8, 0),
        Constraint.le(var("h") - var("o0") * 8, 7),
        Constraint.ge(var("w") - var("o1") * 16, 0),
        Constraint.le(var("w") - var("o1") * 16, 15),
        Constraint.ge(var("h"), 0),
        Constraint.le(var("h"), 31),
        Constraint.ge(var("w"), 0),
        Constraint.le(var("w"), 63),
    ]
    access = BasicMap.from_exprs(
        Space("S", ["i", "j"]), Space("A", ["e0", "e1"]), [var("i") + 1, var("j") * 2]
    )
    return BasicMap(t, s, cons), access


def test_second_compose_of_equal_maps_hits():
    """``compose`` renames its middle dims through a global counter; the
    projection it poses is the same problem every time."""
    first = compose(*_tile_to_instances())
    entries, hits = len(FM_CACHE), hits_misses("fm")[0]
    second = compose(*_tile_to_instances())
    assert (len(FM_CACHE), hits_misses("fm")[0]) == (entries, hits + 1)
    assert _exact_constraints(second.constraints) == _exact_constraints(
        first.constraints
    )
    uncached = _uncached(lambda: compose(*_tile_to_instances()))
    assert _exact_constraints(uncached.constraints) == _exact_constraints(
        second.constraints
    )


# -- (c) warm rebuilds add no entries -----------------------------------------------


def test_identical_warm_builds_add_no_entries():
    """With name-carrying keys every rebuild of softmax_32x64 left 67 dead
    FM entries behind (fresh middle names never match again).  A 4-D
    output built beside its mirrored copy: that dependence poses the
    ILP."""
    from tests.sched.test_scheduler import mirrored

    def softmax():
        x = placeholder((8, 16, 4, 4), "fp16", name="X")
        return mirrored(ops.relu(x, name="out"))

    def entries():
        return {name: row["entries"] for name, row in solver_cache_stats().items()}

    with diskcache.disabled():
        build(softmax(), "softmax", options=AkgOptions(emit_trace=True))
        after_first = entries()
        # The original's shifted band row leaves it without a tile window:
        # its extents and footprints solve their own rows, without ``FM_CACHE``.
        assert after_first["fm"] == 0
        assert after_first["ilp"]
        for _ in range(3):
            build(softmax(), "softmax", options=AkgOptions(emit_trace=True))
            assert entries() == after_first


# -- (d) minimize and batch_minimize share entries ------------------------------------


def _triangle():
    return [
        Constraint.ge(var("i"), 0),
        Constraint.ge(var("j"), 0),
        Constraint.le(var("i") * 2 + var("j") * 3, 12),
        Constraint.ge(var("i") - var("j"), -1),
    ]


def test_minimize_and_batch_minimize_share_entries():
    # ``k`` appears in no constraint: it widens the ranking of the key and
    # makes the problem unbounded, the same way on both paths.
    objectives = [var("i") * -1, var("i") * -2 - var("j"), var("j") - var("k")]
    batch = IlpProblem(_triangle()).batch_minimize(objectives)
    assert hits_misses("ilp") == (0, 3)
    singles = [IlpProblem(_triangle()).minimize(o) for o in objectives]
    assert hits_misses("ilp") == (3, 3)
    assert [_exact_result(r) for r in singles] == [_exact_result(r) for r in batch]
    assert singles[2].status is IlpStatus.UNBOUNDED

    clear_solver_caches()
    singles = [IlpProblem(_triangle()).minimize(o) for o in objectives]
    batch = IlpProblem(_triangle()).batch_minimize(objectives)
    assert hits_misses("ilp") == (3, 3)
    assert [_exact_result(r) for r in singles] == [_exact_result(r) for r in batch]


# -- (e) what a hit is, and what it cannot touch -----------------------------------------


def test_cached_none_infeasible_and_unbounded_are_hits():
    # (A cached ``None`` is ``TestCacheBehaviour.test_none_is_a_value_not_a_miss``.)
    infeasible = [Constraint.ge(var("x"), 3), Constraint.le(var("x"), 1)]
    unbounded = [Constraint.le(var("x"), 1)]
    for _ in range(2):
        for cons, status in (
            (infeasible, IlpStatus.INFEASIBLE),
            (unbounded, IlpStatus.UNBOUNDED),
        ):
            assert IlpProblem(cons).minimize(var("x")).status is status
    assert hits_misses("ilp") == (2, 2)

    # A projection onto nothing of a feasible system is the empty list.
    for _ in range(2):
        assert project_onto([Constraint.ge(var("x"), 0)], []) == []
    assert hits_misses("fm") == (1, 1)


def test_mutating_a_result_never_reaches_the_table():
    cons = [
        Constraint.ge(var("i"), 0),
        Constraint.le(var("i"), 3),
        Constraint.eq(var("j") - var("i"), 1),
    ]
    for attempt in range(3):  # the miss, then two hits
        projected = project_onto(cons, ["j"])
        assert _exact_constraints(projected) == _exact_constraints(
            _uncached(lambda: project_onto(cons, ["j"]))
        )
        projected[0].expr.coeffs["j"] = Fraction(99)
        projected.append(Constraint.ge(var("j"), 99))

        solved = IlpProblem(cons).minimize(var("j"))
        assert list(solved.assignment.items()) == [("i", 0), ("j", 1)]
        solved.assignment["i"] = Fraction(999)
        solved.assignment["extra"] = Fraction(1)
    assert hits_misses("fm")[0] == 2 and hits_misses("ilp")[0] == 2


# -- (f) a footprint box is the caller's own --------------------------------------------


def test_mutating_a_footprint_box_never_reaches_the_table():
    """Callers shrink boxes in place (``_clip_box_to_capacity``): neither a
    footprint nor a statement's extents hand out the group's windows."""
    x = placeholder((32, 48), "fp16", name="X")
    out = ops.transpose(ops.relu(x, name="r0"), (1, 0), name="r1")
    kernel, group = fused_group(out, [16, 8])
    stmt = group.statements[0]
    assert stmt.stmt_id in group.fused_producer_ids
    for attempt in range(3):
        box = footprint_extents(group, stmt, stmt.write)
        assert box == [8, 16]
        box[0] = 99
        box.append(1)
        extents = group.instance_extents(stmt.stmt_id)
        assert extents == [8, 16]
        extents[0] = 99
    assert group.windows[stmt.stmt_id] == [8, 16]
