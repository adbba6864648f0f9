"""Fourier-Motzkin elimination.

Projects affine constraint systems onto a subset of their variables.  The
projection is exact over the rationals; over the integers it is an
*over-approximation* (divisibility information from equalities with
non-unit coefficients is dropped).  Every caller in this code base either
needs only an over-approximation (loop bounds, memory footprints) or
re-validates candidate integer points through the ILP.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core import resilience
from repro.core.errors import SolverBudgetError
from repro.poly.affine import AffineExpr, Constraint, ratio
from repro.poly.cache import FM_CACHE, MISS, RankSpace
from repro.tools import faultinject

# Intermediate-system size above which projection is declared runaway
# (each FM step can square the inequality count; systems here stay tiny,
# so reaching this means combinatorial blow-up, not genuine hardness).
# Per-stage budgets may lower it via StageBudget.fm_constraints.
MAX_FM_CONSTRAINTS = 20000


def eliminate_variable(
    constraints: Sequence[Constraint], name: str
) -> List[Constraint]:
    """Eliminate ``name`` from ``constraints`` (one FM step)."""
    equalities = [c for c in constraints if c.is_equality and c.expr.coeff(name) != 0]
    if equalities:
        # Substitute from the equality with the smallest |coefficient|.
        pivot = min(equalities, key=lambda c: abs(c.expr.coeff(name)))
        a = pivot.expr.coeff(name)
        # name = (-(expr - a*name)) / a
        rest = pivot.expr - AffineExpr({name: a})
        replacement = rest * ratio(-1, a)
        out = []
        for c in constraints:
            if c is pivot:
                continue
            if c.expr.coeff(name) != 0:
                c = c.substitute({name: replacement})
            if not c.is_trivially_true():
                out.append(c)
        return out

    lowers: List[Constraint] = []  # a > 0:  name >= -rest/a
    uppers: List[Constraint] = []  # a < 0:  name <= rest/(-a)
    others: List[Constraint] = []
    for c in constraints:
        a = c.expr.coeff(name)
        if a == 0:
            if not c.is_trivially_true():
                others.append(c)
        elif a > 0:
            lowers.append(c)
        else:
            uppers.append(c)

    for lo in lowers:
        a_lo = lo.expr.coeff(name)
        lo_rest = lo.expr - AffineExpr({name: a_lo})
        for up in uppers:
            a_up = -up.expr.coeff(name)
            up_rest = up.expr + AffineExpr({name: a_up})
            # a_lo*name + lo_rest >= 0 and -a_up*name + up_rest >= 0
            # =>  a_lo*up_rest + a_up*lo_rest >= 0
            combined = Constraint(up_rest * a_lo + lo_rest * a_up, False)
            if not combined.is_trivially_true():
                others.append(combined)
    return others


def project_onto(
    constraints: Sequence[Constraint], keep: Sequence[str]
) -> List[Constraint]:
    """Eliminate every variable not in ``keep``.

    Projections are memoized in :data:`repro.poly.cache.FM_CACHE` under the
    name-free rows of the system plus which of its variables are kept; a
    hit is rebuilt under the caller's names and is what a fresh run would
    return (see :mod:`repro.poly.cache`).
    """
    if not FM_CACHE.enabled:
        return _project_uncached(constraints, keep)
    space = RankSpace(constraints)
    keep_set = set(keep)
    key = (space.rows, tuple([name in keep_set for name in space.names]))
    rows = FM_CACHE.lookup(key)
    if rows is not MISS:
        return space.decode(rows)
    projected = _project_uncached(constraints, keep)
    FM_CACHE.store(key, space.encode(projected))
    return projected


def _project_uncached(
    constraints: Sequence[Constraint], keep: Sequence[str]
) -> List[Constraint]:
    faultinject.fire("fm.eliminate")
    keep_set = set(keep)
    current = list(constraints)
    to_remove = sorted(
        {v for c in current for v in c.variables() if v not in keep_set}
    )
    max_constraints = resilience.fm_constraint_budget(MAX_FM_CONSTRAINTS)
    for name in to_remove:
        resilience.check_deadline()
        current = eliminate_variable(current, name)
        current = remove_redundant(current)
        if len(current) > max_constraints:
            raise SolverBudgetError(
                f"Fourier-Motzkin system exploded past {max_constraints} "
                f"constraints while eliminating {name!r}",
                stage=resilience.active_stage(),
            )
    return current


def interval_of(
    constraints: Sequence[Constraint], name: str
) -> "tuple[object, object] | None":
    """The interval ``[lo, hi]`` of ``name`` permitted by ``constraints``.

    Projects the system onto ``name`` alone — every other variable,
    including free symbolic parameters, is eliminated — and reads the
    resulting one-variable bounds.  Returns ``None`` when the system is
    infeasible (over the rationals); either endpoint may be ``None`` for
    an unbounded direction.  Because FM is exact over the rationals and
    an over-approximation over the integers, a returned interval is a
    *superset* of the integer-feasible values — exactly the conservative
    direction legality proofs need.
    """
    projected = project_onto(constraints, [name])
    lo = None
    hi = None
    for c in projected:
        if c.is_trivially_false():
            return None
        a = c.expr.coeff(name)
        if a == 0:
            continue
        rest = c.expr - AffineExpr({name: a})
        bound = ratio(-rest.const, a)
        if c.is_equality:
            lo = bound if lo is None else max(lo, bound)
            hi = bound if hi is None else min(hi, bound)
        elif a > 0:
            # a*name + const >= 0  =>  name >= -const/a
            lo = bound if lo is None else max(lo, bound)
        else:
            # -|a|*name + const >= 0  =>  name <= const/|a|
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def remove_redundant(constraints: Sequence[Constraint]) -> List[Constraint]:
    """Cheap syntactic redundancy removal (exact duplicates, dominated consts).

    Keeps, for identical linear parts, only the tightest constant; drops
    trivially-true constraints.  This is not full redundancy elimination but
    keeps FM output from exploding on the small systems used here.
    """
    best: dict = {}
    equalities: List[Constraint] = []
    seen_eq = set()
    for c in constraints:
        if c.is_trivially_true():
            continue
        if c.is_equality:
            if c not in seen_eq:
                seen_eq.add(c)
                equalities.append(c)
            continue
        key = tuple(sorted(c.expr.coeffs.items()))
        prev = best.get(key)
        # For  lin + const >= 0, a smaller const is the *tighter* constraint.
        if prev is None or c.expr.const < prev.expr.const:
            best[key] = c
    return equalities + list(best.values())
