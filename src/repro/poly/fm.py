"""Fourier-Motzkin elimination.

Projects affine constraint systems onto a subset of their variables.  The
projection is exact over the rationals; over the integers it is an
*over-approximation* (divisibility information from equalities with
non-unit coefficients is dropped).  Every caller in this code base either
needs only an over-approximation (loop bounds, memory footprints) or
re-validates candidate integer points through the ILP.

**Elimination runs on rank rows**, the integer coefficient rows a
constraint system's memo key is made of (:class:`repro.poly.cache.RankSpace`):
a row is a ``{rank: coefficient}`` dict in the constraint's
coefficient-dict order, its constant and ``is_equality``.  Variables go
in ascending rank, which is sorted-name order.  Every step keeps rows
integral and normal -- coprime coefficients, an inequality's constant
floored -- exactly as :class:`~repro.poly.affine.Constraint` normalises
them, and builds each dict in the order ``AffineExpr`` arithmetic would,
so a miss decodes, once, the very rows a :data:`~repro.poly.cache.FM_CACHE`
hit decodes.  A row no step touched comes back as the caller's own
constraint object.  :func:`project_rows` is that elimination alone: the
tile probes of :mod:`repro.tiling.reverse` run it on their own rows,
without the memo table.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core import faults, resilience
from repro.core.errors import SolverBudgetError
from repro.poly.affine import AffineExpr, Constraint, ratio
from repro.poly.cache import FM_CACHE, MISS, RankSpace, split_rows

# Intermediate-system size above which projection is declared runaway
# (each FM step can square the inequality count; systems here stay tiny,
# so reaching this means combinatorial blow-up, not genuine hardness).
# Per-stage budgets may lower it via StageBudget.fm_constraints.
MAX_FM_CONSTRAINTS = 20000

#: One constraint in rank space: ``{rank: coefficient}`` (nonzero ints, in
#: coefficient-dict order), the constant, ``is_equality``, the caller's
#: constraint while no step has touched the row (``None`` once derived) and
#: the row's :func:`remove_redundant` key.
Row = Tuple[Dict[int, int], int, bool, Optional[Constraint], Hashable]


def project_onto(
    constraints: Sequence[Constraint], keep: Sequence[str]
) -> List[Constraint]:
    """Eliminate every variable not in ``keep``.

    Projections are memoized in :data:`repro.poly.cache.FM_CACHE` under
    the name-free rows of the system plus which of its variables are kept;
    hit or miss, the answer is those rows decoded under the caller's names
    (see :mod:`repro.poly.cache`).
    """
    space = RankSpace(constraints)
    keep_set = set(keep)
    mask = tuple([name in keep_set for name in space.names])
    key = (space.rows, mask)
    entry = FM_CACHE.lookup(key)
    if entry is not MISS:
        return space.decode(entry)
    rows = project_rows(
        rows_of(space.rows, constraints),
        [r for r, kept in enumerate(mask) if not kept],
        space.names.__getitem__,
    )
    # Stored as :func:`repro.poly.cache.split_rows` gives a system.
    FM_CACHE.store(
        key,
        tuple([(tuple(row[0]), (*row[0].values(), *row[1:3])) for row in rows]),
    )
    name = space.names.__getitem__
    out = []
    for coeffs, const, eq, c, _ in rows:
        if c is None:
            expr = AffineExpr._of(dict(zip(map(name, coeffs), coeffs.values())), const)
            c = Constraint._of(expr, eq)
        out.append(c)
    return out


def rows_of(rows: Hashable, constraints: Sequence[Constraint] = ()) -> List[Row]:
    """A system's rows from its rank-space image (laid out as
    :attr:`RankSpace.rows`), each carrying its constraint when
    ``constraints`` are given."""
    return [
        make_row(dict(zip(ranks, numbers)), numbers[-2], numbers[-1], c)
        for (ranks, numbers), c in zip_longest(split_rows(rows), constraints)
    ]


def project_rows(
    rows: List[Row], ranks: Sequence[int], name: Callable[[int], str]
) -> List[Row]:
    """``rows`` with every one of ``ranks`` (ascending) eliminated.

    Every call passes the ``fm.eliminate`` fault site, each eliminated
    variable the stage deadline, and each step's rows the stage's
    ``fm_constraints`` budget; ``name`` renders a rank for that message.
    """
    faults.fire("fm.eliminate")
    if not ranks:
        return rows
    # Every step drops the trivially true rows, which are never a pivot or
    # a bound: dropping them before the first one changes nothing.
    rows = [row for row in rows if row[0] or (row[1] != 0 if row[2] else row[1] < 0)]
    max_constraints = resilience.fm_constraint_budget(MAX_FM_CONSTRAINTS)
    for r in ranks:
        resilience.check_deadline()
        pivot = None
        lowers: List[Row] = []
        uppers: List[Row] = []
        others: List[Row] = []
        for row in rows:
            a = row[0].get(r)
            if a is None:
                others.append(row)
            elif row[2]:
                # Substitute from the first equality of smallest |a|.
                if pivot is None or abs(a) < abs(pivot[0][r]):
                    pivot = row
            elif a > 0:
                lowers.append(row)
            else:
                uppers.append(row)
        if pivot is None:
            rows = _unique(others + _combine(lowers, uppers, r))
        else:
            rows = _unique(_substitute(rows, r, pivot))
        if len(rows) > max_constraints:
            raise SolverBudgetError(
                f"Fourier-Motzkin system exploded past {max_constraints} "
                f"constraints while eliminating {name(r)!r}",
                stage=resilience.active_stage(),
            )
    return rows


def remove_redundant_rows(rows: Sequence[Row]) -> List[Row]:
    """:func:`remove_redundant` on rows."""
    return _unique(
        [row for row in rows if row[0] or (row[1] != 0 if row[2] else row[1] < 0)]
    )


def make_row(
    coeffs: Dict[int, int], const: int, eq: bool, c: Optional[Constraint] = None
) -> Row:
    """A row and its key: an equality's is its whole content, an
    inequality's its linear part (the tightest constant of one wins)."""
    key = tuple(sorted(coeffs.items()))
    return (coeffs, const, eq, c, (key, const) if eq else key)


def _substitute(
    rows: Sequence[Row], r: int, pivot: Row, integer: bool = True
) -> List[Row]:
    """Eliminate rank ``r`` through the equality ``pivot``: every other row
    ``c`` with ``b = c[r]`` becomes ``|a|*c - b*sgn(a)*pivot`` (``a =
    pivot[r]``), the integer image of substituting ``r = -rest/a``.

    A row is then normalised as :class:`~repro.poly.affine.Constraint`
    normalises one, which floors an inequality's constant over the gcd of
    its coefficients: exact over the integers only.  With ``integer=False``
    a row is only divided by what divides it exactly, constant included,
    so a rational solve of the rows keeps every rational point."""
    p_coeffs, p_const, _, p_self, _ = pivot
    a = p_coeffs[r]
    m = abs(a)
    # -sgn(a) * (pivot without r): what b times it adds to a row.
    sign = -1 if a > 0 else 1
    rest = [n for n in p_coeffs if n != r]
    rest_values = [sign * p_coeffs[n] for n in rest]
    rest_const = sign * p_const
    out: List[Row] = []
    for row in rows:
        coeffs = row[0]
        b = coeffs.get(r)
        if b is None:
            out.append(row)
            continue
        if row is pivot or (p_self is not None and row[3] is p_self):
            continue
        # The replacement's terms enter at r's position.
        terms: List[Tuple[int, int]] = []
        for n, x in coeffs.items():
            if n == r:
                terms.extend(zip(rest, map(b.__mul__, rest_values)))
            else:
                terms.append((n, m * x))
        coeffs = _summed(terms)
        const = m * row[1] + b * rest_const
        eq = row[2]
        # Over k = gcd(|a|, every entry) the row is the substituted one
        # scaled to integers by the least factor -- where Constraint's
        # normalisation starts; then its gcd step.
        k = gcd(m, const, *coeffs.values())
        g = gcd(*coeffs.values()) // k if integer else 1
        if g > 1 and not (eq and const // k % g):
            k *= g  # (an equality with no integer point stays as it is)
        if k > 1:
            coeffs = dict(zip(coeffs, map(k.__rfloordiv__, coeffs.values())))
            const //= k
        if coeffs or (const != 0 if eq else const < 0):
            out.append(make_row(coeffs, const, eq))
    return out


def _combine(lowers: Sequence[Row], uppers: Sequence[Row], r: int) -> List[Row]:
    """Every lower bound on rank ``r`` (``a > 0``) combined with every
    upper bound (``a < 0``) into an inequality without ``r``."""
    if not uppers:
        return []
    parts = []
    for coeffs, const, _, _, _ in (*lowers, *uppers):
        ranks = list(coeffs)
        values = list(coeffs.values())
        i = ranks.index(r)
        del ranks[i], values[i]
        parts.append((abs(coeffs[r]), ranks, values, const))
    out: List[Row] = []
    for a_lo, lo_ranks, lo_values, lo_const in parts[: len(lowers)]:
        for a_up, up_ranks, up_values, up_const in parts[len(lowers) :]:
            # a_lo*r + lo_rest >= 0 and -a_up*r + up_rest >= 0
            # =>  a_lo*up_rest + a_up*lo_rest >= 0
            terms = list(zip(up_ranks, map(a_lo.__mul__, up_values)))
            terms += zip(lo_ranks, map(a_up.__mul__, lo_values))
            coeffs = _summed(terms)
            const = up_const * a_lo + lo_const * a_up
            g = gcd(*coeffs.values())
            if g > 1:
                coeffs = dict(zip(coeffs, map(g.__rfloordiv__, coeffs.values())))
                const //= g
            if coeffs or const < 0:
                out.append(make_row(coeffs, const, False))
    return out


def _summed(terms: Sequence[Tuple[int, int]]) -> Dict[int, int]:
    """``terms`` added up in order as ``AffineExpr`` arithmetic does: a
    rank whose sum cancels is deleted, and appended afresh if it recurs."""
    out: Dict[int, int] = {}
    for n, x in terms:
        old = out.get(n)
        if old is not None:
            x += old
            if not x:
                del out[n]
                continue
        out[n] = x
    return out


def _unique(rows: Sequence[Row]) -> List[Row]:
    """:func:`remove_redundant` on rows (none of them trivially true)."""
    best: Dict[Hashable, Row] = {}
    equalities: List[Row] = []
    seen_eq = set()
    for row in rows:
        key = row[4]
        if row[2]:
            if key not in seen_eq:
                seen_eq.add(key)
                equalities.append(row)
            continue
        prev = best.get(key)
        if prev is None or row[1] < prev[1]:
            best[key] = row
    return equalities + list(best.values())


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
