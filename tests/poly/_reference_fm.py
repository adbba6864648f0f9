"""Reference implementation: Fourier-Motzkin over named constraints.

This is the elimination ``repro.poly.fm`` shipped before projection moved
onto the integer rank rows of :class:`repro.poly.cache.RankSpace`, moved
here without its fault site, deadline and budget checks: one step works
on :class:`~repro.poly.affine.Constraint` objects, substitutes through
``AffineExpr`` arithmetic (``Fraction`` coefficients and all) and lets
``Constraint`` normalise every result.
It is the oracle for ``test_fm``: production's projection must equal
it in list order, coefficient-dict order and numbers, and hand back the
caller's own object for every row it did not touch.

Not imported by anything under ``src/``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.poly.affine import AffineExpr, Constraint, ratio
from repro.poly.fm import remove_redundant


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
    """Eliminate every variable not in ``keep``, in sorted name order."""
    keep_set = set(keep)
    current = list(constraints)
    to_remove = sorted(
        {v for c in current for v in c.variables() if v not in keep_set}
    )
    for name in to_remove:
        current = eliminate_variable(current, name)
        current = remove_redundant(current)
    return current
