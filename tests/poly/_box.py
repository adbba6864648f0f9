"""Exact integer questions about a constraint system, posed to the ILP.

Sets and maps hold constraints; emptiness, entailment and per-dimension
extrema are :class:`~repro.poly.ilp.IlpProblem`'s questions, and tests
that use them as an oracle ask it here.
"""

from repro.poly.affine import AffineExpr, Constraint
from repro.poly.ilp import IlpProblem, IlpStatus


def implies(constraints, candidate):
    """True when ``constraints`` entail ``candidate`` (exact ILP check)."""
    if candidate.is_equality:
        probe_up = IlpProblem(constraints + [Constraint.ge(candidate.expr, 1)])
        probe_dn = IlpProblem(constraints + [Constraint.le(candidate.expr, -1)])
        return not probe_up.is_feasible() and not probe_dn.is_feasible()
    # Over the integers, not(e >= 0) is -e - 1 >= 0.
    negated = Constraint((-candidate.expr) - 1)
    return not IlpProblem(constraints + [negated]).is_feasible()


def ilp_box(constraints, dims):
    """``{dim: (min, max)}`` over the integer points of ``constraints``,
    or ``None`` when there are none."""
    problem = IlpProblem(list(constraints))
    if not problem.is_feasible(integer=True):
        return None
    box = {}
    for dim in dims:
        lo = problem.minimize(AffineExpr.variable(dim), integer=True)
        hi = problem.maximize(AffineExpr.variable(dim), integer=True)
        if lo.status is not IlpStatus.OPTIMAL or hi.status is not IlpStatus.OPTIMAL:
            raise ValueError(f"dimension {dim!r} is unbounded")
        box[dim] = (lo.value, hi.value)
    return box
