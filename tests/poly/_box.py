"""Exact integer questions about a constraint system, posed to the ILP.

Sets and maps hold constraints; emptiness and per-dimension extrema are
:class:`~repro.poly.ilp.IlpProblem`'s questions, and tests that use them
as an oracle ask it here.
"""

from repro.poly.affine import AffineExpr
from repro.poly.ilp import IlpProblem, IlpStatus


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
