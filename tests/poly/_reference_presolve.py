"""Reference implementation: the ILP presolve over named constraints.

This is the presolve ``repro.poly.ilp`` shipped before a miss moved onto
the integer rank rows of :class:`repro.poly.cache.RankSpace`, moved here
verbatim: each step substitutes the first unit-coefficient variable of
the first such equality through ``AffineExpr`` arithmetic and lets
``Constraint`` normalise every result, and the objective is rewritten
through the same eliminations.  :func:`back_substitute` is the tail of
the old ``_solve_folded``, which filled the eliminated variables into a
solved assignment.
It is the oracle for ``test_presolve_rows``: production's row presolve,
decoded, must equal it in list order, coefficient-dict order, numbers and
back-substitutions, and ``minimize`` must answer what this front end
answers around production's solver.

Not imported by anything under ``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.poly.affine import AffineExpr, Constraint, Number, ratio

from tests.poly._reference_simplex import raw

#: Eliminated variables and their replacements, in elimination order.
BackSubst = List[Tuple[str, AffineExpr]]
#: A reduced system and the substitutions that lead back from it.
Presolved = Tuple[List[Constraint], BackSubst]


def _presolve_system(
    constraints: Sequence[Constraint], integer: bool = True
) -> Presolved:
    """Substitute away equalities with a +-1 coefficient variable.

    Unit-coefficient substitution is exact over the integers, so the
    reduced problem has the same optimum.  Returns the reduced system and
    the back-substitution list.  The elimination order depends only on
    the constraints, never on any objective: an :class:`IlpProblem` runs
    this once for every objective it is posed.  For a rational solve
    (``integer=False``) a substituted constraint keeps its expression as
    substitution leaves it: ``Constraint`` would floor an inequality's
    constant, which is exact for integer points only.
    """
    current = list(constraints)
    back: List[Tuple[str, AffineExpr]] = []
    changed = True
    guard = 0
    while changed and guard < 256:
        guard += 1
        changed = False
        for i, c in enumerate(current):
            if not c.is_equality:
                continue
            target = None
            for name in c.expr.coeffs:
                if abs(c.expr.coeffs[name]) == 1:
                    target = name
                    break
            if target is None:
                continue
            a = c.expr.coeff(target)
            rest = c.expr - AffineExpr({target: a})
            replacement = rest * ratio(-1, a)
            back.append((target, replacement))
            env = {target: replacement}
            next_cons = []
            for j, other in enumerate(current):
                if j == i:
                    continue
                if other.expr.coeff(target) != 0:
                    if integer:
                        other = other.substitute(env)
                    else:
                        other = raw(other.expr.substitute(env), other.is_equality)
                if other.is_trivially_true():
                    continue
                next_cons.append(other)
            current = next_cons
            changed = True
            break
    return current, back


def _apply_back_substitutions(
    objective: AffineExpr, back: BackSubst
) -> AffineExpr:
    """Rewrite an objective through the eliminations, in elimination order.

    A replacement recorded at step *k* may mention variables eliminated at
    steps > *k* (they were still live when it was derived), so forward
    application reproduces exactly the incremental substitution the
    presolve loop used to perform inline.
    """
    for name, replacement in back:
        if objective.coeff(name) != 0:
            objective = objective.substitute({name: replacement})
    return objective


def back_substitute(
    assignment: Dict[str, Number], back: BackSubst
) -> Dict[str, Number]:
    """A reduced system's assignment extended to the eliminated variables,
    in reverse elimination order.  A variable only a replacement mentions
    is free in the reduced system and gets 0, as in production."""
    assignment = dict(assignment)
    for name, expr in reversed(back):
        for free in expr.coeffs:
            assignment.setdefault(free, 0)
        assignment[name] = expr.evaluate(assignment)
    return assignment
