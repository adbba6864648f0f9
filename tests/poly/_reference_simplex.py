"""Reference implementation: the dense two-phase ``Fraction`` simplex.

This is the simplex core ``repro.poly.ilp`` shipped before the integer
row-scaled tableau replaced it, moved here verbatim (dead no-ops and
all) except that it converts the numbers it reads off its inputs to
``Fraction`` on entry -- expressions now store integral numbers as plain
``int`` -- so every cell of the tableau is a ``Fraction`` as it always
was.  It lays out one row per constraint, bounds included, and one
artificial per row: the layout production left behind when bounds became
columns.  It is the oracle for ``test_simplex_equivalence``: the
production solver must agree with it on status and optimal value; the
*point* either returns is a certificate, and the two need not pick the
same vertex (``test_vertex_independence`` compiles with this solver in
production's place to show nothing downstream can tell).

Not imported by anything under ``src/``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.poly.affine import AffineExpr, Constraint
from repro.poly.ilp import IlpResult, IlpStatus


def raw(expr: AffineExpr, is_equality: bool = False) -> Constraint:
    """A constraint holding ``expr`` as given: ``Constraint`` would scale
    it to coprime integers (and tighten an inequality's constant), and
    neither solver may depend on that."""
    c = Constraint(expr, is_equality)
    c.expr = expr
    return c


def solve_folded(lo, hi, rows, objective: AffineExpr, names: Sequence[str]) -> IlpResult:
    """:func:`_simplex_solve` behind the signature of production's: every
    bound goes back to being a row."""
    bounds = [raw(AffineExpr.variable(n) - b) for n, b in lo.items()]
    bounds += [raw(b - AffineExpr.variable(n)) for n, b in hi.items()]
    return _simplex_solve(bounds + list(rows), objective, names)


def _simplex_solve(
    constraints: Sequence[Constraint], objective: AffineExpr, names: Sequence[str]
) -> IlpResult:
    """Solve the rational LP ``min objective s.t. constraints``.

    Free variables are split as ``v = v+ - v-``; inequalities get slack
    variables; feasibility is established by a phase-1 with artificial
    variables.  Bland's rule prevents cycling.
    """
    for c in constraints:
        if c.is_trivially_false():
            return IlpResult(IlpStatus.INFEASIBLE)
    names = list(names)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}

    # Column layout: [v0+, v0-, v1+, v1-, ..., slacks..., artificials...]
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    n_slacks = sum(1 for c in constraints if not c.is_equality)
    slack_at = 2 * n
    total_structural = 2 * n + n_slacks

    slack_idx = 0
    for c in constraints:
        if c.is_trivially_true():
            if not c.is_equality:
                slack_idx += 0  # no slack allocated for skipped rows
            continue
        row = [Fraction(0)] * total_structural
        for name, coeff in c.expr.coeffs.items():
            j = index[name]
            row[2 * j] = Fraction(coeff)
            row[2 * j + 1] = Fraction(-coeff)
        b = Fraction(-c.expr.const)
        if not c.is_equality:
            # expr >= 0  <=>  expr - s = 0, s >= 0  <=>  a.x - s = b
            row[slack_at + slack_idx] = Fraction(-1)
            slack_idx += 1
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)

    n_rows = len(rows)
    # Trim unused slack columns (from skipped trivial rows).
    used_cols = total_structural
    # Artificial variables, one per row.
    for i, row in enumerate(rows):
        row.extend(Fraction(int(k == i)) for k in range(n_rows))
    n_cols = used_cols + n_rows

    basis = [used_cols + i for i in range(n_rows)]
    tableau = [list(row) + [rhs[i]] for i, row in enumerate(rows)]

    # Phase 1: minimise the sum of artificial variables.
    cost1 = [Fraction(0)] * n_cols
    for j in range(used_cols, n_cols):
        cost1[j] = Fraction(1)
    status = _simplex_iterate(tableau, basis, cost1, n_cols)
    if status is IlpStatus.UNBOUNDED:  # pragma: no cover - phase 1 is bounded
        raise RuntimeError("phase-1 LP cannot be unbounded")
    phase1_value = _objective_value(tableau, basis, cost1)
    if phase1_value != 0:
        return IlpResult(IlpStatus.INFEASIBLE)
    _drive_out_artificials(tableau, basis, used_cols, n_cols)

    # Phase 2: original objective over structural columns only.
    cost2 = [Fraction(0)] * n_cols
    for name, coeff in objective.coeffs.items():
        j = index[name]
        cost2[2 * j] = Fraction(coeff)
        cost2[2 * j + 1] = Fraction(-coeff)
    status = _simplex_iterate(tableau, basis, cost2, used_cols)
    if status is IlpStatus.UNBOUNDED:
        return IlpResult(IlpStatus.UNBOUNDED)

    assignment: Dict[str, Fraction] = {name: Fraction(0) for name in names}
    for row_idx, col in enumerate(basis):
        if col < 2 * n:
            name = names[col // 2]
            sign = 1 if col % 2 == 0 else -1
            assignment[name] += sign * tableau[row_idx][-1]
    value = objective.evaluate(assignment)
    return IlpResult(IlpStatus.OPTIMAL, value, assignment)


def _objective_value(
    tableau: List[List[Fraction]], basis: List[int], cost: List[Fraction]
) -> Fraction:
    return sum(
        (cost[col] * tableau[i][-1] for i, col in enumerate(basis)), Fraction(0)
    )


def _reduced_costs(
    tableau: List[List[Fraction]], basis: List[int], cost: List[Fraction], n_cols: int
) -> List[Fraction]:
    # y = c_B B^-1 is implicit: reduced cost_j = c_j - sum_i c_{basis_i} T[i][j]
    reduced = list(cost[:n_cols])
    for i, col in enumerate(basis):
        cb = cost[col]
        if cb != 0:
            row = tableau[i]
            for j in range(n_cols):
                if row[j] != 0:
                    reduced[j] -= cb * row[j]
    return reduced


def _simplex_iterate(
    tableau: List[List[Fraction]],
    basis: List[int],
    cost: List[Fraction],
    allowed_cols: int,
) -> IlpStatus:
    """Run simplex pivots (Bland's rule) until optimal or unbounded."""
    n_rows = len(tableau)
    while True:
        reduced = _reduced_costs(tableau, basis, cost, allowed_cols)
        enter = next((j for j in range(allowed_cols) if reduced[j] < 0), None)
        if enter is None:
            return IlpStatus.OPTIMAL
        # Ratio test, Bland tie-break on basis variable index.
        leave = None
        best_ratio: Optional[Fraction] = None
        for i in range(n_rows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return IlpStatus.UNBOUNDED
        _pivot(tableau, basis, leave, enter)


def _pivot(
    tableau: List[List[Fraction]], basis: List[int], row: int, col: int
) -> None:
    pivot = tableau[row][col]
    tableau[row] = [x / pivot for x in tableau[row]]
    for i, trow in enumerate(tableau):
        if i != row and trow[col] != 0:
            factor = trow[col]
            tableau[i] = [x - factor * y for x, y in zip(trow, tableau[row])]
    basis[row] = col


def _drive_out_artificials(
    tableau: List[List[Fraction]], basis: List[int], used_cols: int, n_cols: int
) -> None:
    """Pivot basic artificial variables out of the basis when possible."""
    for i in range(len(basis)):
        if basis[i] >= used_cols:
            col = next((j for j in range(used_cols) if tableau[i][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, i, col)
            # Otherwise the row is all-zero over structural columns
            # (redundant constraint); leaving the artificial basic at 0 is
            # harmless for phase 2.
