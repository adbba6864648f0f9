"""Exact linear and integer-linear programming.

The polyhedral layer needs four decision procedures:

- rational feasibility / optimisation  (Pluto-style scheduling LPs),
- integer feasibility                  (emptiness of integer sets),
- integer optimisation                 (per-dimension bounds, footprints),
- lexicographic minima                 (AST generation, sampling).

All are provided here by a dense two-phase simplex (Bland's rule, hence
guaranteed termination) with branch-and-bound layered on top for
integrality.  Problem sizes in this code base are tiny (tens of
variables), so a textbook algorithm is both adequate and auditable.

**The tableau is integer and row-scaled**, as in isl's ``isl_tab``: a row
is a list of Python ``int`` numerators whose common denominator is the
row's own entry in its basic column, i.e. the tableau value ``T[i][j]`` is
``row[j] / row[basis[i]]`` with ``row[basis[i]] > 0``.  A pivot combines
rows with integer multipliers and divides each result by its gcd; the
reduced-cost row is priced out once per phase and carried through the
pivots, scaled by some positive integer that never needs to be known.
Sign tests therefore read numerators, the ratio test cross-multiplies, and
no :class:`fractions.Fraction` exists until the final assignment -- and
there only for a coordinate that is fractional: numbers throughout
``repro.poly`` are ``int`` when integral (see :mod:`repro.poly.affine`).
The arithmetic is exact, so *which* pivots are taken is decided by the
rules alone, and those are a contract:

- column layout ``v+, v-`` per variable (in ``names`` order), one slack per
  inequality, one artificial per row;
- entering column: the first with a negative reduced cost;
- leaving row: minimum ratio, ties to the lowest basis index;
- after phase 1, basic artificials are driven out in row order on their
  first nonzero structural column.

Same rules, same vertex: the status, value and assignment of every solve
-- and with them every schedule and emitted program -- are those of the
``Fraction`` tableau this replaced, which lives on as the reference in
``tests/poly/_reference_simplex.py``.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.core.errors import SolverBudgetError
from repro.poly.affine import AffineExpr, Constraint, Number, ratio
from repro.poly.cache import ILP_CACHE, MISS, RankSpace
from repro.tools import faultinject


class IlpStatus(Enum):
    """Outcome of an (I)LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class IlpResult:
    """Solution record: status, objective value and variable assignment."""

    __slots__ = ("status", "value", "assignment")

    def __init__(
        self,
        status: IlpStatus,
        value: Optional[Number] = None,
        assignment: Optional[Dict[str, Number]] = None,
    ):
        self.status = status
        self.value = value
        self.assignment = assignment or {}

    def __repr__(self) -> str:
        return f"IlpResult({self.status.value}, {self.value}, {self.assignment})"


class IlpProblem:
    """A conjunction of affine constraints over named variables.

    The problem owns a list of :class:`Constraint`; variables are discovered
    from the constraints and the objective.  ``minimize``/``maximize`` solve
    either the rational relaxation (``integer=False``) or the integer
    program.
    """

    # Branch-and-bound node budget; polyhedral problems here are small, so
    # hitting this indicates a bug rather than genuine hardness.
    MAX_BB_NODES = 20000

    def __init__(self, constraints: Optional[Sequence[Constraint]] = None):
        self.constraints: List[Constraint] = list(constraints or [])

    def add_constraint(self, constraint: Constraint) -> None:
        """Append one constraint."""
        self.constraints.append(constraint)

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        """Append several constraints."""
        self.constraints.extend(constraints)

    def variables(self) -> List[str]:
        """All variable names referenced by the constraints, sorted."""
        names = set()
        for c in self.constraints:
            names.update(c.variables())
        return sorted(names)

    # -- public solving interface -------------------------------------------

    def minimize(self, objective: AffineExpr, integer: bool = True) -> IlpResult:
        """Minimise ``objective`` subject to the constraints.

        A presolve phase substitutes away unit-coefficient equalities (very
        common in dependence relations) and solves pure interval systems
        directly; the simplex/branch-and-bound only sees the residual.

        Solves are memoized in :data:`repro.poly.cache.ILP_CACHE` under the
        name-free rows of system and objective; a hit is rebuilt under the
        caller's names and is what a fresh solve would return (see
        :mod:`repro.poly.cache`).
        """
        return _memoized(
            _rank_space(self.constraints),
            objective,
            integer,
            lambda objective: self._minimize_uncached(objective, integer),
        )

    def _minimize_uncached(self, objective: AffineExpr, integer: bool) -> IlpResult:
        faultinject.fire("ilp.solve")
        constraints, back_subst = _presolve_system(self.constraints)
        objective = _apply_back_substitutions(objective, back_subst)
        return _solve_presolved(constraints, objective, back_subst, integer)

    def batch_minimize(
        self, objectives: Sequence[AffineExpr], integer: bool = True
    ) -> List[IlpResult]:
        """Minimise several objectives over the *same* constraint system.

        The equality-elimination presolve depends only on the constraints,
        so it runs at most once for the whole batch instead of once per
        objective — dependence analysis poses 2·rank bounds queries per
        relation and this is where that repetition is collapsed.  Each
        objective still gets its own :data:`~repro.poly.cache.ILP_CACHE`
        entry under exactly the key :meth:`minimize` would use, so batched
        and one-at-a-time solves are interchangeable (bit-identical
        results, shared cache lines).
        """
        system = _rank_space(self.constraints)
        presolved: Optional[
            Tuple[List[Constraint], List[Tuple[str, AffineExpr]]]
        ] = None

        def solve(objective: AffineExpr) -> IlpResult:
            nonlocal presolved
            if presolved is None:
                presolved = _presolve_system(self.constraints)
            constraints, back_subst = presolved
            reduced = _apply_back_substitutions(objective, back_subst)
            return _solve_presolved(constraints, reduced, back_subst, integer)

        return [_memoized(system, o, integer, solve) for o in objectives]

    def maximize(self, objective: AffineExpr, integer: bool = True) -> IlpResult:
        """Maximise ``objective`` subject to the constraints."""
        result = self.minimize(objective * -1, integer=integer)
        if result.status is IlpStatus.OPTIMAL:
            return IlpResult(result.status, -result.value, result.assignment)
        return result

    def is_feasible(self, integer: bool = True) -> bool:
        """Check whether any (integer) point satisfies all constraints."""
        result = self.minimize(AffineExpr.constant(0), integer=integer)
        return result.status is IlpStatus.OPTIMAL

    def sample(self) -> Optional[Dict[str, int]]:
        """Return one integer point, or ``None`` when infeasible."""
        point = self.lexmin(self.variables())
        return point

    def lexmin(self, order: Sequence[str]) -> Optional[Dict[str, int]]:
        """Lexicographic integer minimum along ``order``.

        Dimensions unbounded below make the lexmin undefined; this raises
        ``ValueError`` in that case (polyhedral domains here are bounded).
        """
        extra: List[Constraint] = []
        point: Dict[str, int] = {}
        for name in order:
            problem = IlpProblem(self.constraints + extra)
            result = problem.minimize(AffineExpr.variable(name), integer=True)
            if result.status is IlpStatus.INFEASIBLE:
                return None
            if result.status is IlpStatus.UNBOUNDED:
                raise ValueError(f"lexmin: dimension {name!r} unbounded below")
            value = int(result.value)
            point[name] = value
            extra.append(Constraint.eq(AffineExpr.variable(name), value))
        return point

    def lexmax(self, order: Sequence[str]) -> Optional[Dict[str, int]]:
        """Lexicographic integer maximum along ``order``."""
        extra: List[Constraint] = []
        point: Dict[str, int] = {}
        for name in order:
            problem = IlpProblem(self.constraints + extra)
            result = problem.maximize(AffineExpr.variable(name), integer=True)
            if result.status is IlpStatus.INFEASIBLE:
                return None
            if result.status is IlpStatus.UNBOUNDED:
                raise ValueError(f"lexmax: dimension {name!r} unbounded above")
            value = int(result.value)
            point[name] = value
            extra.append(Constraint.eq(AffineExpr.variable(name), value))
        return point


# -- memo entries ---------------------------------------------------------------


def _rank_space(constraints: Sequence[Constraint]) -> Optional[RankSpace]:
    return RankSpace(constraints) if ILP_CACHE.enabled else None


def _memoized(
    system: Optional[RankSpace],
    objective: AffineExpr,
    integer: bool,
    solve: Callable[[AffineExpr], "IlpResult"],
) -> "IlpResult":
    """``solve(objective)`` through :data:`ILP_CACHE`: one entry per system x
    objective, whichever of ``minimize``/``batch_minimize`` poses it.

    An entry is the result with its assignment keys as ranks (the values
    are immutable and shared).
    """
    if system is None:
        return solve(objective)
    space, key = system.with_expr(objective)
    key = (key, integer)
    entry = ILP_CACHE.lookup(key)
    if entry is MISS:
        result = solve(objective)
        ranks = tuple(map(space.rank.__getitem__, result.assignment))
        values = tuple(result.assignment.values())
        ILP_CACHE.store(key, (result.status, result.value, ranks, values))
        return result
    status, value, ranks, values = entry
    names = map(space.names.__getitem__, ranks)
    return IlpResult(status, value, dict(zip(names, values)))


# -- presolve -----------------------------------------------------------------


def _presolve_system(
    constraints: Sequence[Constraint],
) -> Tuple[List[Constraint], List[Tuple[str, AffineExpr]]]:
    """Substitute away equalities with a +-1 coefficient variable.

    Unit-coefficient substitution is exact over the integers, so the
    reduced problem has the same optimum.  Returns the reduced system and
    the back-substitution list.  The elimination order depends only on
    the constraints, never on any objective — :meth:`IlpProblem.batch_minimize`
    relies on this to run the presolve once for a whole batch of
    objectives over one system.
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
                    other = other.substitute(env)
                if other.is_trivially_true():
                    continue
                next_cons.append(other)
            current = next_cons
            changed = True
            break
    return current, back


def _apply_back_substitutions(
    objective: AffineExpr, back: List[Tuple[str, AffineExpr]]
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


def _solve_presolved(
    constraints: Sequence[Constraint],
    objective: AffineExpr,
    back_subst: List[Tuple[str, AffineExpr]],
    integer: bool,
) -> IlpResult:
    """Solve a presolved system and back-substitute the assignment."""
    names = sorted(
        {v for c in constraints for v in c.variables()}
        | set(objective.variables())
    )
    interval = _interval_solve(constraints, objective, names, integer)
    if interval is not None:
        result = interval
    elif integer:
        result = _branch_and_bound(constraints, objective, names)
    else:
        result = _simplex_solve(constraints, objective, names)
    if result.status is IlpStatus.OPTIMAL and back_subst:
        assignment = dict(result.assignment)
        for name, expr in reversed(back_subst):
            assignment[name] = expr.evaluate(assignment)
        result = IlpResult(result.status, result.value, assignment)
    return result


def _interval_solve(
    constraints: Sequence[Constraint],
    objective: AffineExpr,
    names: Sequence[str],
    integer: bool,
) -> Optional[IlpResult]:
    """Direct solution when every constraint bounds a single variable.

    Returns ``None`` when the system is not interval-shaped.  Constraint
    normalisation guarantees single-variable inequalities have coefficient
    +-1 with an integral bound, so the interval optimum is exact for both
    the integer and the rational problem.
    """
    lo: Dict[str, Number] = {}
    hi: Dict[str, Number] = {}
    for c in constraints:
        vars_in = c.variables()
        if len(vars_in) == 0:
            if c.is_trivially_false():
                return IlpResult(IlpStatus.INFEASIBLE)
            continue
        if len(vars_in) > 1:
            return None
        name = vars_in[0]
        a = c.expr.coeff(name)
        bound = ratio(-c.expr.const, a)
        if c.is_equality:
            if integer and bound.denominator != 1:
                return IlpResult(IlpStatus.INFEASIBLE)
            lo[name] = max(lo.get(name, bound), bound)
            hi[name] = min(hi.get(name, bound), bound)
        elif a > 0:  # name >= bound
            lo[name] = max(lo.get(name, bound), bound)
        else:  # name <= bound
            hi[name] = min(hi.get(name, bound), bound)

    assignment: Dict[str, Number] = {}
    for name in names:
        low = lo.get(name)
        high = hi.get(name)
        if integer:
            low = None if low is None else -(-low.numerator // low.denominator)
            high = None if high is None else high.numerator // high.denominator
        if low is not None and high is not None and low > high:
            return IlpResult(IlpStatus.INFEASIBLE)
        coeff = objective.coeff(name)
        if coeff > 0:
            pick = low
        elif coeff < 0:
            pick = high
        else:
            pick = low if low is not None else (high if high is not None else 0)
        if pick is None:
            return IlpResult(IlpStatus.UNBOUNDED)
        assignment[name] = pick
    value = objective.evaluate(assignment)
    return IlpResult(IlpStatus.OPTIMAL, value, assignment)


# -- simplex core ------------------------------------------------------------


def _simplex_solve(
    constraints: Sequence[Constraint], objective: AffineExpr, names: Sequence[str]
) -> IlpResult:
    """Solve the rational LP ``min objective s.t. constraints``.

    Free variables are split as ``v = v+ - v-``; inequalities get slack
    variables; feasibility is established by a phase-1 with artificial
    variables.  Bland's rule prevents cycling.  The tableau is the integer
    row-scaled one described in the module docstring.
    """
    for c in constraints:
        if c.is_trivially_false():
            return IlpResult(IlpStatus.INFEASIBLE)
    live = [c for c in constraints if not c.is_trivially_true()]
    names = list(names)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}

    # Column layout: [v0+, v0-, v1+, v1-, ..., slacks..., artificials..., rhs]
    n_rows = len(live)
    n_struct = 2 * n + sum(1 for c in live if not c.is_equality)
    n_cols = n_struct + n_rows
    tableau: List[List[int]] = []
    slack = 2 * n
    for i, c in enumerate(live):
        row, const, scale = _structural_row(c.expr, index, n_cols + 1)
        b = -const
        if not c.is_equality:
            # expr >= 0  <=>  expr - s = 0, s >= 0  <=>  a.x - s = b
            row[slack] = -scale
            slack += 1
        if b < 0:
            row = [-x for x in row]
            b = -b
        row[n_struct + i] = scale  # the artificial: basic, so the row's denominator
        row[-1] = b
        tableau.append(row)
    basis = list(range(n_struct, n_cols))

    # Phase 1: minimise the sum of artificial variables.
    cost1 = [0] * n_struct + [1] * n_rows
    status = _simplex_iterate(tableau, basis, cost1, n_cols)
    if status is IlpStatus.UNBOUNDED:  # pragma: no cover - phase 1 is bounded
        raise RuntimeError("phase-1 LP cannot be unbounded")
    if any(col >= n_struct and row[-1] for row, col in zip(tableau, basis)):
        return IlpResult(IlpStatus.INFEASIBLE)  # an artificial is stuck above zero
    _drive_out_artificials(tableau, basis, n_struct)

    # Phase 2: original objective over structural columns only.
    cost2, _, _ = _structural_row(objective, index, n_cols)
    status = _simplex_iterate(tableau, basis, cost2, n_struct)
    if status is IlpStatus.UNBOUNDED:
        return IlpResult(IlpStatus.UNBOUNDED)

    assignment: Dict[str, Number] = dict.fromkeys(names, 0)
    for row, col in zip(tableau, basis):
        if col < 2 * n:
            value = ratio(row[-1], row[col])
            assignment[names[col // 2]] += value if col % 2 == 0 else -value
    value = objective.evaluate(assignment)
    return IlpResult(IlpStatus.OPTIMAL, value, assignment)


def _structural_row(
    expr: AffineExpr, index: Dict[str, int], width: int
) -> Tuple[List[int], int, int]:
    """``scale * expr`` laid out over the ``v+``/``v-`` columns, in integers.

    Returns ``(row, const, scale)``: ``scale`` is the least positive integer
    that clears every denominator of ``expr``, ``row`` has ``width`` entries
    (zero beyond the variable columns) and ``const`` is the scaled constant.
    """
    scale = lcm(expr.const.denominator, *[a.denominator for a in expr.coeffs.values()])
    row = [0] * width
    for name, coeff in expr.coeffs.items():
        j = 2 * index[name]
        row[j] = a = coeff.numerator * (scale // coeff.denominator)
        row[j + 1] = -a
    return row, expr.const.numerator * (scale // expr.const.denominator), scale


def _eliminate(
    row: List[int], factor: int, pivot_row: List[int], pivot: int
) -> List[int]:
    """``pivot * row - factor * pivot_row`` divided by its content.

    With ``factor = row[col]`` and ``pivot = pivot_row[col] > 0`` this
    clears ``row``'s entry in column ``col`` while only rescaling the row
    by a positive number, so its signs and ratios keep their meaning.
    """
    if pivot == 1:
        new = [x - factor * y for x, y in zip(row, pivot_row)]
    else:
        new = [pivot * x - factor * y for x, y in zip(row, pivot_row)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _simplex_iterate(
    tableau: List[List[int]], basis: List[int], cost: List[int], allowed_cols: int
) -> IlpStatus:
    """Run simplex pivots (Bland's rule) until optimal or unbounded.

    The reduced-cost row ``c_j - sum_i c_basis(i) T[i][j]`` is priced out
    of ``cost`` once -- clearing each basic column is the same elimination
    a pivot performs -- and then carried through the pivots.
    """
    reduced = list(cost)
    for row, col in zip(tableau, basis):
        if reduced[col]:
            reduced = _eliminate(reduced, reduced[col], row, row[col])
    del reduced[allowed_cols:]
    while True:
        enter = next((j for j, r in enumerate(reduced) if r < 0), None)
        if enter is None:
            return IlpStatus.OPTIMAL
        # Ratio test rhs/a by cross-multiplication (both denominators are
        # positive), Bland tie-break on basis variable index.
        leave = None
        best_b = best_a = 0
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                b = row[-1]
                if leave is not None:
                    lhs, rhs = b * best_a, best_b * a
                    if not (lhs < rhs or (lhs == rhs and basis[i] < basis[leave])):
                        continue
                leave, best_b, best_a = i, b, a
        if leave is None:
            return IlpStatus.UNBOUNDED
        reduced = _eliminate(reduced, reduced[enter], tableau[leave], best_a)
        _pivot(tableau, basis, leave, enter)


def _pivot(tableau: List[List[int]], basis: List[int], row: int, col: int) -> None:
    """Make ``col`` basic in ``row``."""
    pivot_row = tableau[row]
    pivot = pivot_row[col]
    if pivot < 0:  # only when driving out an artificial that sits at zero
        pivot_row = tableau[row] = [-x for x in pivot_row]
        pivot = -pivot
    for i, trow in enumerate(tableau):
        if i != row and trow[col]:
            tableau[i] = _eliminate(trow, trow[col], pivot_row, pivot)
    basis[row] = col


def _drive_out_artificials(
    tableau: List[List[int]], basis: List[int], n_struct: int
) -> None:
    """Pivot basic artificial variables out of the basis when possible."""
    for i in range(len(basis)):
        if basis[i] >= n_struct:
            col = next((j for j in range(n_struct) if tableau[i][j]), None)
            if col is not None:
                _pivot(tableau, basis, i, col)
            # Otherwise the row is all-zero over structural columns
            # (redundant constraint); leaving the artificial basic at 0 is
            # harmless for phase 2.


# -- branch and bound ---------------------------------------------------------


def _branch_and_bound(
    constraints: Sequence[Constraint], objective: AffineExpr, names: Sequence[str]
) -> IlpResult:
    """Integer minimisation by LP-relaxation branch and bound."""
    best: Optional[IlpResult] = None
    stack: List[List[Constraint]] = [list(constraints)]
    nodes = 0
    max_nodes = resilience.solver_node_budget(IlpProblem.MAX_BB_NODES)
    while stack:
        nodes += 1
        if nodes > max_nodes:
            raise SolverBudgetError(
                f"branch-and-bound node budget exhausted ({max_nodes} nodes)",
                stage=resilience.active_stage(),
            )
        if nodes % 64 == 0:
            resilience.check_deadline()
        current = stack.pop()
        relax = _simplex_solve(current, objective, names)
        if relax.status is IlpStatus.INFEASIBLE:
            continue
        if relax.status is IlpStatus.UNBOUNDED:
            # The integer problem over a rationally unbounded region is
            # unbounded too whenever it is feasible at all; report it.
            return IlpResult(IlpStatus.UNBOUNDED)
        if best is not None and relax.value >= best.value:
            continue  # Bound: cannot improve.
        frac_name = next(
            (
                name
                for name in names
                if relax.assignment.get(name, 0).denominator != 1
            ),
            None,
        )
        if frac_name is None:
            if best is None or relax.value < best.value:
                best = IlpResult(
                    IlpStatus.OPTIMAL,
                    relax.value,
                    {k: v for k, v in relax.assignment.items()},
                )
            continue
        value = relax.assignment[frac_name]
        floor_v = value.numerator // value.denominator
        below = current + [Constraint.le(AffineExpr.variable(frac_name), floor_v)]
        above = current + [Constraint.ge(AffineExpr.variable(frac_name), floor_v + 1)]
        stack.append(below)
        stack.append(above)
    if best is None:
        return IlpResult(IlpStatus.INFEASIBLE)
    return best
