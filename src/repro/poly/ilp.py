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
**Bounds are columns, not rows**, as in isl: a single-variable constraint
tightens its variable's ``lo``/``hi`` and shifts its column; the tableau
holds only the rows that couple variables (plus one ``p <= hi - lo`` row
per doubly-bounded variable), and a system with none is read off its box.

**The contract** is what callers read, not how the simplex walks:

- *status* and *optimal value* of every solve are those of the textbook
  ``Fraction`` tableau (one row per constraint, one artificial per row)
  that lives on as ``tests/poly/_reference_simplex.py``;
- the *assignment* is a certificate -- a feasible point that attains the
  value, integral for an integer solve -- not necessarily the reference's
  vertex: a caller that needs one particular optimum must state it
  (``PolyScheduler._pluto_row`` does; all others read status and value);
- a solve is a pure function of its input: exact arithmetic, fixed rules
  (columns in ``names`` order; the first column with a negative reduced
  cost enters; minimum ratio leaves, ties to the lowest basis index;
  basic artificials are driven out in row order);
- the work is pinned: pivots and tableau rows are counted beside the
  memo's hits (``solver_cache_stats()["ilp"]``), exactly, per compile.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.core.context import COUNTERS, LOCK
from repro.core.errors import SolverBudgetError
from repro.poly.affine import AffineExpr, Constraint, Number, canonical, ratio
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


#: Eliminated variables and their replacements, in elimination order.
BackSubst = List[Tuple[str, AffineExpr]]
#: A reduced system and the substitutions that lead back from it.
Presolved = Tuple[List[Constraint], BackSubst]
#: Variable -> finite bound; a variable without one on that side is absent.
Bounds = Dict[str, Number]
#: A presolved system split by :func:`_fold_bounds`: ``(lo, hi, rows)``, or
#: ``None`` when the split already proves it infeasible.
Folded = Optional[Tuple[Bounds, Bounds, List[Constraint]]]


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
        # Derived from the constraints, once: the memo key's rank space, and
        # the presolve with the bounds folded out of it per integrality.
        self._space: Optional[RankSpace] = None
        self._presolved: Optional[Tuple[List[Constraint], BackSubst, Dict]] = None

    def add_constraint(self, constraint: Constraint) -> None:
        """Append one constraint."""
        self.constraints.append(constraint)
        self._space = self._presolved = None

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        """Append several constraints."""
        self.constraints.extend(constraints)
        self._space = self._presolved = None

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
        common in dependence relations) and folds single-variable rows into
        bounds; the simplex/branch-and-bound only sees the rows that couple
        variables, and a system without any is read off its bounds.

        Solves are memoized in :data:`repro.poly.cache.ILP_CACHE` under the
        name-free rows of system and objective; a hit is rebuilt under the
        caller's names and is what a fresh solve would return (see
        :mod:`repro.poly.cache`).
        """
        return _memoized(self._system(), objective, integer, self._minimize_uncached)

    def _minimize_uncached(self, objective: AffineExpr, integer: bool) -> IlpResult:
        faultinject.fire("ilp.solve")
        return self._solve(objective, integer)

    def _system(self) -> Optional[RankSpace]:
        """The memo key's rank space, ranked once per problem (``None``
        while the cache is off)."""
        if not ILP_CACHE.enabled:
            return None
        if self._space is None:
            self._space = RankSpace(self.constraints)
        return self._space

    def _solve(self, objective: AffineExpr, integer: bool) -> IlpResult:
        """One uncached solve.  The equality-elimination presolve and the
        bounds folded out of it depend only on the constraints, so the
        problem computes them once (the fold once per integrality) and
        every objective posed to it shares them (``add_constraint`` drops
        them)."""
        if self._presolved is None:
            self._presolved = (*_presolve_system(self.constraints), {})
        constraints, back_subst, folded = self._presolved
        if integer not in folded:
            folded[integer] = _fold_bounds(constraints, integer)
        objective = _apply_back_substitutions(objective, back_subst)
        return _solve_folded(folded[integer], objective, back_subst, integer)

    def batch_minimize(
        self, objectives: Sequence[AffineExpr], integer: bool = True
    ) -> List[IlpResult]:
        """Minimise several objectives over the *same* constraint system.

        One key for the system and one presolve serve the whole batch --
        dependence analysis poses 2·rank bounds queries per relation.  Each
        objective still gets its own :data:`~repro.poly.cache.ILP_CACHE`
        entry under exactly the key :meth:`minimize` would use, so batched
        and one-at-a-time solves are interchangeable (bit-identical
        results, shared cache lines).
        """
        system = self._system()
        return [_memoized(system, o, integer, self._solve) for o in objectives]

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
        return self.lexmin(self.variables())

    def lexmin(self, order: Sequence[str]) -> Optional[Dict[str, int]]:
        """Lexicographic integer minimum along ``order``.

        Dimensions unbounded below make the lexmin undefined; this raises
        ``ValueError`` in that case (polyhedral domains here are bounded).
        """
        return self._lex(order, 1, "lexmin", "below")

    def lexmax(self, order: Sequence[str]) -> Optional[Dict[str, int]]:
        """Lexicographic integer maximum along ``order``."""
        return self._lex(order, -1, "lexmax", "above")

    def _lex(
        self, order: Sequence[str], sign: int, what: str, side: str
    ) -> Optional[Dict[str, int]]:
        extra: List[Constraint] = []
        point: Dict[str, int] = {}
        for name in order:
            problem = IlpProblem(self.constraints + extra)
            result = problem.minimize(AffineExpr.variable(name) * sign, integer=True)
            if result.status is IlpStatus.INFEASIBLE:
                return None
            if result.status is IlpStatus.UNBOUNDED:
                raise ValueError(f"{what}: dimension {name!r} unbounded {side}")
            point[name] = value = sign * int(result.value)
            extra.append(Constraint.eq(AffineExpr.variable(name), value))
        return point


# -- memo entries ---------------------------------------------------------------


def _memoized(
    system: Optional[RankSpace],
    objective: AffineExpr,
    integer: bool,
    solve: Callable[[AffineExpr, bool], "IlpResult"],
) -> "IlpResult":
    """``solve(objective, integer)`` through :data:`ILP_CACHE`: one entry per system x
    objective, whichever of ``minimize``/``batch_minimize`` poses it.

    An entry is the result with its assignment keys as ranks (the values
    are immutable and shared).
    """
    if system is None:
        return solve(objective, integer)
    space, key = system.with_expr(objective)
    key = (key, integer)
    entry = ILP_CACHE.lookup(key)
    if entry is MISS:
        result = solve(objective, integer)
        ranks = tuple(map(space.rank.__getitem__, result.assignment))
        values = tuple(result.assignment.values())
        ILP_CACHE.store(key, (result.status, result.value, ranks, values))
        return result
    status, value, ranks, values = entry
    names = map(space.names.__getitem__, ranks)
    return IlpResult(status, value, dict(zip(names, values)))


# -- presolve -----------------------------------------------------------------


def _presolve_system(constraints: Sequence[Constraint]) -> Presolved:
    """Substitute away equalities with a +-1 coefficient variable.

    Unit-coefficient substitution is exact over the integers, so the
    reduced problem has the same optimum.  Returns the reduced system and
    the back-substitution list.  The elimination order depends only on
    the constraints, never on any objective: an :class:`IlpProblem` runs
    this once for every objective it is posed.
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


def _solve_folded(
    folded: Folded,
    objective: AffineExpr,
    back_subst: BackSubst,
    integer: bool,
) -> IlpResult:
    """Solve a presolved system, split by :func:`_fold_bounds` for this
    integrality, and back-substitute the assignment."""
    if folded is None:
        result = IlpResult(IlpStatus.INFEASIBLE)
    else:
        lo, hi, rows = folded
        names = sorted(
            {v for c in rows for v in c.expr.coeffs}.union(lo, hi, objective.coeffs)
        )
        if not rows:
            result = _box_optimum(lo, hi, objective, names)
        elif integer:
            result = _branch_and_bound(lo, hi, rows, objective, names)
        else:
            result = _simplex_solve(lo, hi, rows, objective, names)
    if result.status is IlpStatus.OPTIMAL and back_subst:
        assignment = dict(result.assignment)
        for name, expr in reversed(back_subst):
            assignment[name] = expr.evaluate(assignment)
        result = IlpResult(result.status, result.value, assignment)
    return result


def _fold_bounds(constraints: Sequence[Constraint], integer: bool) -> Folded:
    """Split a system into ``(lo, hi, rows)``: every single-variable
    constraint tightens a bound of its variable (rounded inwards for an
    integer solve) and is gone; only ``rows``, which couple variables, ever
    reach a tableau.  ``None`` when a constant row or an empty interval
    already makes the system infeasible.
    """
    lo: Bounds = {}
    hi: Bounds = {}
    rows: List[Constraint] = []
    for c in constraints:
        coeffs = c.expr.coeffs
        if len(coeffs) > 1:
            rows.append(c)
            continue
        if not coeffs:
            if c.is_trivially_false():
                return None
            continue
        ((name, a),) = coeffs.items()
        low = high = ratio(-c.expr.const, a)
        if integer:
            high = low.numerator // low.denominator
            low = -(-low.numerator // low.denominator)
        if c.is_equality or a > 0:  # name >= low
            lo[name] = max(lo.get(name, low), low)
        if c.is_equality or a < 0:  # name <= high
            hi[name] = min(hi.get(name, high), high)
    if any(lo[name] > hi[name] for name in lo.keys() & hi.keys()):
        return None
    return lo, hi, rows


def _box_optimum(
    lo: Bounds, hi: Bounds, objective: AffineExpr, names: Sequence[str]
) -> IlpResult:
    """The optimum over a box: nothing couples the variables, so each sits
    at the bound its objective coefficient points to."""
    assignment: Dict[str, Number] = {}
    for name in names:
        low, high = lo.get(name), hi.get(name)
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
    return IlpResult(IlpStatus.OPTIMAL, objective.evaluate(assignment), assignment)


# -- simplex core ------------------------------------------------------------

#: name -> (column, sign, shift, free): ``x = shift + sign * p`` with ``p``
#: in ``column``, or ``x = p+ - p-`` in ``column``, ``column + 1`` when free.
Layout = Dict[str, Tuple[int, int, Number, bool]]


def _simplex_solve(
    lo: Bounds,
    hi: Bounds,
    rows: Sequence[Constraint],
    objective: AffineExpr,
    names: Sequence[str],
) -> IlpResult:
    """Solve the rational LP ``min objective s.t. rows, lo <= x <= hi``.

    A variable is shifted to a finite bound (``x = lo + p``, or ``x = hi - p``
    when only ``hi`` exists; ``p >= 0``, one column) and split ``p+ - p-``
    only when it is free.  The tableau (integer and row-scaled, see the
    module docstring) holds ``rows`` plus one ``p + s = hi - lo`` per
    doubly-bounded variable.  A row whose slack can start basic -- every
    upper-bound row, every inequality the shifted origin satisfies -- gets
    no artificial, and phase 1 runs only if an artificial exists.
    """
    layout: Layout = {}
    boxed: List[Tuple[int, Number]] = []
    n = 0
    for name in names:
        low, high = lo.get(name), hi.get(name)
        if low is not None:
            layout[name] = (n, 1, low, False)
            if high is not None:
                boxed.append((n, high - low))
        elif high is not None:
            layout[name] = (n, -1, high, False)
        else:
            layout[name] = (n, 1, 0, True)
            n += 1
        n += 1

    # Columns: [p..., slacks..., artificials..., rhs].  Rows are first laid
    # out over the structural ones as (row, rhs >= 0, basic column or None):
    # how many need an artificial is known only once all are.
    n_struct = n + len(boxed) + sum(1 for c in rows if not c.is_equality)
    pending: List[Tuple[List[int], int, Optional[int]]] = []
    slack = n
    for j, width in boxed:
        row = [0] * n_struct
        row[j] = row[slack] = width.denominator
        pending.append((row, width.numerator, slack))
        slack += 1
    for c in rows:
        row, const, scale = _shifted_row(c.expr, layout, n_struct)
        basic = None
        if not c.is_equality:
            # expr >= 0  <=>  a.p - s = -const, s >= 0: once the row is
            # negated the slack is basic at const, if that is >= 0.
            row[slack] = -scale
            if const >= 0:
                basic = slack
            slack += 1
        if const > 0 or basic is not None:
            row = [-x for x in row]
        pending.append((row, abs(const), basic))
    n_art = sum(1 for _, _, basic in pending if basic is None)
    n_cols = n_struct + n_art
    tableau: List[List[int]] = []
    basis: List[int] = []
    artificial = n_struct
    for row, rhs, basic in pending:
        row += [0] * n_art
        row.append(rhs)
        if basic is None:
            basic = artificial
            row[basic] = 1
            artificial += 1
        tableau.append(row)
        basis.append(basic)
    with LOCK:
        COUNTERS["solver.ilp.rows"] += len(tableau)

    if n_art:  # Phase 1: minimise the sum of artificial variables.
        cost1 = [0] * n_struct + [1] * n_art
        status = _simplex_iterate(tableau, basis, cost1, n_cols)
        if status is IlpStatus.UNBOUNDED:  # pragma: no cover - phase 1 is bounded
            raise RuntimeError("phase-1 LP cannot be unbounded")
        if any(col >= n_struct and row[-1] for row, col in zip(tableau, basis)):
            return IlpResult(IlpStatus.INFEASIBLE)  # an artificial is stuck above zero
        _drive_out_artificials(tableau, basis, n_struct)

    # Phase 2: original objective over structural columns only.
    cost2, _, _ = _shifted_row(objective, layout, n_cols)
    status = _simplex_iterate(tableau, basis, cost2, n_struct)
    if status is IlpStatus.UNBOUNDED:
        return IlpResult(IlpStatus.UNBOUNDED)

    point: List[Number] = [0] * n
    for row, col in zip(tableau, basis):
        if col < n:
            point[col] = ratio(row[-1], row[col])
    assignment: Dict[str, Number] = {}
    for name, (j, sign, shift, free) in layout.items():
        p = point[j] - point[j + 1] if free else point[j]
        assignment[name] = canonical(shift + sign * p)
    value = objective.evaluate(assignment)
    return IlpResult(IlpStatus.OPTIMAL, value, assignment)


def _shifted_row(
    expr: AffineExpr, layout: Layout, width: int
) -> Tuple[List[int], int, int]:
    """``scale * expr`` laid out over the shifted columns, in integers.

    Every variable is replaced by its ``shift + sign * p`` first and the
    denominators are cleared after, so a fractional bound stays exact.
    Returns ``(row, const, scale)``: ``scale`` is the least positive integer
    that clears every denominator, ``row`` has ``width`` entries (zero
    beyond the variable columns) and ``const`` is the scaled constant.
    """
    const = expr.const
    terms = []
    for name, a in expr.coeffs.items():
        j, sign, shift, free = layout[name]
        const += a * shift
        terms.append((j, sign * a, free))
    scale = lcm(const.denominator, *[a.denominator for _, a, _ in terms])
    row = [0] * width
    for j, a, free in terms:
        row[j] = a = a.numerator * (scale // a.denominator)
        if free:
            row[j + 1] = -a
    return row, const.numerator * (scale // const.denominator), scale


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
    with LOCK:
        COUNTERS["solver.ilp.pivots"] += 1
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
    lo: Bounds,
    hi: Bounds,
    rows: Sequence[Constraint],
    objective: AffineExpr,
    names: Sequence[str],
) -> IlpResult:
    """Integer minimisation by LP-relaxation branch and bound.

    A node is a pair of bounds: branching on ``x <= floor(v)`` /
    ``x >= floor(v) + 1`` tightens a column and never grows the tableau.
    """
    best: Optional[IlpResult] = None
    stack: List[Tuple[Bounds, Bounds]] = [(lo, hi)]
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
        lo, hi = stack.pop()
        relax = _simplex_solve(lo, hi, rows, objective, names)
        if relax.status is IlpStatus.INFEASIBLE:
            continue
        if relax.status is IlpStatus.UNBOUNDED:
            # The integer problem over a rationally unbounded region is
            # unbounded too whenever it is feasible at all; report it.
            return IlpResult(IlpStatus.UNBOUNDED)
        if best is not None and relax.value >= best.value:
            continue  # Bound: cannot improve.
        point = relax.assignment
        frac_name = next((n for n in names if point[n].denominator != 1), None)
        if frac_name is None:
            best = relax  # integral, and better than the incumbent
            continue
        value = point[frac_name]
        floor_v = value.numerator // value.denominator
        stack.append((lo, {**hi, frac_name: floor_v}))
        stack.append(({**lo, frac_name: floor_v + 1}, hi))
    return best or IlpResult(IlpStatus.INFEASIBLE)
