"""Exact linear and integer-linear programming.

The polyhedral layer needs four decision procedures:

- rational feasibility / optimisation  (Pluto-style scheduling LPs),
- integer feasibility                  (emptiness of integer sets),
- integer optimisation                 (per-dimension bounds, footprints),
- lexicographic minima                 (AST generation).

All are provided here by a dense two-phase simplex (Bland's rule, hence
guaranteed termination) with branch-and-bound layered on top for
integrality.  Problem sizes in this code base are tiny (tens of
variables), so a textbook algorithm is both adequate and auditable.

**A miss works on rank rows**, the integer rows of its memo key
(:class:`repro.poly.cache.RankSpace`; a row is :mod:`repro.poly.fm`'s
``{rank: coefficient}`` dict, constant and ``is_equality``), as a
constraint is an integer row in isl.  The presolve is FM's row
substitution, :func:`repro.poly.fm._substitute`, of the first equality
row with a +-1 coefficient at its first such rank (exact over the
integers); the objective goes through the same eliminations, and the
assignment stays keyed by rank until the one decode a hit shares.

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
**A constant objective is read off the problem's feasibility witness.**
An objective the presolve leaves without ranks -- ``is_feasible``'s zero,
or a distance the problem's equalities fix -- solves as the zero
objective does over the same fold: same columns, path, point and status,
with the constant as its value.  The zero objective is solved once per
problem and integrality, beside the fold, and every constant objective
is answered from that solve (:func:`_constant`).  Each keeps its own memo
entry, and its miss still passes the ``ilp.solve`` fault site.

**The contract** is what callers read, not how the simplex walks:

- *status* and *optimal value* of every solve are those of the textbook
  ``Fraction`` tableau (one row per constraint, one artificial per row)
  that lives on as ``tests/poly/_reference_simplex.py``;
- the *assignment* is a certificate -- a feasible point that attains the
  value, integral for an integer solve -- not necessarily the reference's
  vertex: a caller that needs one particular optimum must state it
  (``PolyScheduler._pluto_row`` does; all others read status and value);
- a solve is a pure function of its input: exact arithmetic, fixed rules
  (columns in rank order, which is sorted-name order; the first column
  with a negative reduced cost enters; minimum ratio leaves, ties to the
  lowest basis index; basic artificials are driven out in row order);
- the work is pinned: pivots and tableau rows are counted beside the
  memo's hits (``solver_cache_stats()["ilp"]``), exactly, per compile
  (``COMPILES`` in ``tests/poly/test_simplex_equivalence.py``: a cold
  ``conv2d_16x32`` build makes 3 simplex solves, 3 pivots over 30 rows).
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core import faults, resilience
from repro.core.context import COUNTERS, LOCK
from repro.core.errors import SolverBudgetError
from repro.poly.affine import AffineExpr, Constraint, Number, canonical, ratio
from repro.poly.cache import ILP_CACHE, MISS, RankSpace, split_rows
from repro.poly.fm import Row, _substitute, _summed


class IlpStatus(Enum):
    """Outcome of an (I)LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class IlpResult:
    """Solution record: status, objective value and variable assignment
    (keyed by name; by rank inside the solver, until the decode)."""

    __slots__ = ("status", "value", "assignment")

    def __init__(
        self,
        status: IlpStatus,
        value: Optional[Number] = None,
        assignment: Optional[Dict] = None,
    ):
        self.status = status
        self.value = value
        self.assignment = assignment or {}

    def __repr__(self) -> str:
        return f"IlpResult({self.status.value}, {self.value}, {self.assignment})"


#: An objective over ranks, ``({rank: coefficient}, constant)``.
Objective = Tuple[Dict[int, Number], Number]
#: A presolve step: the rank eliminated and its replacement (as above).
Elimination = Tuple[int, Dict[int, int], int]
#: Rank -> finite bound; a rank without one on that side is absent.
Bounds = Dict[int, Number]
#: Presolved rows split by :func:`_fold_bounds`: ``(lo, hi, rows)``, or
#: ``None`` when the split already proves them infeasible.
Folded = Optional[Tuple[Bounds, Bounds, List[Row]]]
#: A problem's presolved state for one integrality: the eliminations, the
#: fold of the rows they leave, and the zero objective's solve on that fold
#: once asked (a list that gets at most that one entry).
Presolved = Tuple[List[Elimination], Folded, List["IlpResult"]]


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
        # per integrality its rows presolved, with the bounds folded out and
        # the feasibility witness solved.
        self._space: Optional[RankSpace] = None
        self._presolved: Dict[bool, Presolved] = {}

    def add_constraint(self, constraint: Constraint) -> None:
        """Append one constraint."""
        self.constraints.append(constraint)
        self._space = None
        self._presolved = {}

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        """Append several constraints."""
        self.constraints.extend(constraints)
        self._space = None
        self._presolved = {}

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
        return self._memoized(self._system(), objective, integer, True)

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
        space = self._system()
        return [self._memoized(space, o, integer, False) for o in objectives]

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
            point[name] = value = int(result.value)
            extra.append(Constraint.eq(AffineExpr.variable(name), value))
        return point

    # -- memo entries and misses ----------------------------------------------

    def _system(self) -> RankSpace:
        """The memo key's rank space, ranked once per problem."""
        if self._space is None:
            self._space = RankSpace(self.constraints)
        return self._space

    def _memoized(
        self, space: RankSpace, objective: AffineExpr, integer: bool, fire: bool
    ) -> IlpResult:
        """One solve through :data:`ILP_CACHE`: one entry per system x
        objective, whichever of ``minimize`` (``fire``: its misses pass the
        ``ilp.solve`` fault site) or ``batch_minimize`` poses it.

        An entry is the result with its assignment keyed by rank (the
        values are immutable and shared); a miss stores what it solved and
        decodes it exactly as a hit does.
        """
        space, key = space.with_expr(objective)
        key = (key, integer)
        entry = ILP_CACHE.lookup(key)
        if entry is MISS:
            if fire:
                faults.fire("ilp.solve")
            result = self._solve(space, key[0], integer)
            point = result.assignment
            entry = (result.status, result.value, tuple(point), tuple(point.values()))
            ILP_CACHE.store(key, entry)
        status, value, ranks, values = entry
        names = map(space.names.__getitem__, ranks)
        return IlpResult(status, value, dict(zip(names, values)))

    def _solve(self, space: RankSpace, key: Hashable, integer: bool) -> IlpResult:
        """One uncached solve on the key's rows.  Presolve, fold and
        witness (one of each per integrality) are the problem's, shared by
        every objective in its space (``add_constraint`` drops them); an
        objective that widens the space (:meth:`RankSpace.with_expr`)
        presolves its own rows.

        An objective the presolve leaves without ranks is a constant: its
        solve would be the zero objective's over the same fold -- same
        path, point and status -- so it is answered off the witness, the
        zero objective solved once per integrality.
        """
        system, ranks, numbers = key
        own = space is self._space
        presolved = self._presolved.get(integer) if own else None
        if presolved is None:
            rows, back = _presolve(system, integer)
            presolved = (back, _fold_bounds(rows, integer), [])
            if own:
                self._presolved[integer] = presolved
        back, folded, witness = presolved
        objective = (dict(zip(ranks, numbers)), numbers[-1])
        if back:
            objective = _substituted(*objective, back)
        if objective[0]:
            return _solve_folded(folded, objective, back, integer)
        if not witness:
            # One append of the final value: a reader never sees half a
            # solve, and of two racing appends both are equal.
            witness.append(_solve_folded(folded, ({}, 0), back, integer))
        return _constant(witness[0], objective[1])


# -- presolve -----------------------------------------------------------------


def _presolve(
    system: Hashable, integer: bool = True
) -> Tuple[List[Row], List[Elimination]]:
    """The rows of ``system`` (laid out as :attr:`RankSpace.rows`) and
    the eliminations, in order, that removed its unit-coefficient equalities.

    Each of at most 256 steps takes the first equality row with a +-1
    coefficient and eliminates its first such rank with
    :func:`repro.poly.fm._substitute`: exact over the integers (which
    floors an inequality's constant over its coefficients' gcd) and, for a
    rational solve (``integer=False``), exact over the rationals (which
    keeps it).  A function of the constraints alone, never of an objective.
    """
    rows: List[Row] = []
    for ranks, numbers in split_rows(system):
        # The presolve never deduplicates, so its rows need no key.
        rows.append((dict(zip(ranks, numbers)), numbers[-2], numbers[-1], None, None))
    back: List[Elimination] = []
    for _ in range(256):
        step = _unit_pivot(rows)
        if step is None:
            break
        pivot, r = step
        coeffs = pivot[0]
        a = coeffs[r]  # +-1: r = -a * (the rest of the row)
        rest = {n: -a * x for n, x in coeffs.items() if n != r}
        back.append((r, rest, -a * pivot[1]))
        rows = _substitute(rows, r, pivot, integer)
    if back:
        # No step makes a trivially true row; those the system came with
        # go once it has changed.
        rows = [row for row in rows if row[0] or (row[1] != 0 if row[2] else row[1] < 0)]
    return rows, back


def _unit_pivot(rows: Sequence[Row]) -> Optional[Tuple[Row, int]]:
    """The first equality row with a +-1 coefficient and its first such
    rank, or ``None``."""
    for row in rows:
        if row[2]:
            for r, a in row[0].items():
                if a == 1 or a == -1:
                    return row, r
    return None


def _substituted(
    coeffs: Dict[int, Number], const: Number, back: Sequence[Elimination]
) -> Objective:
    """An objective through the eliminations in order (a replacement may
    mention ranks eliminated after it), each replacement's terms entering
    at its rank's position."""
    for r, rest, rest_const in back:
        b = coeffs.get(r)
        if b is None:
            continue
        terms = []
        for n, x in coeffs.items():
            if n == r:
                for m, y in rest.items():
                    terms.append((m, y * b))
            else:
                terms.append((n, x))
        coeffs = _summed(terms)
        const += rest_const * b
    return coeffs, const


def _solve_folded(
    folded: Folded, objective: Objective, back: Sequence[Elimination], integer: bool
) -> IlpResult:
    """Solve presolved rows, split by :func:`_fold_bounds` for this
    integrality, and back-substitute the assignment."""
    if folded is None:
        return IlpResult(IlpStatus.INFEASIBLE)
    lo, hi, rows = folded
    columns = sorted({r for row in rows for r in row[0]}.union(lo, hi, objective[0]))
    if not rows:
        result = _box_optimum(lo, hi, objective, columns)
    elif integer:
        result = _branch_and_bound(lo, hi, rows, objective, columns)
    else:
        result = _simplex_solve(lo, hi, rows, objective, columns)
    if result.status is IlpStatus.OPTIMAL and back:
        assignment = dict(result.assignment)
        for r, rest, value in reversed(back):
            for n, x in rest.items():
                v = assignment.get(n)
                if v is None:
                    # Live, yet in no row, bound or objective: free, and
                    # given 0 as the box gives a free column.
                    v = assignment[n] = 0
                value += x * v
            assignment[r] = canonical(value)
        result = IlpResult(result.status, result.value, assignment)
    return result


def _constant(witness: IlpResult, value: Number) -> IlpResult:
    """The solve of a constant objective ``value``, read off ``witness``,
    the zero objective's solve over the same fold: its status and point,
    and ``value`` wherever there is an optimum."""
    if witness.status is not IlpStatus.OPTIMAL:
        return witness
    return IlpResult(IlpStatus.OPTIMAL, canonical(value), witness.assignment)


def _fold_bounds(rows: Sequence[Row], integer: bool) -> Folded:
    """Split rows into ``(lo, hi, rows)``: every single-variable row
    tightens a bound of its rank (rounded inwards for an integer solve) and
    is gone; only ``rows``, which couple variables, ever reach a tableau.
    ``None`` when a constant row or an empty interval already makes the
    system infeasible.
    """
    lo: Bounds = {}
    hi: Bounds = {}
    coupling: List[Row] = []
    for row in rows:
        coeffs, const, eq = row[0], row[1], row[2]
        if len(coeffs) > 1:
            coupling.append(row)
            continue
        if not coeffs:
            if const != 0 if eq else const < 0:
                return None
            continue
        ((r, a),) = coeffs.items()
        low = high = ratio(-const, a)
        if integer:
            high = low.numerator // low.denominator
            low = -(-low.numerator // low.denominator)
        if eq or a > 0:  # r >= low
            lo[r] = max(lo.get(r, low), low)
        if eq or a < 0:  # r <= high
            hi[r] = min(hi.get(r, high), high)
    if any(lo[r] > hi[r] for r in lo.keys() & hi.keys()):
        return None
    return lo, hi, coupling


def _box_optimum(
    lo: Bounds, hi: Bounds, objective: Objective, columns: Sequence[int]
) -> IlpResult:
    """The optimum over a box: nothing couples the variables, so each sits
    at the bound its objective coefficient points to."""
    coeffs = objective[0]
    assignment: Dict[int, Number] = {}
    for r in columns:
        low, high = lo.get(r), hi.get(r)
        coeff = coeffs.get(r, 0)
        if coeff > 0:
            pick = low
        elif coeff < 0:
            pick = high
        else:
            pick = low if low is not None else (high if high is not None else 0)
        if pick is None:
            return IlpResult(IlpStatus.UNBOUNDED)
        assignment[r] = pick
    return IlpResult(IlpStatus.OPTIMAL, _value(objective, assignment), assignment)


def _value(objective: Objective, point: Dict[int, Number]) -> Number:
    """``objective`` at ``point``."""
    coeffs, total = objective
    for r, c in coeffs.items():
        total += c * point[r]
    return canonical(total)


# -- simplex core ------------------------------------------------------------

#: rank -> (column, sign, shift, free): ``x = shift + sign * p`` with ``p``
#: in ``column``, or ``x = p+ - p-`` in ``column``, ``column + 1`` when free.
Layout = Dict[int, Tuple[int, int, Number, bool]]


def _simplex_solve(
    lo: Bounds,
    hi: Bounds,
    rows: Sequence[Row],
    objective: Objective,
    columns: Sequence[int],
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
    for r in columns:
        low, high = lo.get(r), hi.get(r)
        if low is not None:
            layout[r] = (n, 1, low, False)
            if high is not None:
                boxed.append((n, high - low))
        elif high is not None:
            layout[r] = (n, -1, high, False)
        else:
            layout[r] = (n, 1, 0, True)
            n += 1
        n += 1

    # Columns: [p..., slacks..., artificials..., rhs].  Rows are first laid
    # out over the structural ones as (row, rhs >= 0, basic column or None):
    # how many need an artificial is known only once all are.
    n_struct = n + len(boxed) + sum(1 for row in rows if not row[2])
    pending: List[Tuple[List[int], int, Optional[int]]] = []
    slack = n
    for j, width in boxed:
        row = [0] * n_struct
        row[j] = row[slack] = width.denominator
        pending.append((row, width.numerator, slack))
        slack += 1
    for coeffs, const, eq, _, _ in rows:
        row, const, scale = _shifted_row(coeffs, const, layout, n_struct)
        basic = None
        if not eq:
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
    cost2, _, _ = _shifted_row(*objective, layout, n_cols)
    status = _simplex_iterate(tableau, basis, cost2, n_struct)
    if status is IlpStatus.UNBOUNDED:
        return IlpResult(IlpStatus.UNBOUNDED)

    point: List[Number] = [0] * n
    for row, col in zip(tableau, basis):
        if col < n:
            point[col] = ratio(row[-1], row[col])
    assignment: Dict[int, Number] = {}
    for r, (j, sign, shift, free) in layout.items():
        p = point[j] - point[j + 1] if free else point[j]
        assignment[r] = canonical(shift + sign * p)
    return IlpResult(IlpStatus.OPTIMAL, _value(objective, assignment), assignment)


def _shifted_row(
    coeffs: Dict[int, Number], const: Number, layout: Layout, width: int
) -> Tuple[List[int], int, int]:
    """``scale * (coeffs . x + const)`` laid out over the shifted columns,
    in integers.

    Every variable is replaced by its ``shift + sign * p`` first and the
    denominators are cleared after, so a fractional bound stays exact.
    Returns ``(row, const, scale)``: ``scale`` is the least positive integer
    that clears every denominator, ``row`` has ``width`` entries (zero
    beyond the variable columns) and ``const`` is the scaled constant.
    """
    terms = []
    for r, a in coeffs.items():
        j, sign, shift, free = layout[r]
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
    rows: Sequence[Row],
    objective: Objective,
    columns: Sequence[int],
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
        relax = _simplex_solve(lo, hi, rows, objective, columns)
        if relax.status is IlpStatus.INFEASIBLE:
            continue
        if relax.status is IlpStatus.UNBOUNDED:
            # The integer problem over a rationally unbounded region is
            # unbounded too whenever it is feasible at all; report it.
            return IlpResult(IlpStatus.UNBOUNDED)
        if best is not None and relax.value >= best.value:
            continue  # Bound: cannot improve.
        point = relax.assignment
        frac = next((r for r in columns if point[r].denominator != 1), None)
        if frac is None:
            best = relax  # integral, and better than the incumbent
            continue
        value = point[frac]
        floor_v = value.numerator // value.denominator
        stack.append((lo, {**hi, frac: floor_v}))
        stack.append(({**lo, frac: floor_v + 1}, hi))
    return best or IlpResult(IlpStatus.INFEASIBLE)
