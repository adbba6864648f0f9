"""Integer sets: conjunctions of affine constraints.

A :class:`BasicSet` is the set of integer points of a :class:`Space` that
satisfy a conjunction of affine constraints (a polyhedron intersected with
the integer lattice).  The vocabulary follows isl: ``intersect``,
``project_out``, ``lexmin``, ``dim_min``/``dim_max`` ...  No compiler pass
needs a union of basic sets: the reverse tiling strategy over-approximates
its one union by a single basic map (:mod:`repro.tiling.reverse`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.poly.affine import AffineExpr, Constraint, ratio
from repro.poly.fm import project_onto, remove_redundant
from repro.poly.ilp import IlpProblem, IlpStatus

_fresh_counter = itertools.count()


def fresh_name(base: str) -> str:
    """Produce a globally unique dimension name derived from ``base``."""
    return f"{base}__{next(_fresh_counter)}"


def implies(constraints: List[Constraint], candidate: Constraint) -> bool:
    """True when ``constraints`` entail ``candidate`` (exact ILP check)."""
    if candidate.is_equality:
        probe_up = IlpProblem(constraints + [Constraint.ge(candidate.expr, 1)])
        probe_dn = IlpProblem(constraints + [Constraint.le(candidate.expr, -1)])
        return not probe_up.is_feasible() and not probe_dn.is_feasible()
    return not IlpProblem(constraints + [candidate.negate()]).is_feasible()


class Space:
    """An ordered list of dimension names with an optional tuple name.

    ``Space("S0", ["h", "w"])`` corresponds to isl's ``{ S0[h, w] }``.
    """

    __slots__ = ("name", "dims")

    def __init__(self, name: str = "", dims: Sequence[str] = ()):
        self.name = name
        self.dims: Tuple[str, ...] = tuple(dims)
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"duplicate dimension names in space: {self.dims}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return self.name == other.name and self.dims == other.dims

    def __hash__(self) -> int:
        return hash((self.name, self.dims))

    def __repr__(self) -> str:
        return f"{self.name}[{', '.join(self.dims)}]"


class BasicSet:
    """Integer points of ``space`` satisfying a constraint conjunction."""

    __slots__ = ("space", "constraints")

    def __init__(self, space: Space, constraints: Sequence[Constraint] = ()):
        self.space = space
        self.constraints: List[Constraint] = [
            c for c in constraints if not c.is_trivially_true()
        ]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def universe(space: Space) -> "BasicSet":
        """The whole space (no constraints)."""
        return BasicSet(space, [])

    @staticmethod
    def empty(space: Space) -> "BasicSet":
        """An explicitly empty set."""
        return BasicSet(space, [Constraint.eq(AffineExpr.constant(1), 0)])

    @staticmethod
    def from_bounds(
        space: Space, bounds: Mapping[str, Tuple[int, int]]
    ) -> "BasicSet":
        """Box: ``lo <= dim <= hi`` (inclusive) for each entry of ``bounds``."""
        cons: List[Constraint] = []
        for dim, (lo, hi) in bounds.items():
            v = AffineExpr.variable(dim)
            cons.append(Constraint.ge(v, lo))
            cons.append(Constraint.le(v, hi))
        return BasicSet(space, cons)

    @staticmethod
    def from_point(space: Space, point: Sequence[int]) -> "BasicSet":
        """Singleton set containing exactly ``point``."""
        cons = [
            Constraint.eq(AffineExpr.variable(dim), value)
            for dim, value in zip(space.dims, point)
        ]
        return BasicSet(space, cons)

    # -- basic algebra -------------------------------------------------------

    def intersect(self, other: "BasicSet") -> "BasicSet":
        """Conjunction of both constraint systems (same space required)."""
        if self.space.dims != other.space.dims:
            raise ValueError(
                f"space mismatch: {self.space!r} vs {other.space!r}"
            )
        return BasicSet(
            self.space, remove_redundant(self.constraints + other.constraints)
        )

    def add_constraints(self, constraints: Sequence[Constraint]) -> "BasicSet":
        """New set with extra constraints."""
        return BasicSet(self.space, list(self.constraints) + list(constraints))

    def rename_dims(self, mapping: Mapping[str, str]) -> "BasicSet":
        """Rename dimensions (and all occurrences inside constraints)."""
        dims = tuple(mapping.get(d, d) for d in self.space.dims)
        cons = [c.rename(mapping) for c in self.constraints]
        return BasicSet(Space(self.space.name, dims), cons)

    def project_out(self, names: Sequence[str]) -> "BasicSet":
        """Existentially quantify ``names`` away (rational FM projection)."""
        keep = [d for d in self.space.dims if d not in set(names)]
        cons = project_onto(self.constraints, keep)
        return BasicSet(Space(self.space.name, keep), cons)

    # -- decision procedures ---------------------------------------------------

    def _problem(self) -> IlpProblem:
        return IlpProblem(self.constraints)

    def is_empty(self) -> bool:
        """Exact integer emptiness check."""
        return not self._problem().is_feasible(integer=True)

    def contains(self, point: Mapping[str, int] | Sequence[int]) -> bool:
        """Membership test for a concrete integer point."""
        if not isinstance(point, Mapping):
            point = dict(zip(self.space.dims, point))
        env = {d: point.get(d, 0) for d in self.space.dims}
        return all(c.satisfied(env) for c in self.constraints)

    def is_subset(self, other: "BasicSet") -> bool:
        """Exact subset test: ``self`` entails every constraint of ``other``."""
        return all(implies(self.constraints, c) for c in other.constraints)

    def lexmin(self) -> Optional[Dict[str, int]]:
        """Lexicographically smallest point."""
        return self._problem().lexmin(list(self.space.dims))

    def dim_min(self, dim: str) -> Optional[int]:
        """Exact integer minimum of ``dim`` over the set (None if empty)."""
        result = self._problem().minimize(AffineExpr.variable(dim), integer=True)
        if result.status is IlpStatus.INFEASIBLE:
            return None
        if result.status is IlpStatus.UNBOUNDED:
            raise ValueError(f"dimension {dim!r} unbounded below")
        return int(result.value)

    def dim_max(self, dim: str) -> Optional[int]:
        """Exact integer maximum of ``dim`` over the set (None if empty)."""
        result = self._problem().maximize(AffineExpr.variable(dim), integer=True)
        if result.status is IlpStatus.INFEASIBLE:
            return None
        if result.status is IlpStatus.UNBOUNDED:
            raise ValueError(f"dimension {dim!r} unbounded above")
        return int(result.value)

    def bounding_box(self) -> Optional[Dict[str, Tuple[int, int]]]:
        """Per-dimension ``(min, max)``; ``None`` when the set is empty."""
        box: Dict[str, Tuple[int, int]] = {}
        for dim in self.space.dims:
            lo = self.dim_min(dim)
            if lo is None:
                return None
            hi = self.dim_max(dim)
            box[dim] = (lo, hi)
        return box

    def symbolic_bounds(
        self, dim: str, outer: Sequence[str]
    ) -> Tuple[List[AffineExpr], List[AffineExpr]]:
        """Affine lower/upper bounds of ``dim`` in terms of ``outer`` dims.

        Projects onto ``outer + [dim]`` then splits constraints by the sign
        of the coefficient of ``dim``.  Returns ``(lowers, uppers)`` such that
        ``dim >= ceil(lb)`` and ``dim <= floor(ub)`` -- the division by the
        coefficient is folded in (exprs may be rational; AST generation
        applies the ceil/floor).
        """
        keep = list(outer) + [dim]
        cons = project_onto(self.constraints, keep)
        lowers: List[AffineExpr] = []
        uppers: List[AffineExpr] = []
        for c in cons:
            a = c.expr.coeff(dim)
            if a == 0:
                continue
            rest = c.expr - AffineExpr({dim: a})
            bound = rest * ratio(-1, a)  # dim (>=, <=, ==) -rest/a
            if c.is_equality or a > 0:
                lowers.append(bound)
            if c.is_equality or a < 0:
                uppers.append(bound)
        return lowers, uppers

    def count_points(self, limit: int = 1_000_000) -> int:
        """Exact point count by recursive scanning (small sets / tests only)."""
        return sum(1 for _ in self.points(limit=limit))

    def points(self, limit: int = 1_000_000) -> Iterator[Tuple[int, ...]]:
        """Enumerate all integer points (bounded sets, tests only)."""
        box = self.bounding_box()
        if box is None:
            return
        ranges = [range(box[d][0], box[d][1] + 1) for d in self.space.dims]
        total = 1
        for r in ranges:
            total *= max(len(r), 1)
        if total > limit:
            raise ValueError(f"point enumeration over {total} candidates refused")
        for combo in itertools.product(*ranges):
            if self.contains(combo):
                yield combo

    def __repr__(self) -> str:
        cons = " and ".join(repr(c) for c in self.constraints) or "true"
        return f"{{ {self.space!r} : {cons} }}"
