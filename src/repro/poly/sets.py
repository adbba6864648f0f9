"""Integer sets: conjunctions of affine constraints.

A :class:`BasicSet` is the set of integer points of a :class:`Space` that
satisfy a conjunction of affine constraints (a polyhedron intersected with
the integer lattice).  A set holds constraints for the passes that build
them: membership (``contains``) and loop bounds (``symbolic_bounds``) are
its only queries, and every other question -- emptiness, extrema, lexmin
-- is posed to :class:`~repro.poly.ilp.IlpProblem` over its constraints.
No compiler pass needs a union of basic sets: a fused producer's tile
relation is read off its span, the hull of its readers' reads
(:mod:`repro.tiling.reverse`).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from repro.poly.affine import AffineExpr, Constraint, ratio
from repro.poly.fm import project_onto


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

    def contains(self, point: Mapping[str, int] | Sequence[int]) -> bool:
        """Membership test for a concrete integer point."""
        if not isinstance(point, Mapping):
            point = dict(zip(self.space.dims, point))
        env = {d: point.get(d, 0) for d in self.space.dims}
        return all(c.satisfied(env) for c in self.constraints)

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

    def __repr__(self) -> str:
        cons = " and ".join(repr(c) for c in self.constraints) or "true"
        return f"{{ {self.space!r} : {cons} }}"
