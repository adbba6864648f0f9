"""Affine relations (maps) between integer spaces.

A :class:`BasicMap` relates points of an input space to points of an output
space through a conjunction of affine constraints over both dimension lists
(dimension names must be disjoint between input and output).

These model access relations (``S[h,w] -> A[h+kh, w+kw]``), schedules and
the tile-to-producer relations of AKG's reverse tiling strategy.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.poly.affine import AffineExpr, Constraint
from repro.poly.fm import project_onto, remove_redundant
from repro.poly.sets import BasicSet, Space, fresh_name


class BasicMap:
    """Relation between ``in_space`` and ``out_space`` points."""

    __slots__ = ("in_space", "out_space", "constraints")

    def __init__(
        self,
        in_space: Space,
        out_space: Space,
        constraints: Sequence[Constraint] = (),
    ):
        overlap = set(in_space.dims) & set(out_space.dims)
        if overlap:
            raise ValueError(f"input/output dims must be disjoint, got {overlap}")
        self.in_space = in_space
        self.out_space = out_space
        self.constraints: List[Constraint] = [
            c for c in constraints if not c.is_trivially_true()
        ]

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_exprs(
        in_space: Space, out_space: Space, exprs: Sequence[AffineExpr]
    ) -> "BasicMap":
        """Functional map ``out_i == exprs[i](in dims)``."""
        if len(exprs) != len(out_space.dims):
            raise ValueError("one expression required per output dimension")
        cons = [
            Constraint.eq(AffineExpr.variable(dim), e)
            for dim, e in zip(out_space.dims, exprs)
        ]
        return BasicMap(in_space, out_space, cons)

    # -- algebra ----------------------------------------------------------------

    def compose(self, after: "BasicMap") -> "BasicMap":
        """Relation ``self ; after`` (apply ``self`` first, then ``after``)."""
        mid_rename = {d: fresh_name(d) for d in self.out_space.dims}
        self_cons = [c.rename(mid_rename) for c in self.constraints]
        after_rename = dict(zip(after.in_space.dims, [mid_rename[d] for d in self.out_space.dims]))
        if len(after.in_space.dims) != len(self.out_space.dims):
            raise ValueError("arity mismatch in map composition")
        after_cons = [c.rename(after_rename) for c in after.constraints]
        keep = list(self.in_space.dims) + list(after.out_space.dims)
        cons = project_onto(self_cons + after_cons, keep)
        return BasicMap(self.in_space, after.out_space, remove_redundant(cons))

    def wrap(self) -> BasicSet:
        """Flatten the relation into a set over ``in_dims + out_dims``."""
        dims = tuple(self.in_space.dims) + tuple(self.out_space.dims)
        name = f"{self.in_space.name}->{self.out_space.name}"
        return BasicSet(Space(name, dims), list(self.constraints))

    def __repr__(self) -> str:
        cons = " and ".join(repr(c) for c in self.constraints) or "true"
        return f"{{ {self.in_space!r} -> {self.out_space!r} : {cons} }}"
