"""Affine relations (maps) between integer spaces.

A :class:`BasicMap` relates points of an input space to points of an output
space through a conjunction of affine constraints over both dimension lists
(dimension names must be disjoint between input and output).  A
:class:`Map` is a finite union of basic maps.

These model access relations (``S[h,w] -> A[h+kh, w+kw]``), schedules and
the tile-to-producer relations of AKG's reverse tiling strategy.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.poly.affine import AffineExpr, Constraint
from repro.poly.fm import project_onto, remove_redundant
from repro.poly.sets import BasicSet, Set, Space, fresh_name


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

    def reverse(self) -> "BasicMap":
        """Swap input and output."""
        return BasicMap(self.out_space, self.in_space, list(self.constraints))

    def intersect_domain(self, dom: BasicSet | Set) -> "BasicMap":
        """Restrict the input side to ``dom``."""
        extra: List[Constraint] = []
        parts = dom.parts if isinstance(dom, Set) else [dom]
        if len(parts) != 1:
            raise ValueError("intersect_domain on BasicMap needs a basic set")
        bset = parts[0]
        rename = dict(zip(bset.space.dims, self.in_space.dims))
        extra = [c.rename(rename) for c in bset.constraints]
        return BasicMap(self.in_space, self.out_space, self.constraints + extra)

    def intersect_range(self, rng: BasicSet | Set) -> "BasicMap":
        """Restrict the output side to ``rng``."""
        parts = rng.parts if isinstance(rng, Set) else [rng]
        if len(parts) != 1:
            raise ValueError("intersect_range on BasicMap needs a basic set")
        bset = parts[0]
        rename = dict(zip(bset.space.dims, self.out_space.dims))
        extra = [c.rename(rename) for c in bset.constraints]
        return BasicMap(self.in_space, self.out_space, self.constraints + extra)

    def apply(self, source: BasicSet | Set) -> Set:
        """Image of ``source`` under the map."""
        sets = source.parts if isinstance(source, Set) else [source]
        parts: List[BasicSet] = []
        for bset in sets:
            rename = dict(zip(bset.space.dims, self.in_space.dims))
            cons = [c.rename(rename) for c in bset.constraints] + list(
                self.constraints
            )
            projected = project_onto(cons, list(self.out_space.dims))
            part = BasicSet(self.out_space, remove_redundant(projected))
            if not part.is_empty():
                parts.append(part)
        return Set(self.out_space, parts)

    def preimage(self, target: BasicSet | Set) -> Set:
        """Preimage of ``target`` under the map."""
        return self.reverse().apply(target)

    def domain(self) -> BasicSet:
        """Projection of the relation onto the input dims."""
        cons = project_onto(self.constraints, list(self.in_space.dims))
        return BasicSet(self.in_space, cons)

    def range(self) -> BasicSet:
        """Projection of the relation onto the output dims."""
        cons = project_onto(self.constraints, list(self.out_space.dims))
        return BasicSet(self.out_space, cons)

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

    def add_constraints(self, constraints: Sequence[Constraint]) -> "BasicMap":
        """New map with extra constraints."""
        return BasicMap(
            self.in_space, self.out_space, list(self.constraints) + list(constraints)
        )

    def is_empty(self) -> bool:
        """Exact integer emptiness of the relation."""
        return self.wrap().is_empty()

    def to_map(self) -> "Map":
        """Wrap into a union with one disjunct."""
        return Map(self.in_space, self.out_space, [self])

    def eval_point(self, point: Mapping[str, int]) -> Optional[Dict[str, int]]:
        """For functional maps: image of one concrete input point."""
        cons = [
            Constraint.eq(AffineExpr.variable(d), point[d]) for d in self.in_space.dims
        ]
        restricted = BasicSet(
            Space("t", tuple(self.in_space.dims) + tuple(self.out_space.dims)),
            list(self.constraints) + cons,
        )
        sol = restricted.lexmin()
        if sol is None:
            return None
        return {d: sol[d] for d in self.out_space.dims}

    def __repr__(self) -> str:
        cons = " and ".join(repr(c) for c in self.constraints) or "true"
        return f"{{ {self.in_space!r} -> {self.out_space!r} : {cons} }}"


class Map:
    """Finite union of :class:`BasicMap` sharing spaces."""

    __slots__ = ("in_space", "out_space", "parts")

    def __init__(
        self, in_space: Space, out_space: Space, parts: Sequence[BasicMap] = ()
    ):
        self.in_space = in_space
        self.out_space = out_space
        self.parts: List[BasicMap] = list(parts)

    @staticmethod
    def empty(in_space: Space, out_space: Space) -> "Map":
        """Union with no disjuncts."""
        return Map(in_space, out_space, [])

    def union(self, other: "Map | BasicMap") -> "Map":
        """Union of relations."""
        parts = other.parts if isinstance(other, Map) else [other]
        return Map(self.in_space, self.out_space, self.parts + list(parts))

    def apply(self, source: BasicSet | Set) -> Set:
        """Image of ``source`` under the union of relations."""
        out = Set.empty(self.out_space)
        for part in self.parts:
            out = out.union(part.apply(source))
        return out

    def reverse(self) -> "Map":
        """Swap input and output on every disjunct."""
        return Map(self.out_space, self.in_space, [p.reverse() for p in self.parts])

    def domain(self) -> Set:
        """Union of disjunct domains."""
        return Set(self.in_space, [p.domain() for p in self.parts])

    def is_empty(self) -> bool:
        """True when every disjunct is empty."""
        return all(p.is_empty() for p in self.parts)

    def __repr__(self) -> str:
        return " u ".join(repr(p) for p in self.parts) or "{ empty map }"
