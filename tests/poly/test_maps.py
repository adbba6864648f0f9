"""Unit tests for affine maps (relations).

A map's image and preimage boxes are posed to the ILP over its
constraints (``tests.poly._box``), as the compiler's oracles pose them.
"""

import pytest

from repro.poly.affine import Constraint, var
from repro.poly.maps import BasicMap
from repro.poly.sets import BasicSet, Space
from tests.poly._box import ilp_box
from tests.tiling._reference_footprint import compose


def stencil_map():
    """Access relation S[i] -> A[a] with a in {i, i+1, i+2} (3-point read)."""
    in_space = Space("S", ["i"])
    out_space = Space("A", ["a"])
    cons = [
        Constraint.ge(var("a"), var("i")),
        Constraint.le(var("a"), var("i") + 2),
    ]
    return BasicMap(in_space, out_space, cons)


def restrict(m, *sets):
    """``m`` with the constraints of ``sets`` added (their dims are ``m``'s)."""
    cons = m.constraints + [c for s in sets for c in s.constraints]
    return BasicMap(m.in_space, m.out_space, cons)


def range_box(m):
    return ilp_box(m.constraints, m.out_space.dims)


def domain_box(m):
    return ilp_box(m.constraints, m.in_space.dims)


class TestBasicMap:
    def test_disjoint_dims_enforced(self):
        with pytest.raises(ValueError):
            BasicMap(Space("S", ["i"]), Space("A", ["i"]))

    def test_from_exprs_functional(self):
        m = BasicMap.from_exprs(
            Space("S", ["i", "j"]), Space("A", ["a", "b"]),
            [var("i") + var("j"), var("j") * 2],
        )
        assert m.wrap().contains({"i": 3, "j": 4, "a": 7, "b": 8})
        assert not m.wrap().contains({"i": 3, "j": 4, "a": 7, "b": 9})

    def test_apply_translation(self):
        m = BasicMap.from_exprs(Space("S", ["i"]), Space("A", ["a"]), [var("i") + 5])
        src = BasicSet.from_bounds(Space("S", ["i"]), {"i": (0, 9)})
        assert range_box(restrict(m, src)) == {"a": (5, 14)}

    def test_apply_stencil_footprint(self):
        # Reading A[i..i+2] for i in [0, 9] touches A[0..11].
        src = BasicSet.from_bounds(Space("S", ["i"]), {"i": (0, 9)})
        assert range_box(restrict(stencil_map(), src)) == {"a": (0, 11)}

    def test_preimage(self):
        tgt = BasicSet.from_bounds(Space("A", ["a"]), {"a": (10, 10)})
        # i such that [i, i+2] contains 10: i in [8, 10].
        assert domain_box(restrict(stencil_map(), tgt)) == {"i": (8, 10)}

    def test_domain_and_range(self):
        m = restrict(stencil_map(), BasicSet.from_bounds(Space("S", ["i"]), {"i": (2, 4)}))
        assert domain_box(m) == {"i": (2, 4)}
        assert range_box(m) == {"a": (2, 6)}

    def test_compose_functional(self):
        # S[i] -> B[b = i*2]; B[b] -> C[c = b + 1]  ==> S[i] -> C[c = 2i+1].
        first = BasicMap.from_exprs(Space("S", ["i"]), Space("B", ["b"]), [var("i") * 2])
        second = BasicMap.from_exprs(Space("B", ["b"]), Space("C", ["c"]), [var("b") + 1])
        comp = compose(first, second)
        assert comp.wrap().contains({"i": 3, "c": 7})
        assert not comp.wrap().contains({"i": 3, "c": 6})

    def test_compose_arity_mismatch(self):
        first = BasicMap.from_exprs(Space("S", ["i"]), Space("B", ["b"]), [var("i")])
        second = BasicMap.from_exprs(
            Space("B2", ["x", "y"]), Space("C", ["c"]), [var("x") + var("y")]
        )
        with pytest.raises(ValueError):
            compose(first, second)

    def test_intersect_range(self):
        m = restrict(
            stencil_map(),
            BasicSet.from_bounds(Space("S", ["i"]), {"i": (0, 9)}),
            BasicSet.from_bounds(Space("A", ["a"]), {"a": (0, 3)}),
        )
        assert range_box(m) == {"a": (0, 3)}
        assert domain_box(m) == {"i": (0, 3)}

    def test_wrap(self):
        w = stencil_map().wrap()
        assert set(w.space.dims) == {"i", "a"}
        assert w.contains({"i": 2, "a": 3})
        assert not w.contains({"i": 2, "a": 6})


