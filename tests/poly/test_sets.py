"""Unit and property tests for integer sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.sets import BasicSet, Space


def box(name, **bounds):
    space = Space(name, list(bounds))
    return BasicSet.from_bounds(space, bounds)


class TestBasicSet:
    def test_universe_and_empty(self):
        space = Space("S", ["i"])
        assert not BasicSet.universe(space).is_empty()
        assert BasicSet.empty(space).is_empty()

    def test_box_membership(self):
        s = box("S", i=(0, 4), j=(2, 3))
        assert s.contains({"i": 0, "j": 2})
        assert s.contains((4, 3))
        assert not s.contains({"i": 5, "j": 2})
        assert not s.contains({"i": 0, "j": 1})

    def test_from_point(self):
        space = Space("S", ["i", "j"])
        s = BasicSet.from_point(space, (3, -1))
        assert s.contains((3, -1))
        assert not s.contains((3, 0))
        assert s.count_points() == 1

    def test_intersect(self):
        a = box("S", i=(0, 10))
        b = box("S", i=(5, 20))
        inter = a.intersect(b)
        assert inter.dim_min("i") == 5
        assert inter.dim_max("i") == 10

    def test_intersect_space_mismatch(self):
        a = box("S", i=(0, 10))
        b = box("S", j=(0, 10))
        with pytest.raises(ValueError):
            a.intersect(b)

    def test_emptiness_contradiction(self):
        s = box("S", i=(0, 10)).add_constraints(
            [Constraint.ge(var("i"), 11)]
        )
        assert s.is_empty()

    def test_integer_emptiness_of_rational_nonempty(self):
        # 0 <= 2i <= 1 has rational points but no integer interior...
        # 2i == 1 precisely: rationally feasible, integrally empty.
        space = Space("S", ["i"])
        s = BasicSet(space, [Constraint.eq(var("i") * 2, 1)])
        assert s.is_empty()

    def test_dim_bounds(self):
        s = box("S", i=(-3, 7))
        assert s.dim_min("i") == -3
        assert s.dim_max("i") == 7

    def test_bounding_box(self):
        s = box("S", i=(0, 4), j=(1, 2))
        assert s.bounding_box() == {"i": (0, 4), "j": (1, 2)}
        assert BasicSet.empty(Space("S", ["i"])).bounding_box() is None

    def test_lexmin_lexmax(self):
        s = box("S", i=(2, 5), j=(-1, 3))
        assert s.lexmin() == {"i": 2, "j": -1}
        assert s.lexmax() == {"i": 5, "j": 3}

    def test_count_points_triangle(self):
        # i in [0,3], j in [0,3], j <= i  ->  4+3+2+1 = 10 points.
        s = box("S", i=(0, 3), j=(0, 3)).add_constraints(
            [Constraint.le(var("j"), var("i"))]
        )
        assert s.count_points() == 10

    def test_project_out(self):
        s = box("S", i=(0, 3), j=(10, 12))
        p = s.project_out(["j"])
        assert p.space.dims == ("i",)
        assert p.dim_min("i") == 0 and p.dim_max("i") == 3

    def test_project_out_dependent(self):
        # 0 <= i <= 9, j == 2i: projecting j keeps 0 <= i <= 9.
        s = box("S", i=(0, 9), j=(0, 100)).add_constraints(
            [Constraint.eq(var("j"), var("i") * 2)]
        )
        p = s.project_out(["j"])
        assert p.dim_min("i") == 0 and p.dim_max("i") == 9

    def test_symbolic_bounds(self):
        # Triangle: 0 <= i <= 7, i <= j <= 7.
        space = Space("S", ["i", "j"])
        s = BasicSet(
            space,
            [
                Constraint.ge(var("i"), 0),
                Constraint.le(var("i"), 7),
                Constraint.ge(var("j"), var("i")),
                Constraint.le(var("j"), 7),
            ],
        )
        lowers, uppers = s.symbolic_bounds("j", ["i"])
        assert var("i") + 0 in lowers
        assert AffineExpr.constant(7) in uppers

    def test_rename_dims(self):
        s = box("S", i=(0, 3)).rename_dims({"i": "x"})
        assert s.space.dims == ("x",)
        assert s.dim_max("x") == 3

    def test_subset(self):
        small = box("S", i=(2, 3))
        big = box("S", i=(0, 10))
        assert small.is_subset(big)
        assert not big.is_subset(small)


@settings(max_examples=30, deadline=None)
@given(
    lo_i=st.integers(-4, 4),
    w_i=st.integers(0, 4),
    lo_j=st.integers(-4, 4),
    w_j=st.integers(0, 4),
)
def test_projection_soundness_on_boxes(lo_i, w_i, lo_j, w_j):
    """Projecting a box onto one axis yields exactly that axis interval."""
    s = box("S", i=(lo_i, lo_i + w_i), j=(lo_j, lo_j + w_j))
    p = s.project_out(["j"])
    assert p.dim_min("i") == lo_i
    assert p.dim_max("i") == lo_i + w_i
