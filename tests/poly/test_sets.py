"""Unit and property tests for integer sets.

A set answers membership and loop bounds itself; emptiness, extrema,
lexmin and projection are the ILP's and FM's questions, posed here over
a set's constraints as the compiler poses them.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.fm import project_onto
from repro.poly.ilp import IlpProblem
from repro.poly.sets import BasicSet, Space
from tests.poly._box import ilp_box, implies


def box(name, **bounds):
    space = Space(name, list(bounds))
    return BasicSet.from_bounds(space, bounds)


def is_empty(constraints):
    return not IlpProblem(list(constraints)).is_feasible(integer=True)


class TestBasicSet:
    def test_universe_and_empty(self):
        space = Space("S", ["i"])
        assert BasicSet(space).contains((7,)) and not is_empty([])
        assert is_empty([Constraint.eq(AffineExpr.constant(1), 0)])

    def test_box_membership(self):
        s = box("S", i=(0, 4), j=(2, 3))
        assert s.contains({"i": 0, "j": 2})
        assert s.contains((4, 3))
        assert not s.contains({"i": 5, "j": 2})
        assert not s.contains({"i": 0, "j": 1})

    def test_from_point(self):
        s = box("S", i=(3, 3), j=(-1, -1))
        assert s.contains((3, -1))
        assert not s.contains((3, 0))
        assert ilp_box(s.constraints, ["i", "j"]) == {"i": (3, 3), "j": (-1, -1)}

    def test_intersect(self):
        a = box("S", i=(0, 10))
        b = box("S", i=(5, 20))
        assert ilp_box(a.constraints + b.constraints, ["i"]) == {"i": (5, 10)}

    def test_emptiness_contradiction(self):
        s = box("S", i=(0, 10))
        assert is_empty(s.constraints + [Constraint.ge(var("i"), 11)])

    def test_integer_emptiness_of_rational_nonempty(self):
        # 0 <= 2i <= 1 has rational points but no integer interior...
        # 2i == 1 precisely: rationally feasible, integrally empty.
        space = Space("S", ["i"])
        s = BasicSet(space, [Constraint.eq(var("i") * 2, 1)])
        assert IlpProblem(s.constraints).is_feasible(integer=False)
        assert is_empty(s.constraints)

    def test_dim_bounds(self):
        s = box("S", i=(-3, 7))
        assert ilp_box(s.constraints, ["i"]) == {"i": (-3, 7)}

    def test_bounding_box(self):
        s = box("S", i=(0, 4), j=(1, 2))
        assert ilp_box(s.constraints, ["i", "j"]) == {"i": (0, 4), "j": (1, 2)}
        assert ilp_box([Constraint.eq(AffineExpr.constant(1), 0)], ["i"]) is None

    def test_lexmin(self):
        s = box("S", i=(2, 5), j=(-1, 3))
        assert IlpProblem(s.constraints).lexmin(["i", "j"]) == {"i": 2, "j": -1}

    def test_count_points_triangle(self):
        # i in [0,3], j in [0,3], j <= i  ->  4+3+2+1 = 10 points.
        s = BasicSet(
            Space("S", ["i", "j"]),
            box("S", i=(0, 3), j=(0, 3)).constraints + [Constraint.le(var("j"), var("i"))],
        )
        points = itertools.product(range(4), repeat=2)
        assert sum(s.contains(p) for p in points) == 10

    def test_project_out(self):
        s = box("S", i=(0, 3), j=(10, 12))
        p = project_onto(s.constraints, ["i"])
        assert ilp_box(p, ["i"]) == {"i": (0, 3)}
        assert all(c.variables() == ("i",) for c in p)

    def test_project_out_dependent(self):
        # 0 <= i <= 9, j == 2i: projecting j keeps 0 <= i <= 9.
        s = box("S", i=(0, 9), j=(0, 100))
        p = project_onto(s.constraints + [Constraint.eq(var("j"), var("i") * 2)], ["i"])
        assert ilp_box(p, ["i"]) == {"i": (0, 9)}

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
        s = box("S", i=(0, 3))
        renamed = [c.rename({"i": "x"}) for c in s.constraints]
        assert ilp_box(renamed, ["x"]) == {"x": (0, 3)}

    def test_subset(self):
        small = box("S", i=(2, 3))
        big = box("S", i=(0, 10))
        assert all(implies(small.constraints, c) for c in big.constraints)
        assert not all(implies(big.constraints, c) for c in small.constraints)


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
    p = project_onto(s.constraints, ["i"])
    assert ilp_box(p, ["i"]) == {"i": (lo_i, lo_i + w_i)}
