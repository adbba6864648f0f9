"""Unit tests for affine expressions and constraints."""

from fractions import Fraction

import pytest

from repro.poly.affine import AffineExpr, Constraint, aff, var


class TestAffineExpr:
    def test_variable_and_constant(self):
        h = var("h")
        assert h.coeff("h") == 1
        assert h.const == 0
        five = AffineExpr.constant(5)
        assert five.is_constant()
        assert five.const == 5

    def test_addition_merges_coefficients(self):
        e = var("h") + var("w") + var("h") + 3
        assert e.coeff("h") == 2
        assert e.coeff("w") == 1
        assert e.const == 3

    def test_zero_coefficients_dropped(self):
        e = var("h") - var("h")
        assert e.is_constant()
        assert e.variables() == ()

    def test_subtraction_and_negation(self):
        e = 10 - var("x")
        assert e.coeff("x") == -1
        assert e.const == 10
        assert (-e).coeff("x") == 1

    def test_scalar_multiplication(self):
        e = (var("h") + 2) * 3
        assert e.coeff("h") == 3
        assert e.const == 6
        e2 = Fraction(1, 2) * var("h")
        assert e2.coeff("h") == Fraction(1, 2)

    def test_evaluate(self):
        e = aff({"h": 2, "w": -1}, 5)
        assert e.evaluate({"h": 3, "w": 4}) == 7

    def test_substitute_expression(self):
        e = aff({"h": 2}, 1)
        sub = e.substitute({"h": var("a") + var("b")})
        assert sub.coeff("a") == 2
        assert sub.coeff("b") == 2
        assert sub.const == 1

    def test_substitute_number(self):
        e = aff({"h": 2, "w": 1}, 0)
        sub = e.substitute({"h": 5})
        assert sub.coeff("h") == 0
        assert sub.const == 10
        assert sub.coeff("w") == 1

    def test_rename(self):
        e = aff({"h": 1}, 2).rename({"h": "x"})
        assert e.coeff("x") == 1
        assert e.coeff("h") == 0

    def test_rename_adds_colliding_terms(self):
        # a -> b lands on an existing b: 1*b + 2*b, not the last writer.
        e = AffineExpr({"a": 1, "b": 2}, 5).rename({"a": "b"})
        assert e.coeffs == {"b": Fraction(3)} and e.const == 5
        # Terms that cancel under the renaming disappear altogether.
        gone = AffineExpr({"a": 1, "b": -1, "c": 4}).rename({"a": "b"})
        assert gone.coeffs == {"c": Fraction(4)}
        # An injective renaming keeps coefficient order and values.
        kept = AffineExpr({"a": 2, "b": -3}).rename({"a": "z", "b": "y"})
        assert list(kept.coeffs.items()) == [("z", 2), ("y", -3)]
        # Numbers stay canonical: int when integral, Fraction only beyond.
        assert all(type(c) is int for c in kept.coeffs.values())
        assert type(e.coeffs["b"]) is int and type(e.const) is int
        halves = AffineExpr({"a": Fraction(1, 2), "b": Fraction(1, 2), "c": Fraction(1, 3)})
        merged = halves.rename({"a": "b"})
        assert merged.coeffs == {"b": 1, "c": Fraction(1, 3)}
        assert type(merged.coeffs["b"]) is int and type(merged.coeffs["c"]) is Fraction

    def test_equality_and_hash(self):
        a = var("h") + 1
        b = AffineExpr({"h": 1}, 1)
        assert a == b
        assert hash(a) == hash(b)

    def test_is_integral(self):
        assert aff({"h": 2}, 3).is_integral()
        assert not aff({"h": Fraction(1, 2)}, 0).is_integral()


class TestConstraint:
    def test_ge_le_eq_constructors(self):
        c = Constraint.ge(var("h"), 3)
        assert c.satisfied({"h": 3})
        assert not c.satisfied({"h": 2})
        c = Constraint.le(var("h"), 3)
        assert c.satisfied({"h": 3})
        assert not c.satisfied({"h": 4})
        c = Constraint.eq(var("h"), 3)
        assert c.satisfied({"h": 3})
        assert not c.satisfied({"h": 4})

    def test_normalisation_scales_to_coprime(self):
        c = Constraint.ge(var("h") * 4, 8)  # 4h - 8 >= 0 -> h - 2 >= 0
        assert c.expr.coeff("h") == 1
        assert c.expr.const == -2

    def test_normalisation_tightens_inequality_constant(self):
        # 2h - 3 >= 0  over integers is  h >= 2, i.e. h - 2 >= 0.
        c = Constraint.ge(var("h") * 2, 3)
        assert c.expr.coeff("h") == 1
        assert c.expr.const == -2

    def test_equality_not_tightened(self):
        # 2h == 3 has no integer solution but must not be rewritten.
        c = Constraint.eq(var("h") * 2, 3)
        assert c.expr.coeff("h") == 2
        assert c.expr.const == -3

    def test_rename_keeps_a_normal_constraint_normal(self):
        c = Constraint.ge(var("h") * 2 - var("w") * 3, 7)
        renamed = c.rename({"h": "x", "w": "y"})
        assert list(renamed.expr.coeffs.items()) == [("x", 2), ("y", -3)]
        assert renamed.expr.const == c.expr.const
        assert renamed == Constraint(renamed.expr, False)
        # A collision can leave a common factor to divide out:
        # h + w - 3 >= 0 becomes 2h - 3 >= 0, which tightens to h - 2 >= 0.
        merged = Constraint.ge(var("h") * 2 + var("w") * 2, 6).rename({"w": "h"})
        assert merged.expr.coeffs == {"h": Fraction(1)}
        assert merged.expr.const == -2

    def test_negate_inequality(self):
        c = Constraint.ge(var("h"), 3).negate()  # h <= 2
        assert c.satisfied({"h": 2})
        assert not c.satisfied({"h": 3})

    def test_negate_equality_raises(self):
        with pytest.raises(ValueError):
            Constraint.eq(var("h"), 3).negate()

    def test_trivial_checks(self):
        assert Constraint.ge(AffineExpr.constant(1), 0).is_trivially_true()
        assert Constraint.ge(AffineExpr.constant(-1), 0).is_trivially_false()
        assert Constraint.eq(AffineExpr.constant(0), 0).is_trivially_true()
        assert Constraint.eq(AffineExpr.constant(2), 0).is_trivially_false()
        assert not Constraint.ge(var("h"), 0).is_trivially_true()

    def test_fractional_input_normalised(self):
        c = Constraint.ge(var("h") * Fraction(1, 2), 1)  # h/2 >= 1 -> h >= 2
        assert c.satisfied({"h": 2})
        assert not c.satisfied({"h": 1})
