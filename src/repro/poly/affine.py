"""Affine expressions over named dimensions.

An :class:`AffineExpr` is a linear combination of named variables plus an
integer (rational) constant: ``3*h + 2*w - 5``.  It is the atom from which
polyhedral constraints, access relations and schedules are built.

Expressions are immutable; arithmetic returns new objects.

**Numbers are exact and canonical**: a value is a plain ``int`` when it is
integral and a :class:`fractions.Fraction` only when its denominator is
> 1 (see :func:`canonical`).  Constraints normalise to coprime integers, so
nearly every number in the polyhedral layer is a machine int; because
``Fraction(n) == n`` and ``hash(Fraction(n)) == hash(n)``, which of the
two a value is never shows in an equality, a hash, a memo key or a dict
order.  Division goes through :func:`ratio`; a ``float`` is rejected with
``TypeError`` wherever a number enters, so an inexact value (``0.1``, a
stray ``1 / a``) fails loudly instead of rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

#: An exact number; stored ones are canonical (see :func:`canonical`).
Number = Union[int, Fraction]
#: Variable name -> nonzero canonical coefficient.
Coeffs = Dict[str, Number]


def canonical(value: Number) -> Number:
    """``value`` as an ``int`` when integral, else a reduced ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact number {value!r}: use int, Fraction or ratio()")
    f = Fraction(value)
    # int(): a numpy integer comes through Fraction as its own type.
    return int(f.numerator) if f.denominator == 1 else f


def ratio(a: Number, b: Number) -> Number:
    """The exact quotient ``a / b``, canonical."""
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
    return canonical(Fraction(a, b))


class AffineExpr:
    """Immutable affine expression ``sum(coeff[v] * v) + const``.

    The hash is computed once and memoized in the ``_hash`` slot:
    expressions are the atoms of every solver-cache key (a key is a tuple
    of constraints, each hashing its expression), so key construction is
    a hot path during dependence analysis and footprint probing.  The
    memo is excluded from pickles — Python string hashes are randomised
    per process, so a pickled hash would be wrong on the other side.
    """

    __slots__ = ("coeffs", "const", "_hash")

    # Interned single-variable expressions.  ``variable()`` is called far
    # more often than any other constructor (deltas, renames, bounds
    # objectives) and almost always for the same few dimension names; the
    # cap keeps fresh-name generators from growing the table unboundedly.
    _VAR_INTERN: Dict[str, "AffineExpr"] = {}
    _VAR_INTERN_MAX = 4096

    def __init__(self, coeffs: Mapping[str, Number] | None = None, const: Number = 0):
        clean: Coeffs = {}
        for name, c in (coeffs or {}).items():
            c = canonical(c)
            if c:
                clean[name] = c
        self.coeffs: Coeffs = clean
        self.const: Number = canonical(const)
        self._hash: int | None = None

    @classmethod
    def _of(cls, coeffs: Coeffs, const: Number) -> "AffineExpr":
        """Trusted constructor for arithmetic results.

        ``coeffs`` must be a fresh dict of nonzero canonical numbers and
        ``const`` canonical -- what ``__init__`` would have produced -- so
        its per-coefficient canonicalisation and zero filter are skipped.
        """
        self = cls.__new__(cls)
        self.coeffs = coeffs
        self.const = const
        self._hash = None
        return self

    # -- pickling (the hash memo must not cross process boundaries) --------

    def __getstate__(self):
        return (self.coeffs, self.const)

    def __setstate__(self, state):
        self.coeffs, self.const = state
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: Number) -> "AffineExpr":
        """An expression that is just a constant."""
        return AffineExpr({}, value)

    @staticmethod
    def variable(name: str) -> "AffineExpr":
        """The expression ``1 * name`` (hash-consed per name)."""
        interned = AffineExpr._VAR_INTERN.get(name)
        if interned is None:
            interned = AffineExpr({name: 1}, 0)
            if len(AffineExpr._VAR_INTERN) < AffineExpr._VAR_INTERN_MAX:
                AffineExpr._VAR_INTERN[name] = interned
        return interned

    # -- queries -----------------------------------------------------------

    def coeff(self, name: str) -> Number:
        """Coefficient of ``name`` (0 when absent)."""
        return self.coeffs.get(name, 0)

    def variables(self) -> Tuple[str, ...]:
        """Names of variables with nonzero coefficient, sorted."""
        return tuple(sorted(self.coeffs))

    def is_constant(self) -> bool:
        """True when no variable has a nonzero coefficient."""
        return not self.coeffs

    def as_variable(self) -> Optional[str]:
        """The variable this expression is (``x``: coefficient 1, constant
        0), or ``None``."""
        if self.const == 0 and len(self.coeffs) == 1:
            ((name, coeff),) = self.coeffs.items()
            if coeff == 1:
                return name
        return None

    def is_integral(self) -> bool:
        """True when all coefficients and the constant are integers."""
        return type(self.const) is int and all(
            type(c) is int for c in self.coeffs.values()
        )

    def evaluate(self, env: Mapping[str, Number]) -> Number:
        """Evaluate under an assignment of every variable."""
        total = self.const
        for name, c in self.coeffs.items():
            total += c * env[name]
        return canonical(total)

    def substitute(self, env: Mapping[str, "AffineExpr | Number"]) -> "AffineExpr":
        """Substitute variables by expressions (or numbers)."""
        coeffs: Coeffs = {}
        const = self.const
        for name, c in self.coeffs.items():
            if name not in env:
                _add_into(coeffs, ((name, c),))
                continue
            repl = env[name]
            if isinstance(repl, AffineExpr):
                _add_into(coeffs, ((n, _times(rc, c)) for n, rc in repl.coeffs.items()))
                const = const + repl.const * c
            else:
                const = const + canonical(repl) * c
        return AffineExpr._of(coeffs, canonical(const))

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename variables according to ``mapping`` (missing names kept).

        Terms whose variables map to one name are added together.
        """
        coeffs: Coeffs = {}
        _add_into(coeffs, ((mapping.get(n, n), c) for n, c in self.coeffs.items()))
        return AffineExpr._of(coeffs, self.const)

    def shape(self) -> Tuple[Tuple[str, ...], Tuple[Number, ...]]:
        """Name-free split ``(names, numbers)`` for the solver-memo keys.

        ``names`` are the variables in coefficient-dict order; ``numbers``
        are the coefficients in that order followed by the constant.
        """
        return tuple(self.coeffs), (*self.coeffs.values(), self.const)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "AffineExpr | Number") -> "AffineExpr":
        if not isinstance(other, AffineExpr):
            return AffineExpr._of(dict(self.coeffs), canonical(self.const + other))
        coeffs = dict(self.coeffs)
        _add_into(coeffs, other.coeffs.items())
        return AffineExpr._of(coeffs, canonical(self.const + other.const))

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr._of({n: -c for n, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "AffineExpr | Number") -> "AffineExpr":
        if not isinstance(other, AffineExpr):
            return AffineExpr._of(dict(self.coeffs), canonical(self.const - other))
        return self + (-other)

    def __rsub__(self, other: Number) -> "AffineExpr":
        return (-self) + other

    def __mul__(self, factor: Number) -> "AffineExpr":
        f = canonical(factor)
        if not f:
            return AffineExpr._of({}, 0)
        return AffineExpr._of(
            {n: _times(c, f) for n, c in self.coeffs.items()}, _times(self.const, f)
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((tuple(sorted(self.coeffs.items())), self.const))
            self._hash = h
        return h

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self.coeffs):
            c = self.coeffs[name]
            if c == 1:
                parts.append(f"{name}")
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _times(a: Number, b: Number) -> Number:
    """``a * b`` of two canonical numbers, canonical."""
    product = a * b
    return product if type(product) is int else canonical(product)


def _add_into(coeffs: Coeffs, terms: Iterable[Tuple[str, Number]]) -> None:
    """``coeffs += terms`` in place, deleting entries that cancel.

    A cancelled name that reappears later is appended afresh, exactly as
    when every intermediate sum went through ``AffineExpr.__init__``'s
    zero filter -- dict order feeds the presolve's elimination order.
    """
    for name, c in terms:
        old = coeffs.get(name)
        if old is not None:
            c = old + c
            if not c:
                del coeffs[name]
                continue
            if type(c) is not int:
                c = canonical(c)
        coeffs[name] = c


def var(name: str) -> AffineExpr:
    """Shorthand for :meth:`AffineExpr.variable`."""
    return AffineExpr.variable(name)


def aff(coeffs: Mapping[str, Number] | None = None, const: Number = 0) -> AffineExpr:
    """Shorthand constructor for an affine expression."""
    return AffineExpr(coeffs, const)


class Constraint:
    """An affine constraint ``expr >= 0`` (inequality) or ``expr == 0``.

    Constraints are normalised on construction: coefficients are scaled to
    coprime integers (for inequalities the constant is tightened with a floor
    division, which is exact for integer points).
    """

    __slots__ = ("expr", "is_equality", "_hash", "_shape")

    def __init__(self, expr: AffineExpr, is_equality: bool = False):
        self.expr = _normalize(expr, is_equality)
        self.is_equality = is_equality
        self._hash: int | None = None
        self._shape = None

    @classmethod
    def _of(cls, expr: AffineExpr, is_equality: bool, shape=None) -> "Constraint":
        """Trusted constructor: ``expr`` is already normal (see ``_normalize``)."""
        self = cls.__new__(cls)
        self.expr = expr
        self.is_equality = is_equality
        self._hash = None
        self._shape = shape
        return self

    def __getstate__(self):
        return (self.expr, self.is_equality)

    def __setstate__(self, state):
        self.expr, self.is_equality = state
        self._hash = None
        self._shape = None

    @staticmethod
    def ge(lhs: AffineExpr | Number, rhs: AffineExpr | Number = 0) -> "Constraint":
        """Constraint ``lhs >= rhs``."""
        return Constraint(_as_expr(lhs) - _as_expr(rhs), False)

    @staticmethod
    def le(lhs: AffineExpr | Number, rhs: AffineExpr | Number = 0) -> "Constraint":
        """Constraint ``lhs <= rhs``."""
        return Constraint(_as_expr(rhs) - _as_expr(lhs), False)

    @staticmethod
    def eq(lhs: AffineExpr | Number, rhs: AffineExpr | Number = 0) -> "Constraint":
        """Constraint ``lhs == rhs``."""
        return Constraint(_as_expr(lhs) - _as_expr(rhs), True)

    def variables(self) -> Tuple[str, ...]:
        """Variables appearing in the constraint."""
        return self.expr.variables()

    def shape(self) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        """:meth:`AffineExpr.shape` of the expression with ``is_equality``
        appended to the numbers (all ``int``: constraints are normalised).

        Memoized like the hash: one constraint object is keyed once per
        tile candidate and tensor dimension.
        """
        shape = self._shape
        if shape is None:
            names, numbers = self.expr.shape()
            shape = self._shape = (names, numbers + (self.is_equality,))
        return shape

    def satisfied(self, env: Mapping[str, Number]) -> bool:
        """Check the constraint under a full assignment."""
        value = self.expr.evaluate(env)
        return value == 0 if self.is_equality else value >= 0

    def substitute(self, env: Mapping[str, AffineExpr | Number]) -> "Constraint":
        """Substitute variables (returns a new constraint)."""
        return Constraint(self.expr.substitute(env), self.is_equality)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        """Rename variables (returns a new constraint)."""
        return Constraint(self.expr.rename(mapping), self.is_equality)

    def is_trivially_true(self) -> bool:
        """Constant constraint that always holds."""
        if not self.expr.is_constant():
            return False
        return self.expr.const == 0 if self.is_equality else self.expr.const >= 0

    def is_trivially_false(self) -> bool:
        """Constant constraint that never holds."""
        if not self.expr.is_constant():
            return False
        return self.expr.const != 0 if self.is_equality else self.expr.const < 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.is_equality == other.is_equality and self.expr == other.expr

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.expr, self.is_equality))
            self._hash = h
        return h

    def __repr__(self) -> str:
        op = "=" if self.is_equality else ">="
        return f"{self.expr} {op} 0"


def _as_expr(value: AffineExpr | Number) -> AffineExpr:
    return value if isinstance(value, AffineExpr) else AffineExpr.constant(value)


def _normalize(expr: AffineExpr, is_equality: bool) -> AffineExpr:
    """Scale to coprime integer coefficients; tighten inequality constants."""
    coeffs, const = expr.coeffs, expr.const
    scale = 1
    if not expr.is_integral():
        scale = lcm(const.denominator, *[c.denominator for c in coeffs.values()])
        coeffs = {n: c.numerator * (scale // c.denominator) for n, c in coeffs.items()}
        const = const.numerator * (scale // const.denominator)
    g = gcd(*coeffs.values())
    if is_equality and g > 1 and const % g != 0:
        g = 1  # no integer point satisfies it; the equality stays as it is
    if scale == 1 and g <= 1:
        return expr  # already normal
    if g > 1:
        coeffs = {n: c // g for n, c in coeffs.items()}
        # For an inequality floor(const / g) is the tightest integral bound.
        const = const // g
    return AffineExpr._of(coeffs, const)
