"""Exact rational linear algebra used by the polyhedral layer.

All routines work on lists of lists of :class:`fractions.Fraction` (or ints)
and never fall back to floating point, so results are exact.  The matrices
involved in polyhedral compilation are tiny (tens of rows/columns), which
makes simple textbook algorithms the right choice.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def frac_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Deep-copy ``rows`` into a matrix of ``Fraction`` entries."""
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    """Return the ``n`` x ``n`` identity matrix."""
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Multiply two matrices exactly."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("incompatible shapes for mat_mul")
    cols = len(b[0]) if b else 0
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    """Multiply matrix ``a`` by column vector ``v``."""
    return [sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in a]


def row_echelon(rows: Sequence[Sequence]) -> Matrix:
    """Return the reduced row-echelon form of ``rows`` (exact)."""
    m = frac_matrix(rows)
    if not m:
        return m
    n_rows, n_cols = len(m), len(m[0])
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        # Find a row with a nonzero entry in this column.
        sel = next((r for r in range(pivot_row, n_rows) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[pivot_row], m[sel] = m[sel], m[pivot_row]
        pivot = m[pivot_row][col]
        m[pivot_row] = [x / pivot for x in m[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
    return m


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Return the rank of ``rows``."""
    ech = row_echelon(rows)
    return sum(1 for row in ech if any(x != 0 for x in row))


def null_space(rows: Sequence[Sequence]) -> List[Vector]:
    """Return a basis (list of vectors) of the right null space of ``rows``.

    The basis vectors are scaled to integer entries.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    ech = row_echelon(rows)
    pivots: List[int] = []
    for row in ech:
        col = next((j for j, x in enumerate(row) if x != 0), None)
        if col is not None:
            pivots.append(col)
    free = [j for j in range(n_cols) if j not in pivots]
    basis: List[Vector] = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        # Back-substitute pivot variables.
        for row, p in zip([r for r in ech if any(x != 0 for x in r)], pivots):
            vec[p] = -row[f]
        basis.append(scale_to_integer(vec))
    return basis


def scale_to_integer(vec: Sequence[Fraction]) -> Vector:
    """Scale a rational vector to the smallest integral multiple."""
    denoms = [Fraction(x).denominator for x in vec]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    scaled = [Fraction(x) * lcm for x in vec]
    g = 0
    for x in scaled:
        g = gcd(g, int(x))
    if g > 1:
        scaled = [x / g for x in scaled]
    return scaled


def vec_is_zero(vec: Sequence[Fraction]) -> bool:
    """True when all entries of ``vec`` are zero."""
    return all(x == 0 for x in vec)


def solve_linear_system(a: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """Solve ``a @ x = b`` exactly; return one solution or ``None``.

    When the system is under-determined the free variables are set to zero.
    """
    if not a:
        return []
    n_cols = len(a[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    ech = row_echelon(aug)
    x: Vector = [Fraction(0)] * n_cols
    for row in ech:
        col = next((j for j, v in enumerate(row[:-1]) if v != 0), None)
        if col is None:
            if row[-1] != 0:
                return None  # 0 = nonzero: inconsistent.
            continue
        x[col] = row[-1] - sum(
            (row[j] * x[j] for j in range(col + 1, n_cols)), Fraction(0)
        )
    # Verify (free variables may interact on non-reduced rows).
    for row, rhs in zip(a, b):
        acc = sum((Fraction(c) * x[j] for j, c in enumerate(row)), Fraction(0))
        if acc != Fraction(rhs):
            return None
    return x

