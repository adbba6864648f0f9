"""Vectorisation analysis (Sec. 5.1).

The fusion strategy leaves each vector statement in its own distributed
loop; this module decides how each statement maps onto SIMD intrinsics:

- :func:`arithmetic_op_count`  -- one intrinsic per arithmetic node of the
  statement body (the CCE vector ISA executes one op per instruction);
- :func:`is_access_aligned`    -- whether the innermost run satisfies the
  32-byte UB block alignment (unaligned loads pay a penalty);
- :func:`full_tile_fraction`   -- the share of full tiles when isolating
  full from partial tiles.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ir.expr import BinaryOp, Cast, Expr, Select, UnaryOp, walk
from repro.ir.lower import PolyStatement

UB_BLOCK_BYTES = 32


def arithmetic_op_count(expr: Expr) -> int:
    """Number of vector intrinsics needed to evaluate ``expr`` per element."""
    count = 0
    for node in walk(expr):
        if isinstance(node, (BinaryOp, UnaryOp, Cast)):
            count += 1
        elif isinstance(node, Select):
            count += 2  # compare + select
    return max(count, 1)  # a bare copy still needs one move intrinsic


def vector_op_kinds(expr: Expr) -> List[str]:
    """The intrinsic mnemonics, outermost-last (for program dumps)."""
    ops: List[str] = []
    for node in walk(expr):
        if isinstance(node, BinaryOp):
            ops.append(node.op)
        elif isinstance(node, UnaryOp):
            ops.append(node.op)
        elif isinstance(node, Cast):
            ops.append(f"conv_{node.dtype}")
        elif isinstance(node, Select):
            ops.extend(["cmp", "sel"])
    return ops or ["copy"]


def innermost_run_elems(stmt: PolyStatement, extents: Sequence[int]) -> int:
    """Contiguous elements along the statement's fastest-varying axis."""
    if stmt.write.indices is None or not stmt.write.indices:
        return 1
    last_index = stmt.write.indices[-1]
    for pos in range(len(stmt.iter_names) - 1, -1, -1):
        dim = stmt.iter_names[pos]
        if last_index.coeff(dim) == 1:
            return max(extents[pos], 1)
    return 1


def is_access_aligned(
    stmt: PolyStatement, extents: Sequence[int], dtype_bytes: int
) -> bool:
    """True when the innermost run is a multiple of the UB block size."""
    run = innermost_run_elems(stmt, extents)
    return (run * dtype_bytes) % UB_BLOCK_BYTES == 0


def full_tile_fraction(
    extents: Sequence[int], tile_sizes: Sequence[int]
) -> float:
    """Fraction of tiles that are full when isolating full/partial tiles.

    ``extents`` are the band-row extents, ``tile_sizes`` the chosen sizes.
    Partial tiles appear on each dimension whose extent is not divisible.
    """
    full = 1.0
    total = 1.0
    for extent, size in zip(extents, tile_sizes):
        size = min(size, extent)
        n_tiles = -(-extent // size)
        n_full = extent // size
        total *= n_tiles
        full *= n_full
    if total == 0:
        return 1.0
    return full / total
