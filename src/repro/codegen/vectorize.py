"""Vectorisation analysis (Sec. 5.1).

The fusion strategy leaves each vector statement in its own distributed
loop; this module decides how each statement maps onto SIMD intrinsics:

- :func:`arithmetic_op_count`  -- one intrinsic per arithmetic node of the
  statement body (the CCE vector ISA executes one op per instruction);
- :func:`is_access_aligned`    -- whether the innermost run satisfies the
  32-byte UB block alignment (unaligned loads pay a penalty).
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
