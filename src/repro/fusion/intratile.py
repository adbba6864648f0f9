"""Intra-tile fusion: managing the fork of data to compute units (Sec. 4.3).

Once a tile's data is on chip, the dataflow bifurcates: dot-product
reductions go to the Cube Unit (through L1 and L0A/L0B), everything else
streams to the Unified Buffer for the Vector/Scalar units.  This pass

- classifies every statement (``is_cube_statement`` implements the paper's
  hypothesis: *"an operator involving dot-product reductions is viewed as
  a convolution"*),
- wraps non-cube subtrees in ``Mark{"local_UB"}`` (isolation -- the reverse
  of the pre-tiling fusion, always valid under the conservative clustering),
- relies on the tree's per-statement filter structure for the default
  *loop distribution* inside ``local_UB`` (each vector statement can be
  vectorised independently).

Sec. 4.3 also sinks each vector statement's fastest-varying dim to the
innermost position of its band.  This lowering needs no such pass:
``lower()`` writes every statement's identity rows in loop order, so the
write's fastest dim is already innermost.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.ir.expr import BinaryOp, TensorRef
from repro.ir.lower import PolyStatement
from repro.sched.tree import DomainNode, FilterNode, MarkNode


class UnitAssignment:
    """Which compute unit and buffers each statement uses."""

    def __init__(self, units: Dict[str, str], buffers: Dict[str, str]):
        self.units = units  # stmt_id -> "cube" | "vector" | "scalar"
        self.buffers = buffers  # stmt_id -> "L1" | "UB"

    def unit_of(self, stmt_id: str) -> str:
        """Compute unit executing the statement."""
        return self.units[stmt_id]

    def __repr__(self) -> str:
        return f"UnitAssignment({self.units})"


def is_cube_statement(stmt: PolyStatement) -> bool:
    """True for dot-product reductions (conv / matmul / batched matmul).

    The pattern is a ``sum`` reduction whose body multiplies two tensor
    reads -- the paper's criterion for dispatch to the Cube Unit.  A
    padding guard (``Select(bounds, X[...], 0)``) around an operand still
    counts: the MTE's img2col performs the padding in flight.
    """
    from repro.ir.expr import Select

    if stmt.kind != "reduce" or stmt.reduce_op != "sum":
        return False
    expr = stmt.expr
    if not isinstance(expr, BinaryOp) or expr.op != "mul":
        return False

    def as_read(e):
        if isinstance(e, TensorRef):
            return e
        if isinstance(e, Select) and isinstance(e.if_true, TensorRef):
            return e.if_true
        return None

    reads = [r for r in (as_read(expr.a), as_read(expr.b)) if r is not None]
    if len(reads) != 2:
        return False
    # A genuine contraction multiplies two *different* access streams (a
    # weight side with its own output dim).  Squaring the same element
    # (x[i]*x[i], BatchNorm statistics) is a plain vector reduction.
    r1, r2 = reads
    if r1.tensor is r2.tensor and r1.to_str() == r2.to_str():
        return False
    return True


def _is_scalar_statement(stmt: PolyStatement) -> bool:
    """Statements that cannot vectorise (non-affine gathers, 0-d ops)."""
    if not stmt.iter_names:
        return True
    return any(not r.is_affine for r in stmt.reads)


def assign_compute_units(statements: Sequence[PolyStatement]) -> UnitAssignment:
    """Classify statements into cube/vector/scalar/mte and pick buffers.

    The init statement of a cube reduction rides with the Cube Unit (its
    result lives in L0C); zero-padding producers consumed only by cube
    statements are absorbed into the MTE's img2col (unit ``mte``, zero
    compute cost -- Sec. 4.5/Eq. 1 carries the padding); every other
    statement streams through UB.
    """
    from repro.conv.img2col import is_padding_statement

    units: Dict[str, str] = {}
    buffers: Dict[str, str] = {}
    cube_stmts = [s for s in statements if is_cube_statement(s)]
    cube_tensors = {s.tensor.name for s in cube_stmts}
    cube_read_tensors = {
        r.tensor.name for s in cube_stmts for r in s.reads
    }
    for stmt in statements:
        consumers = [
            s
            for s in statements
            if any(r.tensor is stmt.tensor for r in s.reads) and s is not stmt
        ]
        if is_cube_statement(stmt):
            units[stmt.stmt_id] = "cube"
            buffers[stmt.stmt_id] = "L1"
        elif stmt.kind == "init" and stmt.tensor.name in cube_tensors:
            # Cube accumulator initialisation happens in L0C.
            units[stmt.stmt_id] = "cube"
            buffers[stmt.stmt_id] = "L1"
        elif (
            is_padding_statement(stmt)
            and stmt.tensor.name in cube_read_tensors
            and consumers
            and all(is_cube_statement(c) for c in consumers)
        ):
            units[stmt.stmt_id] = "mte"
            buffers[stmt.stmt_id] = "L1"
        elif _is_scalar_statement(stmt):
            units[stmt.stmt_id] = "scalar"
            buffers[stmt.stmt_id] = "UB"
        else:
            units[stmt.stmt_id] = "vector"
            buffers[stmt.stmt_id] = "UB"
    return UnitAssignment(units, buffers)


def mark_local_buffers(
    tree: DomainNode, assignment: UnitAssignment
) -> DomainNode:
    """Wrap per-statement subtrees with ``local_UB`` / ``local_L1`` marks.

    Works on the filter granularity of the tree: any filter whose
    statements all stream to UB gets a ``local_UB`` mark (isolating it from
    the Cube dataflow), and cube filters get ``local_L1``.
    """
    for node in tree.find_all(FilterNode):
        if node.child is None or isinstance(node.child, MarkNode):
            continue
        kinds = {assignment.units.get(sid) for sid in node.stmt_ids}
        if kinds and kinds <= {"cube", "mte"}:
            node.set_child(MarkNode("local_L1", node.child))
        elif None not in kinds and "cube" not in kinds and len(node.stmt_ids) >= 1:
            # Leaf-level filters only (avoid re-marking group filters that
            # contain nested structure with cube statements).
            nested = {
                sid
                for d in node.child.walk()
                if isinstance(d, FilterNode)
                for sid in d.stmt_ids
            }
            if not nested or nested <= set(node.stmt_ids):
                node.set_child(MarkNode("local_UB", node.child))
    return tree
