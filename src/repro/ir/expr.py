"""Scalar expression trees for the tensor DSL.

These play the role of HalideIR expressions in AKG: the body of every
``te.compute`` is one of these trees, later lowered to polyhedral
statements and interpreted by the functional executor.

Expressions support Python operator overloading so DSL bodies read
naturally: ``A[h, w] * B[kh, kw] + bias``.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

# Binary operator tokens understood by the executor and the cost model.
BINARY_OPS = {
    "add", "sub", "mul", "div", "max", "min", "pow",
    "eq", "ne", "lt", "le", "gt", "ge", "and", "or",
}
UNARY_OPS = {
    "neg", "abs", "exp", "log", "sqrt", "rsqrt", "relu", "sigmoid",
    "tanh", "floor", "ceil", "not",
}
REDUCE_OPS = {"sum", "max", "min", "prod"}


class Expr:
    """Base class for scalar expressions."""

    dtype: str = "fp32"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return BinaryOp("add", self, wrap(other))

    def __radd__(self, other):
        return BinaryOp("add", wrap(other), self)

    def __sub__(self, other):
        return BinaryOp("sub", self, wrap(other))

    def __rsub__(self, other):
        return BinaryOp("sub", wrap(other), self)

    def __mul__(self, other):
        return BinaryOp("mul", self, wrap(other))

    def __rmul__(self, other):
        return BinaryOp("mul", wrap(other), self)

    def __truediv__(self, other):
        return BinaryOp("div", self, wrap(other))

    def __rtruediv__(self, other):
        return BinaryOp("div", wrap(other), self)

    def __neg__(self):
        return UnaryOp("neg", self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.to_str()

    def to_str(self) -> str:
        """Human-readable rendering (overridden by subclasses)."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions."""
        return ()


def wrap(value: "Expr | Number") -> Expr:
    """Coerce Python numbers into immediate nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return IntImm(int(value))
    if isinstance(value, int):
        return IntImm(value)
    if isinstance(value, float):
        return FloatImm(value)
    raise TypeError(f"cannot use {value!r} in a tensor expression")


class IntImm(Expr):
    """Integer immediate."""

    dtype = "int32"

    def __init__(self, value: int):
        self.value = int(value)

    def to_str(self) -> str:
        return str(self.value)


class FloatImm(Expr):
    """Floating-point immediate."""

    def __init__(self, value: float, dtype: str = "fp32"):
        self.value = float(value)
        self.dtype = dtype

    def to_str(self) -> str:
        return repr(self.value)


class IterVar(Expr):
    """A loop iterator; ``kind`` is 'data' (parallel) or 'reduce'."""

    dtype = "int32"

    def __init__(
        self,
        name: str,
        extent: int,
        kind: str = "data",
        lower: int = 0,
        sym: Optional[str] = None,
    ):
        if kind not in ("data", "reduce"):
            raise ValueError(f"bad IterVar kind {kind!r}")
        # Interned: every compile of one graph then shares one string per
        # name, so pickled entries do not depend on what ran before.
        self.name = sys.intern(name)
        self.lower = lower
        self.extent = int(extent)
        self.kind = kind
        # Name of the symbolic dimension this iterator ranges over, or
        # None for a concrete extent.  ``extent`` always holds the
        # declared upper bound, so every consumer that only looks at
        # ``extent`` sees the concrete worst case.
        self.sym = sym

    def to_str(self) -> str:
        return self.name


class TensorRef(Expr):
    """A read of ``tensor[indices]`` inside an expression."""

    def __init__(self, tensor, indices: Sequence[Expr]):
        from repro.ir.tensor import Tensor

        if not isinstance(tensor, Tensor):
            raise TypeError("TensorRef expects a Tensor")
        if len(indices) != len(tensor.shape):
            raise ValueError(
                f"{tensor.name} has rank {len(tensor.shape)}, got "
                f"{len(indices)} indices"
            )
        self.tensor = tensor
        self.indices: List[Expr] = [wrap(i) for i in indices]
        self.dtype = tensor.dtype

    def to_str(self) -> str:
        idx = ", ".join(i.to_str() for i in self.indices)
        return f"{self.tensor.name}[{idx}]"

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.indices)


class BinaryOp(Expr):
    """Binary arithmetic/comparison node."""

    def __init__(self, op: str, a: Expr, b: Expr):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self.a = wrap(a)
        self.b = wrap(b)
        self.dtype = self.a.dtype if self.a.dtype != "int32" else self.b.dtype

    def to_str(self) -> str:
        return f"{self.op}({self.a.to_str()}, {self.b.to_str()})"

    def children(self) -> Tuple[Expr, ...]:
        return (self.a, self.b)


class UnaryOp(Expr):
    """Unary math node."""

    def __init__(self, op: str, a: Expr):
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        self.op = op
        self.a = wrap(a)
        self.dtype = self.a.dtype

    def to_str(self) -> str:
        return f"{self.op}({self.a.to_str()})"

    def children(self) -> Tuple[Expr, ...]:
        return (self.a,)


class Select(Expr):
    """Ternary select: ``cond ? if_true : if_false``."""

    def __init__(self, cond: Expr, if_true: Expr, if_false: Expr):
        self.cond = wrap(cond)
        self.if_true = wrap(if_true)
        self.if_false = wrap(if_false)
        self.dtype = self.if_true.dtype

    def to_str(self) -> str:
        return (
            f"select({self.cond.to_str()}, {self.if_true.to_str()}, "
            f"{self.if_false.to_str()})"
        )

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.if_true, self.if_false)


class Cast(Expr):
    """Precision conversion."""

    def __init__(self, dtype: str, a: Expr):
        self.dtype = dtype
        self.a = wrap(a)

    def to_str(self) -> str:
        return f"cast<{self.dtype}>({self.a.to_str()})"

    def children(self) -> Tuple[Expr, ...]:
        return (self.a,)


class Reduce(Expr):
    """Reduction over ``axes`` with combiner ``op`` ('sum'/'max'/'min'/'prod').

    Appears only at the root of a ``te.compute`` body; lowering splits it
    into an initialisation statement and an update statement, as in the
    paper's running example (Fig. 5a).
    """

    def __init__(self, op: str, value: Expr, axes: Sequence[IterVar]):
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown reduction {op!r}")
        for axis in axes:
            if axis.kind != "reduce":
                raise ValueError(f"axis {axis.name} is not a reduce_axis")
        self.op = op
        self.value = wrap(value)
        self.axes: List[IterVar] = list(axes)
        self.dtype = self.value.dtype

    @property
    def init_value(self) -> Expr:
        """Identity element of the combiner.

        ``max``/``min`` use the infinities: unlike a large finite constant
        they are representable in every float dtype, so the init store
        casts to fp16 without overflowing.
        """
        identities = {"sum": 0.0, "prod": 1.0, "max": -math.inf, "min": math.inf}
        return FloatImm(identities[self.op], self.dtype)

    def to_str(self) -> str:
        axes = ", ".join(a.name for a in self.axes)
        return f"{self.op}({self.value.to_str()}, axis=[{axes}])"

    def children(self) -> Tuple[Expr, ...]:
        return (self.value,)


# -- traversal helpers ---------------------------------------------------------


def walk(expr: Expr) -> Iterable[Expr]:
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def collect_reads(expr: Expr) -> List[TensorRef]:
    """All tensor reads in the tree, in :func:`walk`'s pre-order.

    One explicit-stack loop (children pushed reversed), not a generator
    per node: the disk-cache key walks every compute body through
    ``ComputeOp.input_tensors``, so this runs on every warm hit.
    """
    reads: List[TensorRef] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, TensorRef):
            reads.append(node)
        stack.extend(reversed(node.children()))
    return reads
