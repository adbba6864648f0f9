"""The ``te`` tensor-expression DSL (TVM-compatible surface).

Example (the paper's running example, Fig. 3a)::

    A  = placeholder((H, W), name="A")
    A1 = compute((H, W), lambda h, w: A[h, w] + bias, name="A1")
    B  = placeholder((KH, KW), name="B")
    kh = reduce_axis((0, KH), "kh")
    kw = reduce_axis((0, KW), "kw")
    C  = compute(
        (H - KH + 1, W - KW + 1),
        lambda h, w: te_sum(A1[h + kh, w + kw] * B[kh, kw], axis=(kh, kw)),
        name="C",
    )
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.expr import (
    BinaryOp,
    Cast,
    Expr,
    FloatImm,
    IntImm,
    IterVar,
    Reduce,
    Select,
    TensorRef,
    UnaryOp,
    wrap,
)

_name_counter = itertools.count()


def _auto_name(prefix: str) -> str:
    return f"{prefix}{next(_name_counter)}"


class SymDim:
    """A named symbolic dimension with a declared inclusive upper bound.

    Appears wherever a shape extent is expected (``placeholder``,
    ``compute``): the tensor's concrete shape stores ``max`` — so every
    shape-driven decision (tiling, buffers, domains) sees the worst case
    — while the symbolic identity rides alongside on
    :attr:`Tensor.sym_axes`.  At replay time the concrete value is bound
    from the input arrays, anywhere in ``[1, max]``.
    """

    __slots__ = ("name", "max")

    def __init__(self, name: str, max_value: int):
        if not name or not isinstance(name, str):
            raise ValueError(f"SymDim needs a non-empty string name, got {name!r}")
        self.name = name
        self.max = int(max_value)
        if self.max < 1:
            raise ValueError(f"SymDim {name!r} needs max >= 1, got {max_value}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymDim)
            and self.name == other.name
            and self.max == other.max
        )

    def __hash__(self) -> int:
        return hash((SymDim, self.name, self.max))

    def __repr__(self) -> str:
        return f"SymDim({self.name!r}, max={self.max})"


DimSpec = Union[int, SymDim]


class Tensor:
    """A named multi-dimensional value: either an input or a compute result."""

    def __init__(
        self,
        name: str,
        shape: Sequence[DimSpec],
        dtype: str = "fp32",
        op: Optional["ComputeOp"] = None,
    ):
        self.name = name
        self.sym_axes: Dict[int, SymDim] = {
            i: d for i, d in enumerate(shape) if isinstance(d, SymDim)
        }
        self.shape: Tuple[int, ...] = tuple(
            d.max if isinstance(d, SymDim) else int(d) for d in shape
        )
        if any(s <= 0 for s in self.shape):
            raise ValueError(f"tensor {name!r} has non-positive extent: {self.shape}")
        self.dtype = dtype
        self.op = op  # None for placeholders.

    @property
    def sym_shape(self) -> Tuple[DimSpec, ...]:
        """The shape with symbolic dims kept symbolic (ints elsewhere)."""
        return tuple(
            self.sym_axes.get(i, s) for i, s in enumerate(self.shape)
        )

    @property
    def is_placeholder(self) -> bool:
        """True when the tensor is an external input."""
        return self.op is None

    def __getitem__(self, indices) -> TensorRef:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return TensorRef(self, [wrap(i) for i in indices])

    def __repr__(self) -> str:
        kind = "placeholder" if self.is_placeholder else "compute"
        return f"Tensor({self.name}, {self.shape}, {self.dtype}, {kind})"

    def ancestors(self) -> List["Tensor"]:
        """All tensors this one transitively depends on (topological order).

        The result ends with ``self``; placeholders come first.
        """
        order: List[Tensor] = []
        seen = set()

        def visit(t: Tensor) -> None:
            if id(t) in seen:
                return
            seen.add(id(t))
            if t.op is not None:
                for dep in t.op.input_tensors():
                    visit(dep)
            order.append(t)

        visit(self)
        return order

    def rerooted(self, name: str, mapping: Dict[int, "Tensor"]) -> "Tensor":
        """A copy of this compute tensor named ``name`` whose body reads
        ``mapping[id(t)]`` wherever it read a mapped tensor ``t``: how a
        fused group (:func:`repro.graph.fusion.extract_subgraph`) and a
        baseline's single operator (:func:`repro.cce.isolate_op`) become
        kernels of their own."""
        body = _rebuild(self.op.body, mapping)
        return Tensor(name, self.shape, self.dtype, op=ComputeOp(self.op.axes, body))


def _rebuild(expr: Expr, mapping: Dict[int, Tensor]) -> Expr:
    """Copy an expression tree, redirecting tensor reads via ``mapping``."""
    if isinstance(expr, TensorRef):
        target = mapping.get(id(expr.tensor), expr.tensor)
        return TensorRef(target, [_rebuild(i, mapping) for i in expr.indices])
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, _rebuild(expr.a, mapping), _rebuild(expr.b, mapping))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rebuild(expr.a, mapping))
    if isinstance(expr, Select):
        return Select(
            _rebuild(expr.cond, mapping),
            _rebuild(expr.if_true, mapping),
            _rebuild(expr.if_false, mapping),
        )
    if isinstance(expr, Cast):
        return Cast(expr.dtype, _rebuild(expr.a, mapping))
    if isinstance(expr, Reduce):
        return Reduce(expr.op, _rebuild(expr.value, mapping), expr.axes)
    if isinstance(expr, (IntImm, FloatImm, IterVar)):
        return expr
    raise TypeError(f"cannot rebuild {type(expr).__name__}")


class ComputeOp:
    """The defining computation of a non-placeholder tensor."""

    def __init__(self, axes: Sequence[IterVar], body: Expr):
        self.axes: List[IterVar] = list(axes)
        self.body = body

    @property
    def reduce_axes(self) -> List[IterVar]:
        """Reduction axes when the body is a Reduce (else empty)."""
        return list(self.body.axes) if isinstance(self.body, Reduce) else []

    def input_tensors(self) -> List[Tensor]:
        """Distinct tensors read by the body, in first-read order."""
        from repro.ir.expr import collect_reads

        seen: List[Tensor] = []
        for ref in collect_reads(self.body):
            if ref.tensor not in seen:
                seen.append(ref.tensor)
        return seen


def placeholder(
    shape: Sequence[DimSpec], dtype: str = "fp32", name: Optional[str] = None
) -> Tensor:
    """Declare an external input tensor."""
    return Tensor(name or _auto_name("placeholder"), shape, dtype)


def compute(
    shape: Sequence[DimSpec],
    fcompute: Callable[..., Expr],
    name: Optional[str] = None,
    dtype: Optional[str] = None,
) -> Tensor:
    """Define a tensor by a per-element expression.

    ``fcompute`` receives one :class:`IterVar` per output dimension and
    returns the scalar expression for that element (optionally a
    :class:`Reduce` at the root).  A :class:`SymDim` entry makes the
    corresponding axis symbolic: its iterator ranges over the declared
    maximum at compile time and is clamped to the bound value at replay.
    """
    name = name or _auto_name("compute")
    axes = [
        IterVar(
            f"{name}_ax{i}",
            dim.max if isinstance(dim, SymDim) else dim,
            kind="data",
            sym=dim.name if isinstance(dim, SymDim) else None,
        )
        for i, dim in enumerate(shape)
    ]
    body = wrap(fcompute(*axes))
    dtype = dtype or body.dtype
    tensor = Tensor(name, shape, dtype, op=ComputeOp(axes, body))
    return tensor


def reduce_axis(bounds: Tuple[int, int], name: Optional[str] = None) -> IterVar:
    """Declare a reduction axis over ``[bounds[0], bounds[1])``."""
    lo, hi = bounds
    if isinstance(lo, SymDim) or isinstance(hi, SymDim):
        raise ValueError(
            "reduce_axis does not accept symbolic bounds: a reduction over a "
            "runtime-bound dim would change the result value with the binding"
        )
    if lo != 0:
        raise NotImplementedError("reduce_axis currently requires a 0 lower bound")
    return IterVar(name or _auto_name("red"), hi - lo, kind="reduce", lower=lo)


def te_sum(value: Expr, axis: Union[IterVar, Sequence[IterVar]]) -> Reduce:
    """Sum reduction (TVM's ``te.sum``)."""
    axes = [axis] if isinstance(axis, IterVar) else list(axis)
    return Reduce("sum", value, axes)


def te_max(value: Expr, axis: Union[IterVar, Sequence[IterVar]]) -> Reduce:
    """Max reduction."""
    axes = [axis] if isinstance(axis, IterVar) else list(axis)
    return Reduce("max", value, axes)


def te_min(value: Expr, axis: Union[IterVar, Sequence[IterVar]]) -> Reduce:
    """Min reduction."""
    axes = [axis] if isinstance(axis, IterVar) else list(axis)
    return Reduce("min", value, axes)
