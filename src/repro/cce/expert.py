"""The optimized CCE / vendor-library baseline.

Hand-tuned per-operator kernels: each operator of a DAG is compiled as an
isolated, maximally-optimised kernel (expert tile sizes, vectorisation,
fractal GEMM, DP-grouped synchronisation, double buffering *plus* hardware
prefetching, which hides DMA start-up latency better than double
buffering alone -- the expert's small edge over AKG on single operators).

What the expert cannot do is fuse across operators: every intermediate
tensor round-trips global memory.  On single operators that costs nothing;
on fused subgraphs it is the 5.6x gap of Fig. 12.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence

from repro.cce.naive import CceCompileResult
from repro.hw.isa import Barrier, Instr, Program
from repro.hw.spec import HardwareSpec
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
)
from repro.ir.tensor import ComputeOp, Tensor, placeholder


# The vendor library covers the paper's ten single-operator classes; the
# only end-to-end network with a full hand-written implementation is
# ResNet-50 (Sec. 6.3).
_PREFETCH_LATENCY_SCALE = 0.7


def _prefetch_spec(hw: HardwareSpec) -> HardwareSpec:
    """The expert's effective machine: prefetching hides DMA start-up."""
    spec = copy.deepcopy(hw)
    spec.dma_latency = {
        k: max(int(v * _PREFETCH_LATENCY_SCALE), 1)
        for k, v in spec.dma_latency.items()
    }
    return spec


def _rebuild_expr(expr: Expr, mapping: Dict[int, Tensor]) -> Expr:
    """Copy an expression tree, redirecting tensor reads via ``mapping``."""
    if isinstance(expr, TensorRef):
        target = mapping.get(id(expr.tensor), expr.tensor)
        return TensorRef(target, [_rebuild_expr(i, mapping) for i in expr.indices])
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, _rebuild_expr(expr.a, mapping), _rebuild_expr(expr.b, mapping)
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rebuild_expr(expr.a, mapping))
    if isinstance(expr, Select):
        return Select(
            _rebuild_expr(expr.cond, mapping),
            _rebuild_expr(expr.if_true, mapping),
            _rebuild_expr(expr.if_false, mapping),
        )
    if isinstance(expr, Cast):
        return Cast(expr.dtype, _rebuild_expr(expr.a, mapping))
    if isinstance(expr, Reduce):
        return Reduce(expr.op, _rebuild_expr(expr.value, mapping), expr.axes)
    if isinstance(expr, (IntImm, FloatImm, IterVar)):
        return expr
    raise TypeError(f"cannot rebuild {type(expr).__name__}")


def isolate_op(tensor: Tensor) -> Tensor:
    """Re-root one compute op onto fresh placeholder inputs.

    This is how the vendor library sees the world: every operator is an
    independent kernel reading and writing global memory.
    """
    if tensor.op is None:
        raise ValueError("cannot isolate a placeholder")
    mapping: Dict[int, Tensor] = {}
    for dep in tensor.op.input_tensors():
        mapping[id(dep)] = placeholder(dep.shape, dep.dtype, name=f"{dep.name}_gm")
    body = _rebuild_expr(tensor.op.body, mapping)
    return Tensor(
        tensor.name, tensor.shape, tensor.dtype, op=ComputeOp(tensor.op.axes, body)
    )


def cce_expert_build(
    outputs: Sequence[Tensor] | Tensor,
    name: str = "kernel",
    hw: Optional[HardwareSpec] = None,
) -> CceCompileResult:
    """Compile a DAG as a sequence of isolated expert kernels."""
    from repro.core.compiler import AkgOptions, build
    from repro.ir.lower import lower

    hw = hw or HardwareSpec()
    expert_hw = _prefetch_spec(hw)
    if isinstance(outputs, Tensor):
        outputs = [outputs]

    # Execution order: every computed tensor in the DAG, topologically.
    order: List[Tensor] = []
    seen = set()
    for out in outputs:
        for t in out.ancestors():
            if not t.is_placeholder and id(t) not in seen:
                seen.add(id(t))
                order.append(t)

    instrs: List[Instr] = []
    for i, t in enumerate(order):
        isolated = isolate_op(t)
        result = build(
            isolated,
            f"{name}_{t.name}",
            hw=expert_hw,
            options=AkgOptions(sync_policy="dp", double_buffer=True),
        )
        if i > 0:
            instrs.append(Barrier())
        instrs.extend(result.program.instructions)

    kernel = lower(outputs, name)
    return CceCompileResult(
        Program(f"{name}_expert", instrs), kernel, expert_hw
    )
