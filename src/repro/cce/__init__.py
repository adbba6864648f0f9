"""Hand-written CCE baselines of the evaluation (Sec. 6.1).

Both compile a DAG operator by operator, each operator an isolated kernel
reading and writing global memory, with no fusion across operators; they
differ only in the machine and the options each kernel is built with.

- **Optimized CCE / vendor libraries** (:func:`cce_expert_build`):
  per-operator hand-tuned kernels -- expert tile sizes, vectorisation,
  fractal GEMM, DP-grouped synchronisation, double buffering *plus*
  hardware prefetching, which hides DMA start-up latency better than
  double buffering alone (the expert's small edge over AKG on single
  operators).  On fused subgraphs every intermediate tensor round-trips
  global memory, the 5.6x gap of Fig. 12.
- **Naive CCE** (:func:`cce_naive_build`): "written by the experts
  without using vendor libraries or performing optimizations", about
  2.8x behind the optimized code on single operators.  That is code that
  *does* use the vector/cube units (no expert writes per-element scalar
  loops) but skips every optimisation that takes effort: small,
  shape-oblivious tiles, no double buffering (transfers and compute
  serialise), full pipe barriers instead of fine-grained flags, and no
  alignment work (every vector intrinsic pays the unaligned path).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence

from repro.core.compiler import AkgOptions, CompiledKernel, build
from repro.hw.isa import Barrier, Instr, Program
from repro.hw.spec import HardwareSpec
from repro.ir.tensor import Tensor, placeholder

__all__ = ["cce_naive_build", "cce_expert_build", "isolate_op"]

_PREFETCH_LATENCY_SCALE = 0.7


def isolate_op(tensor: Tensor) -> Tensor:
    """Re-root one compute op onto fresh placeholder inputs.

    This is how the vendor library sees the world: every operator is an
    independent kernel reading and writing global memory.
    """
    if tensor.op is None:
        raise ValueError("cannot isolate a placeholder")
    mapping: Dict[int, Tensor] = {
        id(dep): placeholder(dep.shape, dep.dtype, name=f"{dep.name}_gm")
        for dep in tensor.op.input_tensors()
    }
    return tensor.rerooted(tensor.name, mapping)


def _per_op_build(
    outputs: Sequence[Tensor] | Tensor,
    name: str,
    suffix: str,
    hw: HardwareSpec,
    options: AkgOptions,
) -> CompiledKernel:
    """Every computed tensor of the DAG, in topological order, built as an
    isolated kernel on ``hw`` with ``options``, the kernels separated by
    full barriers: one program, and no lowered kernel of the whole DAG."""
    if isinstance(outputs, Tensor):
        outputs = [outputs]
    order: List[Tensor] = []
    seen = set()
    for out in outputs:
        for t in out.ancestors():
            if not t.is_placeholder and id(t) not in seen:
                seen.add(id(t))
                order.append(t)

    instrs: List[Instr] = []
    for i, t in enumerate(order):
        result = build(isolate_op(t), f"{name}_{t.name}", hw=hw, options=options)
        if i > 0:
            instrs.append(Barrier())
        instrs.extend(result.program.instructions)
    return CompiledKernel(Program(f"{name}_{suffix}", instrs), None, hw)


def cce_expert_build(
    outputs: Sequence[Tensor] | Tensor,
    name: str = "kernel",
    hw: Optional[HardwareSpec] = None,
) -> CompiledKernel:
    """Compile a DAG as a sequence of isolated expert kernels."""
    # The expert's effective machine: prefetching hides DMA start-up.
    expert_hw = copy.deepcopy(hw or HardwareSpec())
    expert_hw.dma_latency = {
        k: max(int(v * _PREFETCH_LATENCY_SCALE), 1)
        for k, v in expert_hw.dma_latency.items()
    }
    options = AkgOptions(sync_policy="dp", double_buffer=True)
    return _per_op_build(outputs, name, "expert", expert_hw, options)


def cce_naive_build(
    outputs: Sequence[Tensor] | Tensor,
    name: str = "kernel",
    hw: Optional[HardwareSpec] = None,
) -> CompiledKernel:
    """Compile the naive per-operator implementation."""
    # No alignment effort: every vector intrinsic pays the unaligned path.
    naive_hw = copy.deepcopy(hw or HardwareSpec())
    naive_hw.vector_unaligned_penalty = max(naive_hw.vector_unaligned_penalty, 2.0)
    options = AkgOptions(
        sync_policy="naive",
        double_buffer=False,
        tile_shrink=2,  # shape-oblivious small tiles
    )
    return _per_op_build(outputs, name, "naive", naive_hw, options)
