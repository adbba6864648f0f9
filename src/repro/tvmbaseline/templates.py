"""Hand-written schedule templates, as the vendor TVM team wrote them.

Each template takes the output tensor and applies schedule primitives --
tiling with expert-chosen factors, reordering, vectorisation of the
innermost axis, tensorisation of dot-product reductions onto the Cube
Unit, and double buffering.  ``template_for`` dispatches on the operator
pattern.  The per-class tile choices mirror the vendor heuristics: fit
half of UB for vector ops, classic (M, N) = (64, 256) blocks for GEMM,
one-batch spatial blocks for convolution.

These functions are also the corpus for the lines-of-code comparison of
Fig. 10 (templates are an order of magnitude shorter than the expert CCE
kernels, and the AKG DSL is shorter still).
"""

from __future__ import annotations

from typing import Callable, List

from repro.fusion.intratile import is_cube_statement
from repro.hw.spec import HardwareSpec
from repro.ir.lower import PolyStatement
from repro.ir.tensor import Tensor
from repro.tvmbaseline.schedule import Schedule


def matmul_template(s: Schedule, out: Tensor, hw: HardwareSpec) -> None:
    """GEMM: classic two-level blocking + tensorize, as vendors write it."""
    i = out.op.axes[0].name
    j = out.op.axes[1].name
    k = out.op.reduce_axes[0].name
    io, ii = s.split(out, i, 64)
    jo, ji = s.split(out, j, 256)
    s.reorder(out, [io, jo, ii, ji])
    s.tensorize(out, k)
    s.double_buffer(out)


def conv2d_template(s: Schedule, out: Tensor, hw: HardwareSpec) -> None:
    """Convolution: spatial blocking, full channels, tensorized MMAD."""
    n, co, ho, wo = (a.name for a in out.op.axes)
    rc = out.op.reduce_axes[0].name
    no, ni = s.split(out, n, 1)
    hoo, hoi = s.split(out, ho, 32)
    s.reorder(out, [no, hoo, ni, hoi, wo])
    s.tensorize(out, rc)
    s.double_buffer(out)


def batched_matmul_template(s: Schedule, out: Tensor, hw: HardwareSpec) -> None:
    """Batched GEMM: one batch per block, GEMM blocking inside."""
    b = out.op.axes[0].name
    i = out.op.axes[1].name
    j = out.op.axes[2].name
    k = out.op.reduce_axes[0].name
    bo, bi = s.split(out, b, 1)
    io, ii = s.split(out, i, 64)
    jo, ji = s.split(out, j, 256)
    s.reorder(out, [bo, io, jo, bi, ii, ji])
    s.tensorize(out, k)
    s.double_buffer(out)


def elementwise_template(s: Schedule, out: Tensor, hw: HardwareSpec) -> None:
    """Vector ops: block rows to fill half of UB, vectorize the last axis."""
    axes = [a.name for a in out.op.axes]
    elems_budget = hw.usable_capacity("UB") // (4 * hw.dtype_bytes(out.dtype))
    inner_elems = 1
    for extent in reversed(out.shape[1:]):
        inner_elems *= extent
    rows = max(min(out.shape[0], elems_budget // max(inner_elems, 1)), 1)
    ro, ri = s.split(out, axes[0], rows)
    s.vectorize(out, axes[-1] if len(axes) > 1 else ri)
    s.double_buffer(out)
    for producer_name, stage in list(s.stages.items()):
        if stage.tensor is not out and stage.compute_at is None:
            # Attach pointwise producers at the block level (the only
            # fusion compute_at supports on this backend).
            try:
                s.compute_at(stage.tensor, out, ro)
            except Exception:
                pass


def reduction_template(s: Schedule, out: Tensor, hw: HardwareSpec) -> None:
    """Vector reductions (BN statistics, softmax sums)."""
    axes = [a.name for a in out.op.axes]
    if axes:
        s.split(out, axes[0], max(out.shape[0] // 4, 1))
    red = out.op.reduce_axes
    if red:
        s.unroll(out, red[-1].name)
    s.double_buffer(out)


def template_for(out: Tensor) -> Callable[[Schedule, Tensor, HardwareSpec], None]:
    """Pick the template function by operator pattern."""
    op = out.op
    if op is None:
        raise ValueError("placeholders have no template")
    n_red = len(op.reduce_axes)
    rank = len(op.axes)
    if n_red >= 3 and rank == 4:
        return conv2d_template
    if n_red == 1 and rank == 2:
        return matmul_template
    if n_red == 1 and rank == 3:
        return batched_matmul_template
    if n_red > 0:
        return reduction_template
    return elementwise_template


# The TVM baseline's tile sizes: ``tvm_build`` starts each group here and
# refits until its storage plan fits.  For vector ops the row split
# differs from ``elementwise_template``'s (which no build runs).
def expert_tile_sizes(
    stmt: PolyStatement, hw: HardwareSpec
) -> List[int]:
    """Vendor-style initial tile sizes for one live-out statement."""
    extents = stmt.iter_extents[: stmt.data_rank]
    if is_cube_statement(stmt):
        if len(extents) == 2:  # GEMM
            return [min(extents[0], 64), min(extents[1], 256)]
        if len(extents) == 3:  # batched GEMM
            return [1, min(extents[1], 64), min(extents[2], 256)]
        if len(extents) == 4:  # conv NCHW: keep the row whole (DMA bursts)
            return [1, extents[1], min(extents[2], 32), extents[3]]
    # Vector/scalar: keep the innermost contiguous, block the outer dims.
    sizes = list(extents)
    budget = hw.usable_capacity("UB") // (4 * hw.dtype_bytes(stmt.tensor.dtype))
    total = 1
    for e in extents:
        total *= e
    k = 0
    while total > budget and k < 64:
        k += 1
        dim = max(range(len(sizes) - 1), key=lambda d: sizes[d], default=0)
        if sizes[dim] <= 1:
            break
        total //= sizes[dim]
        sizes[dim] = max(sizes[dim] // 2, 1)
        total *= sizes[dim]
    return sizes
