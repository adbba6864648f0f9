"""The TVM-baseline compiler: vendor tile sizes + limited fusion +
empirical sync + manual padding.

Reuses the shared lowering, storage and instruction-emission machinery --
the baseline targets the same chip -- but with the three documented
differences from AKG:

1. **Fusion**: only pointwise (constant-distance) producer chains fuse
   into a consumer's tile nest (``compute_at`` semantics).  Stencil or
   permuted producers -- anything needing overlapped / complex tile
   shapes -- split into separate kernels with a GM round trip, which is
   precisely where AKG wins on subgraph1/subgraph5 (Sec. 6.2).
2. **Synchronisation**: the vendor team's empirical flag grouping
   (per-instruction pairs) instead of AKG's DP policy -- the source of the
   GEMM gap in Fig. 11 (Sec. 6.1).
3. **Padding**: :class:`_TvmProgramBuilder` pads vector spans up to the
   SIMD lane width, so TVM's vector intrinsics are always aligned (the
   paper notes manual padding lets TVM win on a few shapes, at the price
   of computing the padded elements).

Tile sizes are the vendor heuristics of :func:`expert_tile_sizes`, refit
until the storage plan fits.  The schedule templates the vendor team wrote
around them are Fig. 10's lines-of-code corpus, kept as text in
``benchmarks/test_fig10_loc.py``; no template runs in the build.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.codegen.program import ProgramBuilder
from repro.core.compiler import CompiledKernel
from repro.fusion.intratile import is_cube_statement
from repro.fusion.posttile import TiledGroup, group_filters
from repro.hw.isa import Program, VectorInstr
from repro.hw.simulator import Simulator
from repro.hw.spec import HardwareSpec
from repro.ir.lower import LoweredKernel, PolyStatement, lower
from repro.ir.tensor import Tensor
from repro.sched.clustering import conservative_clustering
from repro.sched.deps import compute_dependences
from repro.sched.scheduler import PolyScheduler
from repro.storage.promote import StoragePlan
from repro.tiling import policy
from repro.tiling.invariants import SizeInvariants


class TvmCompileResult(CompiledKernel):
    """Compiled TVM-baseline program plus its tile nests and storage plans."""

    def __init__(
        self,
        program: Program,
        kernel: LoweredKernel,
        groups: List[TiledGroup],
        plans: List[StoragePlan],
        hw: HardwareSpec,
    ):
        super().__init__(program, kernel, hw)
        self.groups = groups
        self.plans = plans


def expert_tile_sizes(stmt: PolyStatement, hw: HardwareSpec) -> List[int]:
    """Vendor-style initial tile sizes for one live-out statement.

    GEMM and convolution take their templates' split factors ((64, 256)
    blocks; one batch and 32 rows); vector ops halve their outer dims
    until a quarter of UB holds the tile."""
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


class _TvmProgramBuilder(ProgramBuilder):
    """Instruction emission with TVM's manual-padding behaviour."""

    def _vector_stage(self, group, stmt):
        stage = super()._vector_stage(group, stmt)
        lanes = self.hw.vector_lanes(stmt.tensor.dtype)
        padded = []
        for instr in stage.instrs:
            if isinstance(instr, VectorInstr):
                # Pad the span to a full repeat: always aligned, but the
                # padded elements are computed too.
                elems = -(-instr.elems // lanes) * lanes
                padded.append(
                    VectorInstr(instr.op, elems, instr.dtype, True, instr.label)
                )
            else:
                padded.append(instr)
        stage.instrs = padded
        return stage


def tvm_build(
    outputs: Sequence[Tensor] | Tensor,
    name: str = "kernel",
    hw: Optional[HardwareSpec] = None,
    emit_trace: bool = False,
    sync_policy: str = "empirical",
) -> TvmCompileResult:
    """Compile with the TVM-baseline pipeline."""
    hw = hw or HardwareSpec()
    kernel = lower(outputs, name)
    deps = compute_dependences(kernel)
    # compute_at-style fusion: the conservative clustering already joins
    # the live-out group only over uniform edges, and no post-tiling
    # fusion runs below, so stencil producers stay separate nests.
    clustering = conservative_clustering(kernel, deps)
    tree = PolyScheduler().schedule_kernel(kernel, deps, clustering)

    invariants = SizeInvariants(kernel, hw)
    stmt_by_id = invariants.stmt_by_id

    def build_groups(shrink_fn):
        planned: List[policy.Planned] = []
        shrunk = False
        for f in group_filters(tree):
            # Vendor sizes key off the group's anchor: the contraction when
            # there is one, else the last (output) statement.
            cube_in_group = [
                stmt_by_id[sid]
                for sid in f.stmt_ids
                if is_cube_statement(stmt_by_id[sid])
            ]
            lead = (
                cube_in_group[0] if cube_in_group else stmt_by_id[f.stmt_ids[-1]]
            )
            # Refit: shrink until the exact storage plan fits (the tuner's
            # feedback loop the vendor team ran).
            fitted, group_shrunk = policy.fit_group(
                f, invariants, expert_tile_sizes(lead, hw), shrink_fn
            )
            planned.append(fitted)
            shrunk = shrunk or group_shrunk
        return planned, shrunk

    def compile_groups(planned):
        groups = [p.group for p in planned]
        plans = [p.plan for p in planned]
        builder = _TvmProgramBuilder(hw, sync_policy, emit_trace=emit_trace)
        program = builder.build(
            kernel, groups, plans, [p.assignment for p in planned]
        )
        return groups, program, plans

    planned, shrunk = build_groups(policy.capacity_shrink)
    groups, program, plans = compile_groups(planned)
    if shrunk and any(len(g.tile_sizes) == 4 for g in groups):
        # The vendor auto-tuner measures: also try the spatial-first
        # shrink order and keep the faster candidate.
        alt_planned, _ = build_groups(policy.halve_conv_spatial)
        alt_groups, alt_program, alt_plans = compile_groups(alt_planned)
        if (
            Simulator(hw).run(alt_program).total_cycles
            < Simulator(hw).run(program).total_cycles
        ):
            groups, program, plans = alt_groups, alt_program, alt_plans
    return TvmCompileResult(program, kernel, groups, plans, hw)
