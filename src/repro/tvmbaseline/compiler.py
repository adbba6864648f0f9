"""The TVM-baseline compiler: templates + limited fusion + empirical sync.

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
3. **Padding**: templates pad vector spans up to the SIMD lane width
   during scheduling, so TVM's vector intrinsics are always aligned (the
   paper notes manual padding lets TVM win on a few shapes, at the price
   of computing the padded elements).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.codegen.program import ProgramBuilder
from repro.fusion.intratile import is_cube_statement
from repro.fusion.posttile import TiledGroup, group_filters
from repro.hw.isa import Program, VectorInstr
from repro.hw.simulator import SimReport, Simulator
from repro.hw.spec import HardwareSpec
from repro.ir.lower import LoweredKernel, lower
from repro.ir.tensor import Tensor
from repro.sched.clustering import Clustering, conservative_clustering
from repro.sched.deps import compute_dependences
from repro.sched.scheduler import PolyScheduler
from repro.storage.promote import StoragePlan
from repro.tiling import policy
from repro.tiling.invariants import SizeInvariants
from repro.tvmbaseline.schedule import Schedule
from repro.tvmbaseline.templates import expert_tile_sizes, template_for


class TvmCompileResult:
    """Compiled TVM-baseline program plus context."""

    def __init__(
        self,
        program: Program,
        kernel: LoweredKernel,
        groups: List[TiledGroup],
        plans: List[StoragePlan],
        hw: HardwareSpec,
        schedule: Schedule,
    ):
        self.program = program
        self.kernel = kernel
        self.groups = groups
        self.plans = plans
        self.hw = hw
        self.schedule = schedule

    def simulate(self) -> SimReport:
        """Run the cycle simulator."""
        return Simulator(self.hw).run(self.program)

    def cycles(self) -> int:
        """Simulated execution cycles."""
        return self.simulate().total_cycles

    def execute(self, inputs, engine="auto"):
        """Functional replay (requires ``emit_trace=True``)."""
        from repro.codegen.program_exec import execute_program

        return execute_program(self.program, inputs, engine=engine)


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


def _pointwise_clustering(kernel: LoweredKernel, deps) -> Clustering:
    """compute_at-style fusion: only uniform edges join the live-out group.

    Start from the conservative clustering, then *demote* any live-out
    member whose connection to the rest of the live-out group needs more
    than pointwise alignment (conservative clustering already requires
    uniform edges for the live-out merge, so this reduces to the same
    computation -- the difference against AKG materialises in
    ``tvm_build``, which never runs post-tiling fusion, so stencil
    producers always stay separate nests).
    """
    return conservative_clustering(kernel, deps)


def tvm_build(
    outputs: Sequence[Tensor] | Tensor,
    name: str = "kernel",
    hw: Optional[HardwareSpec] = None,
    emit_trace: bool = False,
    sync_policy: str = "empirical",
    apply_templates: bool = True,
) -> TvmCompileResult:
    """Compile with the TVM-baseline pipeline."""
    hw = hw or HardwareSpec()
    if isinstance(outputs, Tensor):
        outputs = [outputs]
    schedule = Schedule(outputs)
    if apply_templates:
        for out in outputs:
            template_for(out)(schedule, out, hw)

    kernel = lower(outputs, name)
    deps = compute_dependences(kernel)
    clustering = _pointwise_clustering(kernel, deps)
    tree = PolyScheduler().schedule_kernel(kernel, deps, clustering)

    invariants = SizeInvariants(kernel, hw)
    stmt_by_id = invariants.stmt_by_id

    def build_groups(shrink_fn):
        planned: List[policy.Planned] = []
        shrunk = False
        for f in group_filters(tree):
            # Templates key off the group's anchor: the contraction when
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
    return TvmCompileResult(program, kernel, groups, plans, hw, schedule)
