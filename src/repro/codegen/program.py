"""Lowering tiled groups to the virtual CCE instruction stream.

For every :class:`~repro.fusion.posttile.TiledGroup` the builder emits one
tile loop whose body is a *stage chain*:

    inbound DMA  ->  per-statement compute stages  ->  outbound DMA

Cube statements expand to the Sec. 4.5 pipeline (img2col on the MTE,
fractal-aligned L0A/L0B loads, MMAD, L0C drain); vector statements become
one SIMD intrinsic per arithmetic op; scalar statements run on the Scalar
unit.  A group that streams its contraction in K chunks runs the chunked
stages in a loop that is one stage of the chain (pre -> K-chunk loop ->
post), so the L0C drain waits for the last mmad.  Synchronisation is
inserted by :mod:`repro.codegen.sync` under the selected policy, and
memory latency hiding (Sec. 5.2) is realised with loop-carried
double-buffering flags: the inbound DMA of tile ``i+2`` may start as soon
as the compute of tile ``i`` released its buffer half.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.codegen.sync import Stage, event_ids, link_stages, loop_stage
from repro.codegen.vectorize import (
    arithmetic_op_count,
    is_access_aligned,
    vector_op_kinds,
)
from repro.conv.fractal import fractal_gemm_for
from repro.conv.img2col import is_convolution_statement
from repro.fusion.intratile import UnitAssignment, assign_compute_units
from repro.fusion.posttile import TiledGroup
from repro.hw.isa import (
    Barrier,
    CubeInstr,
    DmaInstr,
    Img2ColInstr,
    Instr,
    Loop,
    Pipe,
    Program,
    ScalarInstr,
    SetFlag,
    VectorInstr,
    WaitFlag,
)
from repro.hw.spec import HardwareSpec
from repro.ir.lower import LoweredKernel, PolyStatement
from repro.storage.promote import StoragePlan

#: Label of a group's K-chunk loop (a hierarchical reduction, Sec. 4.4).
CHUNK_LOOP_LABEL = "k chunks"


class ProgramBuilder:
    """Builds a :class:`Program` from tiled groups and storage plans, under
    a sync policy (:mod:`repro.codegen.sync`), with or without double
    buffering (Sec. 5.2) and the replay trace ``execute`` needs."""

    def __init__(
        self,
        hw: Optional[HardwareSpec] = None,
        sync_policy: str = "dp",
        double_buffer: bool = True,
        emit_trace: bool = False,
    ):
        self.hw = hw or HardwareSpec()
        self.sync_policy = sync_policy
        self.double_buffer = double_buffer
        self.emit_trace = emit_trace

    # -- public entry ------------------------------------------------------------

    def build(
        self,
        kernel: LoweredKernel,
        groups: Sequence[TiledGroup],
        plans: Sequence[StoragePlan],
        assignments: Optional[Sequence[UnitAssignment]] = None,
    ) -> Program:
        """Lower all groups of one kernel into a single program."""
        events = event_ids()
        if assignments is None:
            assignments = [assign_compute_units(g.statements) for g in groups]
        instrs: List[Instr] = []
        for i, (group, plan, assignment) in enumerate(
            zip(groups, plans, assignments)
        ):
            if i > 0:
                instrs.append(Barrier())
            instrs.extend(self._build_group(group, plan, assignment, events))
        trace = None
        if self.emit_trace:
            trace = (kernel, list(groups))
        return Program(kernel.name, instrs, trace=trace)

    # -- per-group lowering ---------------------------------------------------------

    def _build_group(
        self,
        group: TiledGroup,
        plan: StoragePlan,
        assignment: UnitAssignment,
        events: Iterator[int],
    ) -> List[Instr]:
        pre, chunked, post = self._tile_stages(group, plan, assignment)
        stages = pre + chunked + post
        policy = self.sync_policy
        chain = stages
        if plan.reduce_chunks > 1 and chunked:
            # Hierarchical reduction: the contraction streams K in chunks
            # while the accumulator stays resident in L0C (Sec. 4.4); the
            # policy syncs the loop's two edges like any stage boundary.
            chunk_loop = loop_stage(
                plan.reduce_chunks, chunked, policy, events, label=CHUNK_LOOP_LABEL
            )
            chain = pre + [chunk_loop] + post
        body = link_stages(chain, policy, events)
        if not body:
            return []

        instrs: List[Instr] = []
        n_tiles = group.total_tiles
        depth = 2 if self.double_buffer else 1
        in_pipe = stages[0].pipe if stages else Pipe.MTE2
        comp_pipe = self._last_compute_pipe(stages)
        out_stages = [s for s in stages if s.pipe is Pipe.MTE3]

        carried: List[Instr] = []
        prologue: List[Instr] = []
        epilogue_sets: List[Instr] = []
        if n_tiles > 1 and comp_pipe is not None and comp_pipe != in_pipe:
            # Input-buffer recycling: DMA(i) waits compute(i - depth).
            prologue += [SetFlag(comp_pipe, in_pipe, 0) for _ in range(depth)]
            carried.append(WaitFlag(comp_pipe, in_pipe, 0))
            epilogue_sets.append(SetFlag(comp_pipe, in_pipe, 0))
        if n_tiles > 1 and out_stages and comp_pipe is not None:
            # Output-buffer recycling: compute(i) waits store(i - depth).
            prologue += [SetFlag(Pipe.MTE3, comp_pipe, 1) for _ in range(depth)]
            carried.append(WaitFlag(Pipe.MTE3, comp_pipe, 1))
            epilogue_sets.append(SetFlag(Pipe.MTE3, comp_pipe, 1))

        full_body = carried + body + epilogue_sets
        instrs.extend(prologue)
        if n_tiles == 1:
            instrs.extend(body)
        else:
            instrs.append(Loop(n_tiles, full_body, label="tile loop"))
        return instrs

    def _last_compute_pipe(self, stages: Sequence[Stage]) -> Optional[Pipe]:
        compute = [
            s.pipe
            for s in stages
            if s.pipe in (Pipe.V, Pipe.M, Pipe.S)
        ]
        return compute[-1] if compute else None

    # -- stage construction ------------------------------------------------------------

    def _tile_stages(
        self, group: TiledGroup, plan: StoragePlan, assignment: UnitAssignment
    ) -> Tuple[List[Stage], List[Stage], List[Stage]]:
        """Stages of one tile: (pre, reduction-chunked, post)."""
        pre: List[Stage] = []
        chunked: List[Stage] = []
        stages: List[Stage] = []
        n_chunks = plan.reduce_chunks

        for move in plan.moves:
            if move.direction == "in":
                target = chunked if move.chunked else pre
                nbytes = move.nbytes // n_chunks if move.chunked else move.nbytes
                runs = max(move.runs // n_chunks, 1) if move.chunked else move.runs
                target.append(
                    Stage(
                        DmaInstr(move.src, move.dst, 1).pipe,
                        [
                            DmaInstr(
                                move.src,
                                move.dst,
                                nbytes,
                                runs,
                                label=move.tensor_name,
                            )
                        ],
                        label=f"load {move.tensor_name}",
                    )
                )

        cube_init_tensors = {
            s.tensor.name
            for s in group.statements
            if assignment.unit_of(s.stmt_id) == "cube" and s.kind == "reduce"
        }
        pending_bounces = [m for m in plan.moves if m.direction == "bounce"]
        for stmt in group.statements:
            unit = assignment.unit_of(stmt.stmt_id)
            if (
                stmt.kind == "init"
                and stmt.tensor.name in cube_init_tensors
            ):
                continue  # folded into the MMAD accumulator initialisation
            if unit == "mte":
                continue  # absorbed into the consumer's img2col (Sec. 4.5)
            if unit == "cube":
                # Vector-produced operands bounce UB -> L1 first (the data
                # fork of Sec. 4.3), after their producers have executed.
                read_names = {r.tensor.name for r in stmt.reads}
                for move in [
                    m for m in pending_bounces if m.tensor_name in read_names
                ]:
                    pending_bounces.remove(move)
                    stages.append(
                        Stage(
                            Pipe.MTE1,
                            [
                                DmaInstr(
                                    move.src,
                                    move.dst,
                                    move.nbytes,
                                    move.runs,
                                    label=move.tensor_name,
                                )
                            ],
                            label=f"bounce {move.tensor_name}",
                        )
                    )
                cube = self._cube_stages(group, stmt, n_chunks)
                # The L0C drain happens once, after the last chunk.
                chunked.extend(cube[:-1])
                stages.append(cube[-1])
            elif unit == "vector":
                stages.append(self._vector_stage(group, stmt))
            else:
                stages.append(self._scalar_stage(group, stmt))

        for move in plan.moves:
            if move.direction == "out":
                stages.append(
                    Stage(
                        Pipe.MTE3,
                        [
                            DmaInstr(
                                move.src,
                                move.dst,
                                move.nbytes,
                                move.runs,
                                label=move.tensor_name,
                            )
                        ],
                        label=f"store {move.tensor_name}",
                    )
                )
        return pre, chunked, stages

    def _cube_stages(
        self, group: TiledGroup, stmt: PolyStatement, n_chunks: int = 1
    ) -> List[Stage]:
        extents = dict(zip(stmt.iter_names, group.instance_extents(stmt.stmt_id)))
        if n_chunks > 1:
            # Hierarchical tiling: split the dominant reduction dimension.
            dom = max(stmt.reduce_iters, key=lambda d: extents[d], default=None)
            if dom is not None:
                extents[dom] = max(extents[dom] // n_chunks, 1)
        gemm = fractal_gemm_for(stmt, extents, block=self.hw.cube_block)
        am, ak, an = gemm.aligned
        in_dtype = stmt.reads[-1].tensor.dtype if stmt.reads else "fp16"
        dbytes = self.hw.dtype_bytes(in_dtype)
        out: List[Stage] = []
        if is_convolution_statement(stmt):
            # img2col builds the aligned X matrix directly in L0A.
            x_bytes = am * ak * dbytes
            out.append(
                Stage(
                    Pipe.MTE1,
                    [Img2ColInstr(x_bytes, label=f"{stmt.stmt_id} img2col")],
                    label="img2col",
                )
            )
        else:
            out.append(
                Stage(
                    Pipe.MTE1,
                    [DmaInstr("L1", "L0A", am * ak * dbytes, 1, label="X")],
                    label="load X",
                )
            )
        out.append(
            Stage(
                Pipe.MTE1,
                [DmaInstr("L1", "L0B", ak * an * dbytes, 1, label="Y")],
                label="load Y",
            )
        )
        out.append(
            Stage(
                Pipe.M,
                [CubeInstr(gemm.m, gemm.k, gemm.n, in_dtype, label=stmt.stmt_id)],
                label="mmad",
            )
        )
        # Drain the accumulator (fp32 in L0C) to UB for the vector ops /
        # output store (a V-pipe intrinsic on DaVinci, so it pipelines
        # against the next tile's MTE1 loads).  Only the *useful* block is
        # copied -- the fractal padding columns stay in L0C.
        z_bytes = gemm.m * gemm.n * 4
        drain = DmaInstr("L0C", "UB", z_bytes, 1, label="Z")
        out.append(Stage(drain.pipe, [drain], label="drain Z"))
        return out

    def _vector_stage(self, group: TiledGroup, stmt: PolyStatement) -> Stage:
        extents = group.instance_extents(stmt.stmt_id)
        elems = 1
        for e in extents:
            elems *= max(e, 1)
        dtype = stmt.tensor.dtype
        dbytes = self.hw.dtype_bytes(dtype)
        aligned = is_access_aligned(stmt, extents, dbytes)
        if stmt.kind == "init":
            kinds = ["dup"]
        elif stmt.kind == "reduce":
            kinds = vector_op_kinds(stmt.expr) + ["cadd"]  # reduce intrinsic
        else:
            kinds = vector_op_kinds(stmt.expr)
        instrs = [
            VectorInstr(op, elems, dtype, aligned, label=stmt.stmt_id)
            for op in kinds
        ]
        return Stage(Pipe.V, instrs, label=stmt.stmt_id)

    def _scalar_stage(self, group: TiledGroup, stmt: PolyStatement) -> Stage:
        elems = group.instances_per_tile(stmt.stmt_id)
        ops = arithmetic_op_count(stmt.expr)
        return Stage(
            Pipe.S,
            [ScalarInstr(elems * ops, label=stmt.stmt_id)],
            label=stmt.stmt_id,
        )
