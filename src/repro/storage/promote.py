"""Buffer promotion: deciding where every data tile lives (Sec. 4.4).

For one :class:`~repro.fusion.posttile.TiledGroup` the planner computes,
per tensor:

- the **footprint box** of one tile -- the maximum per-dimension extent of
  the elements accessed by any tile (the "constant-size strided block" /
  rectangular over-approximation of the paper): interval arithmetic over
  a statement's tile window (a live-out statement's, or the one a fused
  producer derives from its consumers'), Fourier-Motzkin over the
  composed ``tile -> instances -> elements`` relation of a statement
  without one;
- the **role** of the tensor inside the group: external input (inbound
  DMA), kernel output (outbound DMA), or tile-local intermediate (on-chip
  only -- the fusion payoff);
- the **scope** it is promoted to (L1 for Cube operands, UB for
  Vector/Scalar data, L0A/L0B/L0C for the fractal GEMM operands).

The resulting :class:`StoragePlan` drives both code generation (DMA
instructions) and the Auto-Tiler's utilisation polynomial.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core import faults, resilience
from repro.core.errors import CodegenError
from repro.fusion.intratile import UnitAssignment
from repro.fusion.posttile import TiledGroup
from repro.hw.spec import HardwareSpec
from repro.ir.lower import LoweredKernel, PolyStatement, TensorAccess
from repro.tiling.invariants import SizeInvariants
from repro.tiling.reverse import footprint_bounds


class BufferAllocation:
    """One tensor's on-chip allocation for a tile."""

    __slots__ = (
        "tensor_name",
        "scope",
        "box",
        "elems",
        "nbytes",
        "dtype",
        "double_buffered",
    )

    def __init__(
        self,
        tensor_name: str,
        scope: str,
        box: List[int],
        dtype: str,
        dtype_bytes: int,
        double_buffered: bool = True,
    ):
        self.tensor_name = tensor_name
        self.scope = scope
        self.box = box  # per-dimension extents of the promoted block
        self.elems = 1
        for e in box:
            self.elems *= max(e, 1)
        self.dtype = dtype
        self.nbytes = self.elems * dtype_bytes
        self.double_buffered = double_buffered

    def __repr__(self) -> str:
        return (
            f"Alloc({self.tensor_name}@{self.scope}, box={self.box}, "
            f"{self.nbytes}B)"
        )


class DataMove:
    """One per-tile DMA transfer required by the plan."""

    __slots__ = (
        "tensor_name", "src", "dst", "nbytes", "runs", "direction", "chunked",
    )

    def __init__(
        self,
        tensor_name: str,
        src: str,
        dst: str,
        nbytes: int,
        runs: int,
        direction: str,
        chunked: bool = False,
    ):
        if direction not in ("in", "out", "bounce"):
            raise CodegenError(
                f"bad DMA direction {direction!r}", stage=resilience.active_stage()
            )
        self.tensor_name = tensor_name
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.runs = runs
        self.direction = direction
        self.chunked = chunked

    def __repr__(self) -> str:
        return f"Move({self.tensor_name}: {self.src}->{self.dst}, {self.nbytes}B)"


class StoragePlan:
    """Allocations + moves for one tiled group.

    ``reduce_chunks`` implements the hierarchical tiling of Sec. 4.4 for
    the Cube Unit: when the full-K operand tiles of a contraction exceed
    L1, the reduction is processed in that many chunks, each streamed
    through L1 while the accumulator stays in L0C.  Moves flagged
    ``chunked`` execute once per chunk with 1/chunks of the bytes.
    """

    def __init__(
        self,
        allocations: Dict[str, BufferAllocation],
        moves: List[DataMove],
        local_tensors: Tuple[str, ...],
        reduce_chunks: int = 1,
        peak_local_bytes: int = 0,
    ):
        self.allocations = allocations
        self.moves = moves
        # Sorted names of the tensors that never touch GM (a tuple, not a
        # set: a set pickles in hash order, and entries must not depend
        # on the hash seed).
        self.local_tensors = local_tensors
        self.reduce_chunks = reduce_chunks
        self.peak_local_bytes = peak_local_bytes

    def utilization(self) -> Dict[str, int]:
        """Bytes required per buffer scope for a single tile.

        Tile-local intermediates are liveness-shared: a chain of fused
        element-wise ops keeps only its *live* tensors resident (the
        storage manager reuses slots of dead values), so locals contribute
        their peak concurrent size, not their sum.
        """
        out: Dict[str, int] = {}
        for alloc in self.allocations.values():
            if alloc.tensor_name in self.local_tensors and alloc.scope == "UB":
                continue  # accounted via the liveness peak below
            out[alloc.scope] = out.get(alloc.scope, 0) + alloc.nbytes
        if self.peak_local_bytes:
            out["UB"] = out.get("UB", 0) + self.peak_local_bytes
        return out

    def fits(self, hw: HardwareSpec, double_buffered: bool = True) -> bool:
        """Does one tile's working set fit the (halved) buffer capacities?"""
        for scope, used in self.utilization().items():
            if used > hw.usable_capacity(scope, double_buffered):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"StoragePlan({len(self.allocations)} allocs, "
            f"{len(self.moves)} moves, local={list(self.local_tensors)})"
        )


# -- footprint computation -------------------------------------------------------


def footprint_extents(
    group: TiledGroup, stmt: PolyStatement, access: TensorAccess
) -> List[int]:
    """Max per-dimension extent of ``access`` over any tile of the group,
    clipped to the tensor shape: the tightest constant box covering every
    tile's accesses.

    A statement with a tile window (:attr:`TiledGroup.windows`: every
    live-out statement and fused producer of the paper workloads) reads
    each subscript's spread over the window, ``1 + sum |a_j| * (L_j - 1)``
    (:meth:`~repro.ir.lower.PolyStatement.box_bounds`).  A statement
    without one is solved by Fourier-Motzkin on its instance relation
    (:func:`~repro.tiling.reverse.footprint_bounds`).  Non-affine
    accesses are sized by the consumer's tile.
    """
    tensor = access.tensor
    if not access.is_affine:
        # Data-dependent gather: at most one row per consumer instance is
        # touched, so size the footprint by the consumer's tile, aligning
        # tensor dims with the consumer's data dims from the innermost end
        # (the gathered leading dim streams row by row from GM).
        inst = group.instance_extents(stmt.stmt_id)[: stmt.data_rank]
        rank = len(tensor.shape)
        box = []
        for k in range(rank):
            j = stmt.data_rank - (rank - k)
            if 0 <= j < len(inst):
                box.append(max(min(inst[j], tensor.shape[k]), 1))
            else:
                box.append(tensor.shape[k])
        return box
    window = group.windows.get(stmt.stmt_id)
    if window is not None:
        bounds = [stmt.box_bounds(index, window) for index in access.indices]
        extents = [None if b is None else b[1] - b[0] + 1 for b in bounds]
    else:
        extents = footprint_bounds(
            group.instance_relations[stmt.stmt_id], access.indices, group.tile_counts
        )
    # A fresh list: callers shrink boxes in place.
    return [
        n if bound is None else max(min(bound, n), 1)
        for bound, n in zip(extents, tensor.shape)
    ]


def contiguous_runs(box: Sequence[int], tensor_shape: Sequence[int]) -> int:
    """Contiguous runs of a row-major box inside its tensor.

    Trailing dimensions that cover the full tensor extent merge into one
    run; every remaining outer dimension multiplies the run count.
    """
    runs = 1
    merged = True
    for k in range(len(box) - 1, -1, -1):
        if merged and box[k] == tensor_shape[k]:
            continue  # still contiguous with the next-inner dim
        if merged:
            merged = False
            runs = 1
            for j in range(k):
                runs *= max(box[j], 1)
            break
    return max(runs, 1)


def _clip_box_to_capacity(
    box: List[int], dtype_bytes: int, capacity: int
) -> List[int]:
    """Shrink outer dimensions until the box fits ``capacity`` bytes."""
    def bytes_of(b):
        total = dtype_bytes
        for e in b:
            total *= max(e, 1)
        return total

    k = 0
    while bytes_of(box) > capacity and k < 1024:
        k += 1
        # Halve the largest dimension (outermost on ties).
        dim = max(range(len(box)), key=lambda d: (box[d], -d))
        if box[dim] <= 1:
            break
        box[dim] = max(box[dim] // 2, 1)
    return box


# -- the planner ------------------------------------------------------------------


class _Roles:
    """What :func:`plan_storage` decides without looking at a footprint,
    for one group's statements under one unit assignment: which accesses
    are planned, and per tensor its dtype, shape, home scope and role,
    its L0 scope when the Cube Unit touches it, what streams in reduction
    chunks, and the live range of each tile-local intermediate."""

    def __init__(
        self,
        statements: Sequence[PolyStatement],
        assignment: UnitAssignment,
        kernel: LoweredKernel,
    ):
        output_names = {t.name for t in kernel.outputs}
        input_names = {t.name for t in kernel.inputs}
        group_ids = {s.stmt_id for s in statements}
        written_in_group = {s.tensor.name for s in statements}
        # Tensors crossing the group boundary behave like kernel I/O for
        # this group: produced here but consumed by a later tile nest ->
        # spilled to GM; produced by an earlier nest -> loaded from GM.
        consumed_elsewhere = {
            r.tensor.name
            for s in kernel.statements
            if s.stmt_id not in group_ids
            for r in s.reads
            if r.tensor.name in written_in_group
        }
        produced_elsewhere = {
            s.tensor.name
            for s in kernel.statements
            if s.stmt_id not in group_ids and s.tensor.name not in written_in_group
        }
        mte_written = {
            s.tensor.name for s in statements if assignment.unit_of(s.stmt_id) == "mte"
        }

        # (stmt, [(access, tensor name)]) in plan order.
        self.accesses: List[Tuple[PolyStatement, List[tuple]]] = []
        tensors: Dict[str, TensorAccess] = {}
        consumer_scopes: Dict[str, Set[str]] = {}
        cube_roles: Dict[str, Set[str]] = {}
        for stmt in statements:
            unit = assignment.unit_of(stmt.stmt_id)
            planned = []
            for access, is_write in [(stmt.write, True)] + [(r, False) for r in stmt.reads]:
                name = access.tensor.name
                if name in mte_written:
                    # Absorbed padding: the tensor never materialises --
                    # the MTE's img2col reads the raw input and pads in
                    # flight.
                    continue
                planned.append((access, name))
                tensors[name] = access
                scope = "L1" if unit in ("cube", "mte") else "UB"
                consumer_scopes.setdefault(name, set()).add(scope)
                if unit == "cube":
                    cube_roles.setdefault(name, set()).add("out" if is_write else "in")
            self.accesses.append((stmt, planned))

        # (name, dtype, shape, home scope, is_input, is_output, bounce).
        self.tensors: List[tuple] = []
        local: Set[str] = set()
        for name, access in tensors.items():
            scopes = consumer_scopes[name]
            is_input = name in input_names or name in produced_elsewhere
            is_output = name in output_names or name in consumed_elsewhere
            if name in written_in_group and not is_output and not is_input:
                local.add(name)
            # Data produced by the Vector/Scalar units (living in UB) but
            # consumed by the Cube Unit must bounce UB -> L1 (Sec. 4.3
            # "fusion when forking data").  Cube-produced data consumed by
            # vector ops is already covered by the L0C -> UB drain of the
            # cube stage.
            bounce = "L1" in scopes and any(
                s.tensor.name == name
                and assignment.unit_of(s.stmt_id) in ("vector", "scalar")
                for s in statements
            )
            self.tensors.append((
                name,
                access.tensor.dtype,
                access.tensor.shape,
                "L1" if scopes == {"L1"} else "UB",  # primary on-chip home
                is_input,
                is_output,
                bounce,
            ))
        self.local_tensors = tuple(sorted(local))

        # Cube operands additionally occupy the L0 buffers (fractal GEMM,
        # Sec. 4.4): X -> L0A, Y -> L0B, Z -> L0C.
        self.l0_scopes: List[Tuple[str, str]] = []
        for name, roles in cube_roles.items():
            taken = any(scope == "L0A" for _, scope in self.l0_scopes)
            scope = "L0C" if "out" in roles else ("L0B" if taken else "L0A")
            self.l0_scopes.append((name, scope))

        self.total_reduce = 0  # no cube statement: no reduction chunking
        cube_stmts = [s for s in statements if assignment.unit_of(s.stmt_id) == "cube"]
        if cube_stmts:
            self.total_reduce = 1
            for s in cube_stmts:
                for d, e in zip(s.iter_names, s.iter_extents):
                    if d in s.reduce_iters:
                        self.total_reduce = max(self.total_reduce, e)
        self.chunkable = {
            name
            for name, roles in cube_roles.items()
            if roles == {"in"} and name not in written_in_group
        }

        # A local tensor is live from its defining statement to its last
        # reader; (name, first, last) of each, and the program points.
        first_def: Dict[str, int] = {}
        last_use: Dict[str, int] = {}
        for i, stmt in enumerate(statements):
            name = stmt.tensor.name
            if name in local:
                first_def.setdefault(name, i)
                last_use[name] = max(last_use.get(name, i), i)
            for read in stmt.reads:
                if read.tensor.name in local:
                    last_use[read.tensor.name] = i
        self.live_ranges = [
            (name, first_def.get(name, 0), last_use.get(name, -1))
            for name in self.local_tensors
        ]
        self.n_points = len(statements)


def plan_storage(
    group: TiledGroup,
    assignment: UnitAssignment,
    kernel: LoweredKernel,
    hw: HardwareSpec,
    double_buffered: bool = True,
    invariants: Optional[SizeInvariants] = None,
) -> StoragePlan:
    """Compute the storage plan of one tiled group.

    The roles are decided once per statement tuple and assignment in
    ``invariants`` (a front-end's :meth:`~repro.core.frontend.FrontEnd.invariants`;
    a private table when omitted); the footprints are this group's.
    """
    faults.fire("storage.promote")
    invariants = invariants or SizeInvariants(kernel)
    ids = tuple([s.stmt_id for s in group.statements])
    roles: _Roles = invariants.lookup(
        "roles",
        (ids, tuple(map(assignment.units.__getitem__, ids))),
        lambda: _Roles(group.statements, assignment, kernel),
    )

    # Collect, per tensor, the maximal footprint box.
    boxes: Dict[str, List[int]] = {}
    for stmt, planned in roles.accesses:
        for access, name in planned:
            ext = footprint_extents(group, stmt, access)
            prev = boxes.get(name)
            boxes[name] = (
                [max(a, b) for a, b in zip(prev, ext)] if prev else ext
            )

    allocations: Dict[str, BufferAllocation] = {}
    moves: List[DataMove] = []
    for name, dtype, shape, scope, is_input, is_output, bounce in roles.tensors:
        box = boxes[name]
        dbytes = hw.dtype_bytes(dtype)
        allocations[name] = BufferAllocation(
            name, scope, box, dtype, dbytes, double_buffered
        )
        nbytes = allocations[name].nbytes
        runs = contiguous_runs(box, shape)
        if is_input:
            moves.append(DataMove(name, "GM", scope, nbytes, runs, "in"))
        if is_output:
            moves.append(DataMove(name, scope if scope == "UB" else "UB", "GM", nbytes, runs, "out"))
        if bounce:
            moves.append(DataMove(name, "UB", "L1", nbytes, 1, "bounce"))

    # L0 working sets are *hierarchically tiled* from the L1 tile (the
    # second-level tiling the paper notes the Cube Unit may require), so
    # their allocation is capped at the L0 capacity rather than
    # constraining the L1 tile size.
    for name, scope in roles.l0_scopes:
        base = allocations[name]
        dbytes = hw.dtype_bytes(base.dtype)
        box = _clip_box_to_capacity(
            list(base.box), dbytes, hw.usable_capacity(scope, double_buffered)
        )
        allocations[f"{name}__{scope.lower()}"] = BufferAllocation(
            name, scope, box, base.dtype, dbytes, double_buffered
        )

    # Hierarchical reduction chunking for the Cube Unit (Sec. 4.4): when
    # the full-reduction operand tiles overflow L1, stream the contraction
    # in chunks, shrinking the chunked operands' L1 residency.
    reduce_chunks = 1
    if roles.total_reduce:
        chunkable = roles.chunkable

        def l1_usage() -> int:
            total = 0
            for alloc in allocations.values():
                if alloc.scope != "L1":
                    continue
                scale = reduce_chunks if alloc.tensor_name in chunkable else 1
                total += alloc.nbytes // scale
            return total

        cap = hw.usable_capacity("L1", double_buffered)
        while l1_usage() > cap and reduce_chunks < roles.total_reduce:
            reduce_chunks *= 2
        if reduce_chunks > 1:
            for alloc in allocations.values():
                if alloc.scope == "L1" and alloc.tensor_name in chunkable:
                    alloc.nbytes //= reduce_chunks
            for move in moves:
                if move.direction == "in" and move.tensor_name in chunkable:
                    move.chunked = True

    peak_local = _peak_live_local_bytes(roles, allocations)
    return StoragePlan(
        allocations, moves, roles.local_tensors, reduce_chunks, peak_local
    )


def _peak_live_local_bytes(
    roles: _Roles, allocations: Dict[str, BufferAllocation]
) -> int:
    """Peak concurrent UB bytes of tile-local intermediates: the maximum
    over program points bounds the reused-slot allocation."""
    if not roles.live_ranges:
        return 0
    ranges = [
        (allocations[name].nbytes, first, last)
        for name, first, last in roles.live_ranges
        if allocations[name].scope == "UB"
    ]
    peak = 0
    for i in range(roles.n_points):
        live = 0
        for nbytes, first, last in ranges:
            if first <= i <= last:
                live += nbytes
        peak = max(peak, live)
    return peak
