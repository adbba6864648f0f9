"""Schedule-mutation harness: prove the verifier has teeth.

A checker that accepts everything is worse than no checker.  This module
seeds the canonical miscompilations — a dropped sync, a chunked group's
K-chunk loop left without its exit sync, a swapped statement/band order,
an off-by-one tile box, a tile grid one tile short, a statement tiled
from another origin than its band, a fused producer
recomputed for the wrong tile, a fused reduction split across tiles,
an aliased arena slot — into an
otherwise-correct :class:`~repro.core.compiler.CompileResult` (or
:class:`~repro.graph.plan.NetworkPlan`) and hands the mutants back
so tests and the repo benchmark can demand a 100% kill rate from
:func:`repro.verify.verify_result`.

Every mutation deep-copies its input (the original result is never
harmed) and returns ``None`` when the kernel offers no applicable site
(e.g. a single-statement kernel has no statement order to swap); kill
rates are measured over applicable mutants.  Redundant-sync drops that
leave the happens-before relation intact are *equivalent mutants* in
mutation-testing terms — behaviourally identical programs — so
:func:`drop_sync` walks the sync instructions in stream order and seeds
the first one whose removal actually breaks an ordering the machine
model relies on.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.codegen.program import CHUNK_LOOP_LABEL
from repro.core.errors import VerificationError
from repro.hw.isa import walk
from repro.poly.affine import AffineExpr, Constraint
from repro.poly.maps import BasicMap
from repro.tiling.reverse import liveout_instance_relation
from repro.verify.syncs import check_program_sync

if TYPE_CHECKING:
    from repro.core.compiler import CompileResult
    from repro.graph.plan import NetworkPlan

__all__ = [
    "KERNEL_MUTATIONS",
    "drop_sync",
    "drop_chunk_exit_sync",
    "swap_stmts",
    "tile_off_by_one",
    "drop_last_tile",
    "misalign_grid",
    "shift_fused_producer",
    "split_fused_reduction",
    "alias_arena",
    "seeded_mutations",
]


def drop_sync(result: "CompileResult") -> Optional["CompileResult"]:
    """Remove the first load-bearing sync instruction from the stream.

    Returns ``None`` only when the program has no sync whose removal
    changes the happens-before relation (a sync-free program).
    """
    for _, _, instr, owner, index in walk(result.program.instructions):
        if instr.sync is None:
            continue
        copies: dict = {}  # deepcopy's memo: id(original) -> its copy
        mutant = copy.deepcopy(result, copies)
        del copies[id(owner)][index]
        try:
            check_program_sync(mutant.program.instructions)
        except VerificationError:
            return mutant  # removal breaks a real ordering: keep it
    return None


def drop_chunk_exit_sync(result: "CompileResult") -> Optional["CompileResult"]:
    """Drop the syncs after a chunked group's K-chunk loop.

    The L0C drain then no longer waits for the last mmad: the race a
    chunk loop linked outside its tile's stage chain had.  ``None`` when
    no group streams its contraction in chunks.
    """
    for _, _, instr, owner, index in walk(result.program.instructions, loops=True):
        if instr is None or instr.body is None or instr.label != CHUNK_LOOP_LABEL:
            continue
        end = index + 1
        while end < len(owner) and owner[end].sync is not None:
            end += 1
        if end > index + 1:
            copies: dict = {}  # deepcopy's memo: id(original) -> its copy
            mutant = copy.deepcopy(result, copies)
            del copies[id(owner)][index + 1 : end]
            return mutant
    return None


def swap_stmts(result: "CompileResult") -> Optional["CompileResult"]:
    """Reverse the statement order inside a group (swapped-band mutant).

    Falls back to swapping two adjacent groups when every group is a
    single statement; a kernel with one statement in one group has no
    order to break and yields ``None``.
    """
    mutant = copy.deepcopy(result)
    for group in mutant.groups:
        if len(group.statements) >= 2:
            group.statements.reverse()
            return mutant
    if len(mutant.groups) >= 2:
        mutant.groups[0], mutant.groups[1] = mutant.groups[1], mutant.groups[0]
        return mutant
    return None


def tile_off_by_one(result: "CompileResult") -> Optional["CompileResult"]:
    """Widen one tile box past its statement's extent by one.

    Bumps a pure upper-bound constraint (``iter <= c``) in an instance
    relation *and* the linked tile dim's count, so the relaxed box is
    actually reachable through the tile grid — the canonical
    ceil-division off-by-one a buggy tiler would produce.
    """
    mutant = copy.deepcopy(result)
    for group in mutant.groups:
        for sid, rel in group.instance_relations.items():
            for ci, c in enumerate(rel.constraints):
                names = c.variables()
                if c.is_equality or len(names) != 1:
                    continue
                v = names[0]
                if v in group.tile_dims:
                    continue
                if c.expr.coeff(v) != -1 or c.expr.const <= 0:
                    continue  # want an upper bound "v <= const"
                linked = None
                for di, d in enumerate(group.tile_dims):
                    if any(
                        d in c2.variables() and v in c2.variables()
                        for c2 in rel.constraints
                    ):
                        linked = di
                        break
                cons = list(rel.constraints)
                cons[ci] = Constraint(c.expr + 1)
                group.instance_relations[sid] = BasicMap(
                    rel.in_space, rel.out_space, cons
                )
                if linked is not None:
                    group.tile_counts[linked] += 1
                return mutant
    return None


def drop_last_tile(result: "CompileResult") -> Optional["CompileResult"]:
    """Count one tile fewer along a tile dim of at least two tiles.

    The last tile's instances are then never executed, while every
    access of the tiles left stays in bounds -- what a tile count taken
    from the wrong extent (or a grid counted from the wrong origin) would
    emit.  ``None`` when no group has a tile dim of two tiles or more.
    """
    mutant = copy.deepcopy(result)
    for group in mutant.groups:
        for k, count in enumerate(group.tile_counts):
            if count >= 2:
                group.tile_counts[k] -= 1
                return mutant
    return None


def misalign_grid(result: "CompileResult") -> Optional["CompileResult"]:
    """Count one live-out statement's tiles along the first tile dim from
    one past its band's origin.

    That statement then runs each band row value in another tile than
    the band's other statements do -- what a tiler counting every
    statement from its own minimum would emit when their minima differ.
    ``None`` when no group tiles two live-out statements.
    """
    mutant = copy.deepcopy(result)
    for group in mutant.groups:
        if len(group.band_rows) < 2 or not group.tile_dims:
            continue
        sid, rows = list(group.band_rows.items())[-1]
        stmt = next(s for s in group.statements if s.stmt_id == sid)
        origins = list(group.origins)
        origins[0] += 1
        group.instance_relations[sid] = liveout_instance_relation(
            stmt, rows, group.tile_sizes, group.tile_dims, origins
        )
        return mutant
    return None


def shift_fused_producer(result: "CompileResult") -> Optional["CompileResult"]:
    """Shift a fused producer's instance relation by one tile.

    Each tile then recomputes the producer instances its *neighbour*
    needs and its own consumers read elements it never produced — what a
    wrong reverse-strategy span would emit.  ``None`` when no group
    recomputes a producer along a tile dim with at least two tiles.
    """
    mutant = copy.deepcopy(result)
    for group in mutant.groups:
        for sid in group.fused_producer_ids:
            rel = group.instance_relations[sid]
            for d, count in zip(group.tile_dims, group.tile_counts):
                if count < 2 or not any(d in c.variables() for c in rel.constraints):
                    continue
                shift = {d: AffineExpr.variable(d) + 1}
                group.instance_relations[sid] = BasicMap(
                    rel.in_space,
                    rel.out_space,
                    [c.substitute(shift) for c in rel.constraints],
                )
                return mutant
    return None


def split_fused_reduction(result: "CompileResult") -> Optional["CompileResult"]:
    """Run one more row of a recomputed reduction per tile, from its
    second step on.

    Takes a fused producer with a reduction dim ``r`` of two steps or more
    (a conv recomputed under its pool) and a tile upper bound ``e >= 0`` of
    a written dim along a tile dim of two tiles or more.  Every fused
    writer of its tensor gets ``e + 1 >= 0`` (the initialisation stays
    contained); the reduction also ``r + e >= 0``.  The tile then runs a
    self-dependence's sink, step 1, without its source, step 0: only a
    self pair's containment proof sees it.  ``None`` without such a site.
    """
    mutant = copy.deepcopy(result)
    for group in mutant.groups:
        counts = dict(zip(group.tile_dims, group.tile_counts))
        by_id = {s.stmt_id: s for s in group.statements}
        for sid in group.fused_producer_ids:
            stmt = by_id[sid]
            steps = [r for r, n in zip(stmt.iter_names, stmt.iter_extents)
                     if r in stmt.reduce_iters and n >= 2]
            written = [e.as_variable() for e in stmt.write.indices]
            for c in group.instance_relations[sid].constraints:
                dims = [v for v in c.variables() if v not in counts]
                tiled = any(c.expr.coeff(d) > 0 and n >= 2 for d, n in counts.items())
                if not (steps and tiled and not c.is_equality and len(dims) == 1
                        and dims[0] in written and c.expr.coeff(dims[0]) == -1):
                    continue
                for other in group.fused_producer_ids:
                    writer = by_id[other]
                    if writer.tensor.name != stmt.tensor.name:
                        continue
                    bound = c.rename(
                        {v: e.as_variable() for v, e in zip(written, writer.write.indices)}
                    )
                    rel = group.instance_relations[other]
                    cons = [Constraint(k.expr + 1) if k == bound else k for k in rel.constraints]
                    if other == sid:
                        cons.append(Constraint(c.expr + AffineExpr.variable(steps[0])))
                    group.instance_relations[other] = BasicMap(rel.in_space, rel.out_space, cons)
                return mutant
    return None


def alias_arena(plan: "NetworkPlan") -> Optional["NetworkPlan"]:
    """Force two live-range-overlapping tensors into one arena slot."""
    mutant = copy.deepcopy(plan)
    arena = mutant.arena
    keys = list(arena.slot_of)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            ka, kb = keys[a], keys[b]
            if arena.slot_of[ka] == arena.slot_of[kb]:
                continue
            ia, ib = arena.intervals.get(ka), arena.intervals.get(kb)
            if ia is None or ib is None:
                continue
            if ia[0] <= ib[1] and ib[0] <= ia[1]:
                arena.slot_of[kb] = arena.slot_of[ka]
                return mutant
    return None


#: The kernel-level mutation suite, in documentation order.
KERNEL_MUTATIONS: List[
    Tuple[str, Callable[["CompileResult"], Optional["CompileResult"]]]
] = [
    ("drop_sync", drop_sync),
    ("drop_chunk_exit_sync", drop_chunk_exit_sync),
    ("swap_stmts", swap_stmts),
    ("tile_off_by_one", tile_off_by_one),
    ("drop_last_tile", drop_last_tile),
    ("misalign_grid", misalign_grid),
    ("shift_fused_producer", shift_fused_producer),
    ("split_fused_reduction", split_fused_reduction),
]


def seeded_mutations(
    result: "CompileResult",
) -> List[Tuple[str, "CompileResult"]]:
    """All applicable kernel-level mutants of one compiled result."""
    out: List[Tuple[str, "CompileResult"]] = []
    for name, fn in KERNEL_MUTATIONS:
        mutant = fn(result)
        if mutant is not None:
            out.append((name, mutant))
    return out
