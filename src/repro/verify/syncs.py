"""Sync-sufficiency / race checker over the emitted instruction stream.

The DAE machine model (see :mod:`repro.hw.simulator`) executes each pipe
in order; ``SetFlag``/``WaitFlag`` pairs (FIFO per ``(src, dst, event)``
edge) and full barriers are the *only* cross-pipe ordering.  This
checker rebuilds that happens-before relation from the instruction
stream alone and then demands that every pair of instructions on
different pipes touching the same memory scope, at least one writing, is
ordered by it.

Loop bodies are analysed for a single iteration: intra-iteration
ordering is what the sync policies guarantee, while *cross*-iteration
overlap (the next tile's loads racing this tile's compute) is exactly
the double-buffering the loop-carried recycling flags permit — the
buffers alternate halves, so those pairs are not races.  A ``WaitFlag``
with no matching ``SetFlag`` earlier in the stream is rejected too: the
simulator would deadlock on it, and a dropped set is precisely the kind
of mutation this checker exists to catch.

Conflicts are detected at memory-scope granularity (``GM``, ``UB``,
``L1``, ``L0A``, ``L0B``, ``L0C``).  That is conservative — two
accesses to different tensors in UB still conflict — but the emitted
programs chain *all* stages of a group through flags and separate
groups with barriers, so a clean compile orders every such pair and the
checker reports zero false positives; any dropped flag or barrier
breaks the chain and surfaces immediately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, Dict, List, Sequence, Tuple

from collections import deque

from repro.core import faults, resilience
from repro.core.errors import VerificationError
from repro.hw.isa import Instr, Pipe, walk

if TYPE_CHECKING:
    from repro.core.compiler import CompileResult

__all__ = ["check_sync", "check_program_sync"]


def _fail(message: str) -> None:
    raise VerificationError(message, stage=resilience.active_stage())


def check_program_sync(instructions: Sequence[Instr]) -> None:
    """Happens-before race check over one instruction stream.

    Raises :class:`~repro.core.errors.VerificationError` for an
    unmatched wait or for any conflicting cross-pipe access pair the
    emitted flags and barriers leave unordered.
    """
    # One static copy of the stream: each loop body once, unless it never runs.
    flat = [instr for _, scale, instr, _, _ in walk(instructions) if scale]
    n = len(flat)

    last_of_pipe: Dict[Pipe, int] = {}
    pending: Dict[Tuple[Pipe, Pipe, int], Deque[int]] = {}
    reach: List[int] = [0] * n  # bitmask of indices that happen-before i

    for i, instr in enumerate(flat):
        preds: List[int] = []
        sync = instr.sync
        if sync == "barrier":
            preds.extend(last_of_pipe.values())
            for p in Pipe:
                last_of_pipe[p] = i
        else:
            pipe = instr.pipe
            if pipe in last_of_pipe:
                preds.append(last_of_pipe[pipe])
            last_of_pipe[pipe] = i
            if sync == "set":
                key = (instr.src_pipe, instr.dst_pipe, instr.event)
                pending.setdefault(key, deque()).append(i)
            elif sync == "wait":
                key = (instr.src_pipe, instr.dst_pipe, instr.event)
                queue = pending.get(key)
                if not queue:
                    _fail(
                        f"wait without a matching set (would deadlock): "
                        f"{instr.describe()}"
                    )
                preds.append(queue.popleft())
        acc = 0
        for p in preds:
            acc |= reach[p] | (1 << p)
        reach[i] = acc

    # Conflict scan per scope: a later conflicting access on another
    # pipe must happen-after the earlier one.
    by_scope: Dict[str, List[Tuple[int, bool]]] = {}
    for i, instr in enumerate(flat):
        for scope, is_write in instr.accesses():
            by_scope.setdefault(scope, []).append((i, is_write))
    for scope, entries in by_scope.items():
        for a in range(len(entries)):
            i, w_i = entries[a]
            for b in range(a + 1, len(entries)):
                j, w_j = entries[b]
                if i == j or not (w_i or w_j):
                    continue
                if flat[i].pipe is flat[j].pipe:
                    continue
                if not (reach[j] >> i) & 1:
                    _fail(
                        f"unsynchronized {scope} access pair on "
                        f"different pipes: [{flat[i].describe()}] then "
                        f"[{flat[j].describe()}] with no ordering "
                        f"flag or barrier between them"
                    )


def check_sync(result: "CompileResult") -> None:
    """Race-check a compiled result's program."""
    faults.fire("verify.sync")
    check_program_sync(result.program.instructions)
