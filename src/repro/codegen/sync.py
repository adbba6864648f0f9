"""Low-level synchronisation (Sec. 5.2).

On a DAE machine every cross-pipe data dependence needs an explicit
``set_flag``/``wait_flag`` pair.  The code generator first materialises a
*stage chain* (inbound DMA, per-statement compute stages, outbound DMA)
and then inserts flags according to a policy:

- ``dp``        -- AKG's approach: a dynamic-programming grouping that
  merges adjacent same-pipe stages and keeps exactly one flag per
  cross-pipe boundary of the merged chain (the provably minimal number
  for a linear dependence chain);
- ``empirical`` -- the vendor-TVM approach the paper compares against:
  per-instruction flags, grouped only by a local heuristic, yielding more
  synchronisation on the same code;
- ``naive``     -- a full barrier between stages (the hand-written naive
  CCE style).

A loop can be one stage of a chain (:func:`loop_stage`, the K-chunk loop
of a hierarchical reduction): it enters on its body's first pipe and
exits on its body's last stage, and every policy syncs both edges.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence

from repro.hw.isa import Barrier, Instr, Loop, Pipe, SetFlag, WaitFlag


class Stage:
    """A group of instructions executing on one pipe, depending on the
    previous stage in the chain.

    ``tail`` is the stage the next stage of the chain waits for: the stage
    itself, or the body's last stage of a :func:`loop_stage`.
    """

    def __init__(
        self,
        pipe: Pipe,
        instrs: Sequence[Instr],
        label: str = "",
        tail: Optional["Stage"] = None,
    ):
        self.pipe = pipe
        self.instrs: List[Instr] = list(instrs)
        self.label = label
        self.tail: Stage = tail or self

    def __repr__(self) -> str:
        return f"Stage({self.pipe.value}, {len(self.instrs)} instrs, {self.label})"


def event_ids() -> Iterator[int]:
    """A fresh flag-event id allocator, owned by one program build.

    Flag ids only need to be unique *within* one program -- the simulator
    matches ``set_flag``/``wait_flag`` pairs per program run.  Starting
    every program at the same id makes builds deterministic: compiling
    the same kernel twice (or once monolithically and once through the
    staged front-end/back-end split) yields byte-identical dumps.  The
    allocator is an object the builder passes down, not module state, so
    concurrent builds (service workers) cannot interleave their ids.
    """
    return itertools.count(16)  # low ids reserved for loop-carried flags


def merge_adjacent_stages(stages: Sequence[Stage]) -> List[Stage]:
    """Fuse neighbouring stages on the same pipe (the DP grouping's core).

    For a linear chain the optimal grouping is exactly this greedy merge:
    a flag is only ever useful at a boundary where the pipe changes, and
    merging same-pipe neighbours never invalidates an ordering (in-order
    pipes).  This implements the paper's dynamic-programming policy, whose
    optimum for a chain degenerates to the greedy solution.
    """
    merged: List[Stage] = []
    for stage in stages:
        if merged and merged[-1].tail.pipe == stage.pipe:
            merged[-1].instrs.extend(stage.instrs)
            merged[-1].label = merged[-1].label or stage.label
            merged[-1].tail = stage.tail
        else:
            tail = None if stage.tail is stage else stage.tail
            merged.append(Stage(stage.pipe, list(stage.instrs), stage.label, tail))
    return merged


def loop_stage(
    count: int,
    body: Sequence[Stage],
    policy: str,
    events: Iterator[int],
    label: str = "",
) -> Stage:
    """``count`` iterations of the linked ``body`` chain, as one stage."""
    body = [s for s in body if s.instrs]
    loop = Loop(count, link_stages(body, policy, events), label=label)
    return Stage(body[0].pipe, [loop], label, tail=body[-1])


def link_stages(
    stages: Sequence[Stage],
    policy: str = "dp",
    events: Optional[Iterator[int]] = None,
) -> List[Instr]:
    """Emit the instruction stream for a dependent stage chain.

    ``policy`` selects the synchronisation strategy (see module docstring);
    ``events`` is the program's :func:`event_ids` allocator (a chain
    linked on its own gets a fresh one).
    """
    if events is None:
        events = event_ids()
    if policy not in ("dp", "empirical", "naive"):
        raise ValueError(f"unknown sync policy {policy!r}")
    stages = [s for s in stages if s.instrs]
    if not stages:
        return []

    if policy == "dp":
        chain = merge_adjacent_stages(stages)
        out: List[Instr] = []
        for i, stage in enumerate(chain):
            if i > 0 and chain[i - 1].tail.pipe != stage.pipe:
                event = next(events)
                out.append(SetFlag(chain[i - 1].tail.pipe, stage.pipe, event))
                out.append(WaitFlag(chain[i - 1].tail.pipe, stage.pipe, event))
            out.extend(stage.instrs)
        return out

    if policy == "empirical":
        # Vendor style: a flag pair guards *every* stage hand-off (no
        # same-pipe merging, no transitive elimination -- each producer
        # instruction signals its consumer individually).  This is the
        # "empirical clustering of synchronizations" the paper contrasts
        # with AKG's DP policy: correct, but strictly more flags.
        out = []
        for i, stage in enumerate(stages):
            if i > 0:
                prev = stages[i - 1].tail
                if prev.pipe != stage.pipe:
                    for _ in prev.instrs:
                        event = next(events)
                        out.append(SetFlag(prev.pipe, stage.pipe, event))
                        out.append(WaitFlag(prev.pipe, stage.pipe, event))
                else:
                    # Even same-pipe hand-offs get a defensive flag pair in
                    # the vendor code (harmless order-wise, pure overhead).
                    event = next(events)
                    out.append(SetFlag(prev.pipe, stage.pipe, event))
                    out.append(WaitFlag(prev.pipe, stage.pipe, event))
            out.extend(stage.instrs)
        return out

    # naive: full barriers.
    out = []
    for i, stage in enumerate(stages):
        if i > 0:
            out.append(Barrier())
        out.extend(stage.instrs)
    return out
