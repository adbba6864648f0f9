"""Static verification of compiled results (the polyhedral sanitizer).

Every other correctness guarantee in the pipeline is *dynamic*: replay is
checked bit-identical against the scalar oracle on the shapes a test
happens to run.  This package re-checks a finished
:class:`~repro.core.compiler.CompileResult` **statically and
independently** of the passes that produced it, using the same
Fourier-Motzkin / ILP machinery the paper's legality proofs rest on:

- :mod:`repro.verify.schedule` recomputes dependences from the original
  lowered kernel and proves the post-tiling/post-fusion execution order
  (groups -> tiles -> statements -> instances) preserves every one of
  them, including the symbolic-batch clamping proof of DESIGN §3.7;
- :mod:`repro.verify.bounds` proves every live-out instance lies in a
  tile of its band's one grid (closed form over the band rows) and every
  array access of every tile inside the declared tensor extents (FM
  projection over tile boxes), parametrically over clamped symbolic-dim
  replays;
- :mod:`repro.verify.syncs` rebuilds the happens-before relation of the
  emitted instruction stream (in-order pipes, FIFO set/wait flags,
  barriers) and flags conflicting cross-pipe access pairs it leaves
  unordered;
- :mod:`repro.verify.arena` re-derives tensor liveness for a network plan
  and rejects arena slot assignments whose live ranges overlap.

A failed check raises :class:`~repro.core.errors.VerificationError`
(CLI exit code 13); the rejected result is never disk-cached, served by
``akgd``, or stitched into a network plan.  The mutation harness in
:mod:`repro.verify.mutate` proves the checkers have teeth: seeded
mutations (dropped sync, a K-chunk loop without its exit sync, swapped
statement order, off-by-one tile box, a grid one tile short, a
statement tiled from another origin than its band, shifted
fused-producer tile, aliased arena slot) must all be rejected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.core.context import stage
from repro.verify.arena import check_arena, check_arena_assignment
from repro.verify.bounds import check_bounds
from repro.verify.schedule import check_dependences
from repro.verify.syncs import check_sync

if TYPE_CHECKING:
    from repro.core.compiler import CompileResult
    from repro.graph.plan import NetworkPlan

__all__ = [
    "verify_result",
    "verify_network_plan",
    "check_dependences",
    "check_bounds",
    "check_sync",
    "check_arena",
    "check_arena_assignment",
]


def verify_result(result: "CompileResult") -> Dict[str, bool]:
    """Run every static checker applicable to one compiled kernel.

    Raises :class:`~repro.core.errors.VerificationError` on the first
    violation; returns ``{checker_name: True}`` for the checks that ran.
    Each checker runs as a ``verify.*`` stage, so ``perf.report()``
    answers "what does verification cost?" and a rejection names its
    stage.
    """
    ran: Dict[str, bool] = {}
    with stage("verify.schedule"):
        check_dependences(result)
    ran["schedule"] = True
    with stage("verify.bounds"):
        check_bounds(result)
    ran["bounds"] = True
    with stage("verify.sync"):
        check_sync(result)
    ran["sync"] = True
    return ran


def verify_network_plan(plan: "NetworkPlan") -> Dict[str, bool]:
    """Statically verify a whole-network plan.

    Checks the arena slot assignment against independently re-derived
    liveness, then runs :func:`verify_result` on every unique compiled
    subgraph of the plan.
    """
    with stage("verify.arena"):
        check_arena(plan)
    ran: Dict[str, bool] = {"arena": True}
    seen: List[str] = []
    for step in plan.steps:
        if step.digest in seen:
            continue
        seen.append(step.digest)
        verify_result(plan.programs[step.digest])
    ran["subgraphs"] = True
    return ran
