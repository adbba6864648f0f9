"""Arena planner vs. the aliasing oracle on adversarial liveness graphs.

:func:`repro.graph.plan.plan_arena` is pure liveness arithmetic, so it
can be pitted directly against the independent checker in
:mod:`repro.verify.arena` — the planner proposes, the oracle disposes.
The graphs here are the shapes that historically break best-fit reuse
planners: diamonds (two simultaneously-live branches off one producer)
and wide fan-outs (one tensor read by many later steps while siblings
come and go).  Sizes scale with a symbolic batch dimension's declared
maximum, mirroring how network plans size buffers for shape-generic
subgraphs (clamped replays never exceed the max, so slot bytes at the
max cover every binding).
"""

import pytest

from repro.core.errors import VerificationError
from repro.graph import plan_arena
from repro.ir.tensor import SymDim
from repro.verify import check_arena_assignment

BATCH = SymDim("N", 8)
ROW_BYTES = 64


def _nbytes(rows):
    """Buffer size for ``rows`` rows of a symbolic-batch tensor: sized
    at the declared maximum, as the network planner does."""
    return BATCH.max * rows * ROW_BYTES


def test_diamond_plan_passes_the_oracle():
    #      a
    #     / \
    #    b   c     (b and c simultaneously live)
    #     \ /
    #      d
    tensors = {"a": _nbytes(4), "b": _nbytes(2), "c": _nbytes(2), "d": _nbytes(1)}
    steps = [
        ([], ["a"]),
        (["a"], ["b"]),
        (["a"], ["c"]),
        (["b", "c"], ["d"]),
    ]
    plan = plan_arena(tensors, steps, keep={"d"})
    derived = check_arena_assignment(tensors, steps, plan, keep={"d"})
    # The two branches overlap (both live at step 3) and must not share.
    assert plan.slot_of["b"] != plan.slot_of["c"]
    assert derived["b"] == (1, 3) and derived["c"] == (2, 3)


def test_fanout_plan_passes_the_oracle():
    # One hub read by every later step, siblings born and dying around it.
    tensors = {
        "hub": _nbytes(8),
        "t1": _nbytes(2),
        "t2": _nbytes(2),
        "t3": _nbytes(2),
        "out": _nbytes(1),
    }
    steps = [
        ([], ["hub"]),
        (["hub"], ["t1"]),
        (["hub", "t1"], ["t2"]),
        (["hub", "t2"], ["t3"]),
        (["hub", "t3"], ["out"]),
    ]
    plan = plan_arena(tensors, steps, keep={"out"})
    derived = check_arena_assignment(tensors, steps, plan, keep={"out"})
    assert derived["hub"] == (0, 4)
    # The hub is live throughout: nothing may share its slot.
    hub_slot = plan.slot_of["hub"]
    sharers = [k for k, s in plan.slot_of.items() if s == hub_slot]
    assert sharers == ["hub"]
    # The dying siblings may recycle: the arena beats dedicated buffers.
    assert plan.arena_bytes < sum(tensors.values())


def test_oracle_rejects_forced_aliasing():
    tensors = {"a": 100, "b": 100, "c": 100}
    steps = [([], ["a"]), (["a"], ["b"]), (["a", "b"], ["c"])]
    plan = plan_arena(tensors, steps, keep={"c"})
    assert plan.slot_of["a"] != plan.slot_of["b"]
    plan.slot_of["b"] = plan.slot_of["a"]  # a and b overlap at step 1
    with pytest.raises(VerificationError, match="aliases"):
        check_arena_assignment(tensors, steps, plan, keep={"c"})


def test_oracle_rejects_undersized_slot():
    tensors = {"a": 100, "b": 50}
    steps = [([], ["a"]), (["a"], ["b"])]
    plan = plan_arena(tensors, steps, keep={"b"})
    plan.slot_bytes[plan.slot_of["a"]] = 99
    with pytest.raises(VerificationError, match="does not fit"):
        check_arena_assignment(tensors, steps, plan, keep={"b"})


def test_oracle_rejects_stale_recorded_interval():
    tensors = {"a": 100, "b": 100}
    steps = [([], ["a"]), (["a"], ["b"])]
    plan = plan_arena(tensors, steps, keep={"b"})
    plan.intervals["a"] = (0, 0)  # derived liveness is (0, 1)
    with pytest.raises(VerificationError, match="disagrees"):
        check_arena_assignment(tensors, steps, plan, keep={"b"})


def test_oracle_rejects_kept_tensor_in_recycled_slot():
    tensors = {"a": 100, "b": 100}
    steps = [([], ["a"]), (["a"], ["b"])]
    plan = plan_arena(tensors, steps, keep={"b"})
    plan.slot_of["b"] = plan.slot_of["a"]
    with pytest.raises(VerificationError, match="kept tensor"):
        check_arena_assignment(tensors, steps, plan, keep={"b"})
