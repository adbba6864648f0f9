"""Network plans: arena liveness, compile dedup, batched replay."""

import numpy as np
import pytest

from repro.core import diskcache, faults
from repro.core.errors import CodegenError, NetworkPlanError
from repro.graph import compile_network, network, plan_arena
from repro.runtime.reference import numpy_dtype
from repro.runtime.vectorized import exec_stats, reset_exec_stats
from repro.tools import perf


# -- the arena planner (pure liveness, no compilation) ------------------------


def _assert_no_live_aliasing(plan):
    """No two tensors sharing a slot may have overlapping live ranges."""
    by_slot = {}
    for key, slot in plan.slot_of.items():
        by_slot.setdefault(slot, []).append(key)
    for slot, keys in by_slot.items():
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                a0, a1 = plan.intervals[a]
                b0, b1 = plan.intervals[b]
                assert a1 < b0 or b1 < a0, (
                    f"{a} {plan.intervals[a]} and {b} {plan.intervals[b]} "
                    f"are simultaneously live in slot {slot}"
                )


def test_arena_chain_reuses_one_slot():
    # a -> b -> c -> d: at most two tensors live at once.
    tensors = {"a": 100, "b": 100, "c": 100, "d": 100}
    steps = [
        ([], ["a"]),
        (["a"], ["b"]),
        (["b"], ["c"]),
        (["c"], ["d"]),
    ]
    plan = plan_arena(tensors, steps)
    assert plan.naive_peak_bytes == 400
    assert len(plan.slot_bytes) == 2
    assert plan.planned_peak_bytes == 200
    _assert_no_live_aliasing(plan)


def test_arena_diamond_keeps_fanout_live():
    # a feeds both branches; it must not be recycled until the second
    # branch has read it.
    tensors = {"a": 64, "b": 64, "c": 64, "d": 64}
    steps = [
        ([], ["a"]),
        (["a"], ["b"]),
        (["a"], ["c"]),
        (["b", "c"], ["d"]),
    ]
    plan = plan_arena(tensors, steps)
    assert plan.intervals["a"] == (0, 2)
    # b is allocated at step 1 while a is still live -> distinct slots.
    assert plan.slot_of["b"] != plan.slot_of["a"]
    assert plan.planned_peak_bytes < plan.naive_peak_bytes
    _assert_no_live_aliasing(plan)


def test_arena_output_never_aliases_dying_input():
    # b's only read is the step that produces c; c must still get a
    # different buffer than b (a statement reads b while writing c).
    tensors = {"a": 32, "b": 32, "c": 32}
    steps = [([], ["a"]), (["a"], ["b"]), (["b"], ["c"])]
    plan = plan_arena(tensors, steps)
    assert plan.slot_of["c"] != plan.slot_of["b"]
    # But c can (and should) recycle a's slot, which died at step 1.
    assert plan.slot_of["c"] == plan.slot_of["a"]


def test_arena_keep_gets_dedicated_buffers():
    tensors = {"a": 16, "b": 16}
    steps = [([], ["a"]), (["a"], ["b"])]
    plan = plan_arena(tensors, steps, keep={"b"})
    assert "b" in plan.dedicated and "b" not in plan.slot_of
    assert plan.dedicated_bytes == 16


def test_arena_best_fit_prefers_smallest_slot():
    tensors = {"big": 100, "small": 10, "next": 10}
    steps = [([], ["big", "small"]), (["big", "small"], ["next"])]
    plan = plan_arena(tensors, steps)
    # next (10 bytes) should reuse small's 10-byte slot, not big's 100.
    assert plan.slot_bytes[plan.slot_of["next"]] == 10


def test_arena_rejects_malformed_schedules():
    with pytest.raises(NetworkPlanError):
        plan_arena({"a": 8}, [([], ["a"]), ([], ["a"])])
    with pytest.raises(NetworkPlanError):
        plan_arena({"a": 8, "ghost": 8}, [(["ghost"], ["a"])])
    with pytest.raises(NetworkPlanError):
        plan_arena({}, [([], ["a"])])


# -- compiled network plans ---------------------------------------------------

_PLANS = {}


def _compiled(name):
    """Compile once per session (conftest re-isolates the disk cache per
    test, but the in-process plan object stays valid)."""
    if name not in _PLANS:
        _PLANS[name] = compile_network(network(name))
    return _PLANS[name]


def _feeds(plan, seed, batch):
    rng = np.random.default_rng(seed)
    feeds = []
    for _ in range(batch):
        feed = {}
        for info in plan.inputs:
            feed[info.key] = (
                0.25 * rng.standard_normal(info.shape)
            ).astype(numpy_dtype(info.dtype))
        feeds.append(feed)
    return feeds


@pytest.mark.parametrize("name", ["alexnet_tiny", "mobilenetv2_tiny"])
def test_plan_replay_bit_identical_to_scalar_oracle(name):
    plan = _compiled(name).plan
    feeds = _feeds(plan, seed=7, batch=3)
    reset_exec_stats()
    got = plan.replay(feeds)
    assert exec_stats()["scalar_fallback"] == 0, exec_stats()["fallback_reasons"]
    ref = plan.oracle(feeds)
    assert len(got) == len(ref) == 3
    for g, r in zip(got, ref):
        assert set(g) == set(r)
        for key in g:
            assert g[key].dtype == r[key].dtype
            assert np.array_equal(g[key], r[key]), f"{name}:{key}"


@pytest.mark.parametrize("name", ["alexnet_tiny", "mobilenetv2_tiny"])
def test_plan_arena_saves_memory_without_aliasing(name):
    plan = _compiled(name).plan
    arena = plan.arena
    assert arena.planned_peak_bytes < arena.naive_peak_bytes
    _assert_no_live_aliasing(arena)


def test_replay_outputs_survive_buffer_reuse():
    # Dedicated output buffers are reused across invocations; returned
    # arrays must be copies, so earlier results stay intact.
    plan = _compiled("alexnet_tiny").plan
    feeds = _feeds(plan, seed=11, batch=2)
    got = plan.replay(feeds)
    first = {k: v.copy() for k, v in got[0].items()}
    plan.replay(feeds[1:])  # overwrite the shared buffers
    for key in first:
        assert np.array_equal(got[0][key], first[key])


def test_compile_dedup_one_compile_per_signature():
    compiled = compile_network(network("alexnet_tiny"))
    plan = compiled.plan
    # t_c3 / t_c4 share a fingerprint: strictly fewer compiles than steps.
    assert plan.unique_subgraphs() < len(plan.steps)
    assert compiled.dedup_reuses == len(plan.steps) - plan.unique_subgraphs()
    # The reuse is visible in perf.report() as a counter...
    assert perf.report()["counters"]["graph.dedup_reuse"] == compiled.dedup_reuses
    # ...and the disk cache proves one compile per unique fingerprint: a
    # recompile in the same cache dir hits for every unique subgraph.
    diskcache.reset_disk_cache_stats()
    compile_network(network("alexnet_tiny"))
    stats = diskcache.disk_cache_stats()
    assert stats["hits"] >= plan.unique_subgraphs()
    assert stats["stores"] == 0


def test_midnetwork_fault_marks_plan_degraded_and_skips_cache():
    # tiling.auto_search only fires for the pool subgraph — a
    # mid-network compile; the ladder degrades it and the plan-level
    # roll-up must reflect that.
    with faults.inject("tiling.auto_search:error"):
        compiled = compile_network(network("alexnet_tiny"))
    plan = compiled.plan
    assert plan.degraded
    kinds = {e.get("kind") for e in plan.resilience.events}
    assert "fallback" in kinds
    # The degraded subgraph is never disk-cached: recompiling without
    # the fault must rebuild (store) at least one program.
    diskcache.reset_disk_cache_stats()
    healthy = compile_network(network("alexnet_tiny"))
    assert not healthy.plan.degraded
    assert diskcache.disk_cache_stats()["stores"] >= 1
    # Degraded compilation still replays bit-identically (fallback
    # tilings are legal programs, just slower ones).
    feeds = _feeds(plan, seed=3, batch=1)
    got = plan.replay(feeds)
    ref = plan.oracle(feeds)
    for key in got[0]:
        assert np.array_equal(got[0][key], ref[0][key])


def test_stage_filters_see_the_graph_stages():
    # compile_network builds in the calling thread, and stage frames are
    # per thread, so the subgraph builds run inside graph.compile_subgraphs.
    with faults.inject("storage.promote:error@graph.compile_subgraphs"):
        with pytest.raises(CodegenError) as info:
            compile_network(network("alexnet_tiny"))
    assert info.value.stage.startswith("backend.")
    with faults.inject("storage.promote:error@graph.fuse"):
        compile_network(network("alexnet_tiny"))  # fusing plans no storage


def test_plan_total_cycles_weights_multiplicity():
    plan = _compiled("mobilenetv2_tiny").plan
    counts = plan.multiplicities()
    cycles = plan.cycles_by_digest()
    assert sum(counts.values()) == len(plan.steps)
    assert plan.total_cycles() == sum(
        cycles[d] * n for d, n in counts.items()
    )
    assert plan.total_cycles() > max(cycles.values())


def test_unknown_network_input_raises_typed_error():
    plan = _compiled("alexnet_tiny").plan
    with pytest.raises(NetworkPlanError):
        plan.replay([{"image": np.zeros((2, 3, 15, 15), dtype=np.float16)}])
