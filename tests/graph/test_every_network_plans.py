"""Every registered network is one partition, and that partition plans.

Fig. 13 times a network as the sum over :func:`repro.graph.partition`,
and ``compile_network`` plans the same partition, so a network the figure
times is a plan that runs.  The first test is compile-free: the fused
groups are single-consumer paths, which is why ``fuse_graph``'s order is
topological, and the partition order produces every tensor before any
instance reads it.
"""

import pytest

from repro.core.compiler import build
from repro.graph import NETWORKS, compile_network, fuse_graph, network, partition
from repro.verify import check_arena, check_dependences, check_sync

FULL_SIZE = ["alexnet", "resnet50", "mobilenetv2", "ssd300", "bert21128", "bert30522"]

def _consumers(outputs):
    consumers = {}
    for out in outputs:
        for t in out.ancestors():
            if t.is_placeholder:
                continue
            for dep in t.op.input_tensors():
                consumers.setdefault(id(dep), set()).add(id(t))
    return consumers


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_partition_is_topological_over_single_consumer_paths(name):
    outputs = network(name).builder()
    consumers = _consumers(outputs)
    for group in fuse_graph(outputs):
        for member, successor in zip(group, group[1:]):
            assert consumers[id(member)] == {id(successor)}, member.name

    part = partition(network(name))
    produced = set()
    for spec in part.specs:
        for dep in spec.input_tensors:
            assert dep.is_placeholder or id(dep) in produced, (spec.name, dep.name)
        produced.update(id(t) for t in spec.source_outputs)
    assert all(id(t) in produced for t in part.outputs)


def _plans_sync_and_arena_clean(name):
    part = partition(network(name))
    plan = compile_network(network(name)).plan
    assert plan.multiplicities() == part.multiplicities()
    for program in plan.programs.values():
        check_sync(program)
    check_arena(plan)
    # Fig. 13's AKG column: its backend over the shared partition.
    fig13 = part.total_cycles(lambda spec: build(spec.canonical_outputs, spec.name).cycles())
    assert fig13 == plan.total_cycles()


@pytest.mark.parametrize("name", ["alexnet_tiny", "mobilenetv2_tiny"])
def test_tiny_network_plans_sync_and_arena_clean(name):
    _plans_sync_and_arena_clean(name)


# The six full-size networks take about 8 s together (2-core host).
@pytest.mark.slow
@pytest.mark.parametrize("name", FULL_SIZE)
def test_full_size_network_plans_sync_and_arena_clean(name):
    _plans_sync_and_arena_clean(name)


def test_mobilenetv2_head_and_pool_pass_the_schedule_check():
    """The conv fused under the pool (a recomputed reduction) has
    self-dependences: the check proves them by containment alone."""
    part = partition(network("mobilenetv2"))
    spec = next(
        s for s in part.unique.values() if [t.name for t in s.source_outputs] == ["m_gap"]
    )
    check_dependences(build(spec.canonical_outputs, spec.name))
