"""Graph engine: computation graphs, subgraph fusion, network models.

AKG inherits TVM's graph engine (Sec. 3): the graph layer partitions a
network into fused subgraphs and hands each one to the tensor compiler.
Here the computation graph *is* the ``te`` tensor DAG; the fusion pass
partitions its compute nodes into groups, and each group is re-rooted
onto placeholder inputs to form an independent kernel.

- :mod:`repro.graph.fusion`    -- the graph-level fusion pass.
- :mod:`repro.graph.subgraphs` -- the five fused subgraphs of Table 1.
- :mod:`repro.graph.networks`  -- ResNet-50, MobileNet-v2, AlexNet,
  BERT (two vocabularies, all 24 layers built; no multiplicity scaling)
  and SSD as layer tables, plus toy-scale replayable variants.
- :mod:`repro.graph.pipeline`  -- the one partition per network
  (:func:`~repro.graph.pipeline.partition`: fuse, re-root each group
  once, dedup by digest), read by Fig. 13, ``akgc --network`` and the
  graph-level compile driver (network ->
  :class:`~repro.graph.plan.NetworkPlan`).
- :mod:`repro.graph.plan`      -- executable plans: schedule, static
  buffer-reuse arena, batched replay.
"""

from repro.graph.fusion import SubgraphSpec, extract_subgraph, fuse_graph
from repro.graph.networks import (
    NETWORKS,
    NetworkModel,
    alexnet,
    alexnet_tiny,
    bert,
    mobilenet_v2,
    mobilenet_v2_tiny,
    network,
    resnet50,
    ssd300,
)
from repro.graph.pipeline import CompiledNetwork, Partition, compile_network, partition
from repro.graph.plan import ArenaPlan, NetworkPlan, PlanStep, plan_arena
from repro.graph.subgraphs import paper_subgraphs

__all__ = [
    "fuse_graph",
    "extract_subgraph",
    "SubgraphSpec",
    "paper_subgraphs",
    "NetworkModel",
    "resnet50",
    "mobilenet_v2",
    "alexnet",
    "bert",
    "ssd300",
    "alexnet_tiny",
    "mobilenet_v2_tiny",
    "NETWORKS",
    "network",
    "partition",
    "Partition",
    "compile_network",
    "CompiledNetwork",
    "NetworkPlan",
    "PlanStep",
    "ArenaPlan",
    "plan_arena",
]
