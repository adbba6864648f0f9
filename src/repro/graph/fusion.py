"""Graph-level subgraph fusion (the graph engine's contribution).

The pass partitions the compute tensors of a network DAG into fused
groups, greedily:

- contraction anchors (conv / matmul / pooling -- anything with reduce
  axes) seed a group and absorb their single-consumer elementwise
  producers and followers;
- anchor-free elementwise chains group together;
- gathers and rank-changing boundaries cut groups (the tensor compiler
  would split them into separate tile nests anyway);
- group size is capped to keep per-kernel compile times sane, matching
  the paper's subgraphs of 6-21 operators.

``extract_subgraph`` then re-roots a group once, onto canonically named
placeholder inputs, so the tensor compiler sees an independent kernel
whose disk-cache fingerprint is its identity: repeated layers (every
network repeats shapes heavily) compile once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.ir.tensor import Tensor, placeholder

MAX_GROUP_OPS = 24


class SubgraphSpec:
    """One fused subgraph: its canonical re-rooting and the wiring around it.

    The group is re-rooted once, onto *canonical* tensor names
    (placeholders ``p0..``, computes ``c0..``): one kernel extracted from
    different network positions has one IR fingerprint, so the network
    partition, the persistent disk cache and the compile service all
    deduplicate it alike.  Beside that DAG the spec carries the wiring the
    network pipeline needs to stitch subgraphs back together:

    - ``input_tensors``   the original boundary tensors this subgraph
                          reads, in placeholder-creation order;
    - ``source_outputs``  the original network tensors aligned with
                          ``canonical_outputs``;
    - ``canonical_inputs`` / ``canonical_output_names``  the canonical
      names aligned with ``input_tensors`` / ``source_outputs``.
    """

    def __init__(
        self,
        name: str,
        n_ops: int,
        input_tensors: List[Tensor],
        source_outputs: List[Tensor],
        canonical_outputs: List[Tensor],
        canonical_inputs: List[str],
        canonical_output_names: List[str],
    ):
        self.name = name
        self.n_ops = n_ops
        self.input_tensors = input_tensors
        self.source_outputs = source_outputs
        self.canonical_outputs = canonical_outputs
        self.canonical_inputs = canonical_inputs
        self.canonical_output_names = canonical_output_names

    def __repr__(self) -> str:
        return f"SubgraphSpec({self.name}, {self.n_ops} ops)"

    def digest(self) -> str:
        """Digest of the canonical DAG's IR fingerprint (the compile-level
        dedup key): tensors and iterators are numbered by visit order, so
        two positions computing one kernel share it."""
        from repro.core import diskcache

        fingerprint = diskcache.ir_fingerprint(self.canonical_outputs)
        return diskcache.digest("subgraph", fingerprint)


def _is_heavy(t: Tensor) -> bool:
    """Contraction anchors (conv/matmul): at most one per fused kernel.

    Poolings and other single-operand reductions may ride along with a
    contraction, but two contractions never share a kernel -- matching
    both the paper's subgraphs and what the MindSpore graph engine emits.
    """
    from repro.ir.expr import BinaryOp, Reduce, Select, TensorRef

    if t.op is None or not t.op.reduce_axes:
        return False
    body = t.op.body
    if not isinstance(body, Reduce):
        return False
    v = body.value
    if not isinstance(v, BinaryOp) or v.op != "mul":
        return False

    def is_read(e):
        return isinstance(e, TensorRef) or (
            isinstance(e, Select) and isinstance(e.if_true, TensorRef)
        )

    return is_read(v.a) and is_read(v.b)


def _is_gather(t: Tensor) -> bool:
    from repro.ir.expr import TensorRef, walk

    if t.op is None:
        return False
    for node in walk(t.op.body):
        if isinstance(node, TensorRef):
            for idx in node.indices:
                if any(isinstance(n, TensorRef) for n in walk(idx)):
                    return True
    return False


def fuse_graph(
    outputs: Sequence[Tensor] | Tensor, max_group_ops: int = MAX_GROUP_OPS
) -> List[List[Tensor]]:
    """Partition the compute tensors of a DAG into fused groups.

    Every computed tensor appears in exactly one group, and the groups come
    back in topological order.  Why sorting by each group's last tensor is
    enough: a tensor joins a group only through a producer whose *single*
    consumer it is, and every earlier member's single consumer is already
    in the group, so a group is a path on which every member but the last
    is read only by its successor.  Only a group's last tensor is read
    outside it, so an edge G -> H means last(G) precedes a member of H,
    hence last(H), in ``order`` (itself topological).  The group graph is
    therefore acyclic and the sort below is one of its topological orders.
    """
    if isinstance(outputs, Tensor):
        outputs = [outputs]
    order: List[Tensor] = []
    seen = set()
    for out in outputs:
        for t in out.ancestors():
            if not t.is_placeholder and id(t) not in seen:
                seen.add(id(t))
                order.append(t)

    consumers: Dict[int, List[Tensor]] = {}
    for t in order:
        for dep in t.op.input_tensors():
            consumers.setdefault(id(dep), []).append(t)

    group_of: Dict[int, int] = {}
    groups: List[List[Tensor]] = []
    last_at: List[int] = []  # position in ``order`` of each group's last tensor

    for position, t in enumerate(order):
        # A gather always starts (and stays) alone-ish: it cuts fusion.
        producers = [p for p in t.op.input_tensors() if not p.is_placeholder]
        candidate: Optional[int] = None
        if not _is_gather(t):
            for p in producers:
                gi = group_of.get(id(p))
                if gi is None:
                    continue
                # Join the producer's group when the producer is consumed
                # only inside this chain and the group has room.
                p_consumers = consumers.get(id(p), [])
                if len(p_consumers) == 1 and len(groups[gi]) < max_group_ops:
                    if _is_heavy(t) and any(_is_heavy(g) for g in groups[gi]):
                        continue  # one contraction per kernel
                    candidate = gi
                    break
        if candidate is None:
            groups.append([])
            last_at.append(position)
            candidate = len(groups) - 1
        groups[candidate].append(t)
        last_at[candidate] = position
        group_of[id(t)] = candidate

    return [groups[gi] for gi in sorted(range(len(groups)), key=last_at.__getitem__)]


def extract_subgraph(
    group: Sequence[Tensor], name: str
) -> SubgraphSpec:
    """Re-root one fused group onto canonical placeholder inputs.

    ``group`` is a single-consumer path (what :func:`fuse_graph` returns):
    only its last tensor is read outside it, so that is the one output.
    """
    in_group = {id(t) for t in group}
    reads = [dep for t in group for dep in t.op.input_tensors()]
    boundary_order = list({id(d): d for d in reads if id(d) not in in_group}.values())
    canonical: Dict[int, Tensor] = {
        id(dep): placeholder(dep.shape, dep.dtype, name=f"p{k}")
        for k, dep in enumerate(boundary_order)
    }
    for k, t in enumerate(group):
        canonical[id(t)] = t.rerooted(f"c{k}", canonical)
    output = canonical[id(group[-1])]
    return SubgraphSpec(
        name,
        len(group),
        input_tensors=boundary_order,
        source_outputs=[group[-1]],
        canonical_outputs=[output],
        canonical_inputs=[canonical[id(dep)].name for dep in boundary_order],
        canonical_output_names=[output.name],
    )
