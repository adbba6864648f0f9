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
placeholder inputs, so the tensor compiler sees an independent kernel,
and produces a *signature* so repeated layers (every network repeats
shapes heavily) compile once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cce.expert import _rebuild_expr
from repro.ir.tensor import ComputeOp, Tensor, placeholder

MAX_GROUP_OPS = 24


class SubgraphSpec:
    """One fused subgraph: its canonical re-rooting + identity signature.

    The group is re-rooted once, onto *canonical* tensor names
    (placeholders ``p0..``, computes ``c0..``): signature-equal subgraphs
    extracted from different network positions produce byte-identical IR
    fingerprints, so the persistent disk cache deduplicates their
    compilations.  Beside that DAG the spec carries the wiring the network
    pipeline needs to stitch subgraphs back together:

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
        signature: Tuple,
        n_ops: int,
        input_tensors: List[Tensor],
        source_outputs: List[Tensor],
        canonical_outputs: List[Tensor],
        canonical_inputs: List[str],
        canonical_output_names: List[str],
    ):
        self.name = name
        self.signature = signature
        self.n_ops = n_ops
        self.input_tensors = input_tensors
        self.source_outputs = source_outputs
        self.canonical_outputs = canonical_outputs
        self.canonical_inputs = canonical_inputs
        self.canonical_output_names = canonical_output_names

    def __repr__(self) -> str:
        return f"SubgraphSpec({self.name}, {self.n_ops} ops)"

    def digest(self) -> str:
        """Content digest of the signature (the compile-level dedup key)."""
        from repro.core import diskcache

        return diskcache.digest(
            "subgraph", diskcache.signature_fingerprint(self.signature)
        )


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
    from repro.ir.expr import IterVar, TensorRef, walk

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
        body = _rebuild_expr(t.op.body, canonical)
        canonical[id(t)] = Tensor(
            f"c{k}", t.shape, t.dtype, op=ComputeOp(t.op.axes, body)
        )
    output = canonical[id(group[-1])]

    signature = (
        tuple((_op_kind(t), t.shape, t.dtype) for t in group),
        tuple((dep.shape, dep.dtype) for dep in boundary_order),
    )
    return SubgraphSpec(
        name,
        signature,
        len(group),
        input_tensors=boundary_order,
        source_outputs=[group[-1]],
        canonical_outputs=[output],
        canonical_inputs=[canonical[id(dep)].name for dep in boundary_order],
        canonical_output_names=[output.name],
    )


def _op_kind(t: Tensor) -> str:
    """Structural identity of one op.

    Must distinguish kernels that compile differently: the body's
    expression structure (with tensors and iterators alpha-renamed so
    identical layers in different positions still match), every operand's
    shape, and the reduce extents (conv window / contraction depth).
    """
    op = t.op
    if op is None:
        return "placeholder"
    red = ",".join(str(a.extent) for a in op.reduce_axes)
    shapes = ";".join(
        f"{d.shape}{d.dtype}" for d in op.input_tensors()
    )
    return f"{_canonical_expr(op)}/r[{red}]/in[{shapes}]"


def _canonical_expr(op) -> str:
    """Alpha-renamed rendering of a compute body (structure only)."""
    from repro.ir.expr import (
        BinaryOp,
        Cast,
        FloatImm,
        IntImm,
        IterVar,
        Reduce,
        Select,
        TensorRef,
        UnaryOp,
    )

    tensor_ids: Dict[int, str] = {}
    iter_ids: Dict[int, str] = {}

    def name_tensor(t) -> str:
        return tensor_ids.setdefault(id(t), f"t{len(tensor_ids)}")

    def name_iter(v) -> str:
        return iter_ids.setdefault(id(v), f"i{len(iter_ids)}")

    for axis in op.axes:
        name_iter(axis)

    def render(e) -> str:
        if isinstance(e, IntImm):
            return str(e.value)
        if isinstance(e, FloatImm):
            return repr(e.value)
        if isinstance(e, IterVar):
            return name_iter(e)
        if isinstance(e, TensorRef):
            idx = ",".join(render(i) for i in e.indices)
            return f"{name_tensor(e.tensor)}[{idx}]"
        if isinstance(e, BinaryOp):
            return f"{e.op}({render(e.a)},{render(e.b)})"
        if isinstance(e, UnaryOp):
            return f"{e.op}({render(e.a)})"
        if isinstance(e, Select):
            return f"sel({render(e.cond)},{render(e.if_true)},{render(e.if_false)})"
        if isinstance(e, Cast):
            return f"cast<{e.dtype}>({render(e.a)})"
        if isinstance(e, Reduce):
            axes = ",".join(name_iter(a) for a in e.axes)
            return f"{e.op}[{axes}]({render(e.value)})"
        return type(e).__name__

    return render(op.body)
