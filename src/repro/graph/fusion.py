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

``extract_subgraph`` then re-roots a group onto placeholder inputs so the
tensor compiler sees an independent kernel, and produces a *signature* so
repeated layers (every network repeats shapes heavily) compile once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cce.expert import _rebuild_expr
from repro.ir.tensor import ComputeOp, Tensor, placeholder

MAX_GROUP_OPS = 24


class SubgraphSpec:
    """One fused subgraph: re-rooted outputs + identity signature.

    Besides the re-rooted DAG (``outputs``, which keeps the original
    tensor names so cycle-counting callers and layer-scaling heuristics
    still see them), the spec carries the wiring the network pipeline
    needs to stitch subgraphs back together:

    - ``input_tensors``   the original boundary tensors this subgraph
                          reads, in placeholder-creation order;
    - ``placeholders``    the re-rooted placeholders, aligned with
                          ``input_tensors``;
    - ``source_outputs``  the original network tensors aligned with
                          ``outputs``;
    - ``canonical_outputs``  a second re-rooting of the same group with
      *canonical* tensor names (placeholders ``p0..``, computes
      ``c0..``): signature-equal subgraphs extracted from different
      network positions produce byte-identical IR fingerprints, so the
      persistent disk cache deduplicates their compilations;
    - ``canonical_inputs`` / ``canonical_output_names``  the canonical
      names aligned with ``input_tensors`` / ``outputs``.
    """

    def __init__(
        self,
        name: str,
        outputs: List[Tensor],
        signature: Tuple,
        n_ops: int,
        input_tensors: Optional[List[Tensor]] = None,
        placeholders: Optional[List[Tensor]] = None,
        source_outputs: Optional[List[Tensor]] = None,
        canonical_outputs: Optional[List[Tensor]] = None,
        canonical_inputs: Optional[List[str]] = None,
        canonical_output_names: Optional[List[str]] = None,
    ):
        self.name = name
        self.outputs = outputs
        self.signature = signature
        self.n_ops = n_ops
        self.input_tensors = input_tensors or []
        self.placeholders = placeholders or []
        self.source_outputs = source_outputs or []
        self.canonical_outputs = canonical_outputs or []
        self.canonical_inputs = canonical_inputs or []
        self.canonical_output_names = canonical_output_names or []

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

    Returns groups in topological order; every computed tensor appears in
    exactly one group.
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

    def group_size(gi: int) -> int:
        return len(groups[gi])

    for t in order:
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
                if len(p_consumers) == 1 and group_size(gi) < max_group_ops:
                    if _is_heavy(t) and any(_is_heavy(g) for g in groups[gi]):
                        continue  # one contraction per kernel
                    candidate = gi
                    break
        if candidate is None:
            groups.append([])
            candidate = len(groups) - 1
        groups[candidate].append(t)
        group_of[id(t)] = candidate

    return [g for g in groups if g]


def extract_subgraph(
    group: Sequence[Tensor], name: str
) -> SubgraphSpec:
    """Re-root one fused group onto placeholder boundary inputs."""
    in_group = {id(t) for t in group}
    mapping: Dict[int, Tensor] = {}
    boundary_order: List[Tensor] = []
    rebuilt: Dict[int, Tensor] = {}
    canonical: Dict[int, Tensor] = {}
    counter = 0

    for t in group:
        for dep in t.op.input_tensors():
            if id(dep) in in_group or id(dep) in mapping:
                continue
            counter += 1
            mapping[id(dep)] = placeholder(
                dep.shape, dep.dtype, name=f"in{counter}_{dep.name}"
            )
            boundary_order.append(dep)

    canonical_ph: Dict[int, Tensor] = {
        id(dep): placeholder(dep.shape, dep.dtype, name=f"p{k}")
        for k, dep in enumerate(boundary_order)
    }

    for k, t in enumerate(group):
        local = dict(mapping)
        local.update(rebuilt)
        body = _rebuild_expr(t.op.body, local)
        rebuilt[id(t)] = Tensor(
            t.name, t.shape, t.dtype, op=ComputeOp(t.op.axes, body)
        )
        # The canonical twin: same structure, position-derived names only,
        # so signature-equal groups fingerprint identically.
        clocal = dict(canonical_ph)
        clocal.update(canonical)
        cbody = _rebuild_expr(t.op.body, clocal)
        canonical[id(t)] = Tensor(
            f"c{k}", t.shape, t.dtype, op=ComputeOp(t.op.axes, cbody)
        )

    consumed_inside = set()
    for t in group:
        for dep in t.op.input_tensors():
            if id(dep) in in_group:
                consumed_inside.add(id(dep))
    out_group = [t for t in group if id(t) not in consumed_inside]
    outputs = [rebuilt[id(t)] for t in out_group]
    # Tensors consumed inside but *also* by ops outside the group are
    # handled at the network level: the fuser only groups single-consumer
    # chains, so inside-consumed tensors are genuinely private here.

    boundary = tuple(
        (p.shape, p.dtype)
        for p in sorted(mapping.values(), key=lambda t: t.name)
    )
    signature = (
        tuple((_op_kind(t), t.shape, t.dtype) for t in group),
        boundary,
    )
    return SubgraphSpec(
        name,
        outputs,
        signature,
        len(group),
        input_tensors=boundary_order,
        placeholders=[mapping[id(dep)] for dep in boundary_order],
        source_outputs=out_group,
        canonical_outputs=[canonical[id(t)] for t in out_group],
        canonical_inputs=[
            canonical_ph[id(dep)].name for dep in boundary_order
        ],
        canonical_output_names=[canonical[id(t)].name for t in out_group],
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
