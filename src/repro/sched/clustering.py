"""Affine clustering: forming fusion groups before tiling (Sec. 4.1-4.2).

The conservative clustering strategy of the paper converts the initial
schedule tree into the form of Fig. 3(c): reduction init/update pairs are
grouped, and every statement chain whose dependences are *uniform*
(constant distance on aligned dimensions) is merged into the consumer's
group.  The groups that write kernel outputs form the **live-out iteration
space**; producer groups connected to it through *stencil* dependences
(bounded but non-constant distances, e.g. the convolution reading the
bias-added feature map at ``h+kh``) remain separate **intermediate
iteration spaces** -- exactly the split the reverse tiling strategy of
Sec. 4.2 consumes.

Dependence classification per aligned dimension pair:

- ``uniform``  -- ``dst_i - src_i`` is a constant: fusion keeps alignment.
- ``stencil``  -- the distance is bounded but varies: fusing requires
  overlapped tiles (handled post-tiling via extension nodes).
- ``barrier``  -- unbounded / misaligned (transpose, gather, rank change):
  the clusters stay in separate groups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.lower import LoweredKernel, PolyStatement
from repro.sched.deps import Dependence


class ClusterEdge:
    """Summarised dependence between two clusters."""

    __slots__ = ("src", "dst", "kind", "distances")

    def __init__(self, src: int, dst: int, kind: str, distances):
        self.src = src
        self.dst = dst
        self.kind = kind  # "uniform" | "stencil" | "barrier"
        self.distances = distances  # per aligned dim: int | (lo, hi) | None

    def __repr__(self) -> str:
        return f"ClusterEdge({self.src}->{self.dst}, {self.kind})"


class Clustering:
    """Result of the clustering pass."""

    def __init__(
        self,
        clusters: List[List[PolyStatement]],
        live_out: Set[int],
        edges: List[ClusterEdge],
    ):
        self.clusters = clusters
        self.live_out = live_out  # indices into clusters
        self.edges = edges

    def cluster_of(self, stmt_id: str) -> int:
        """Index of the cluster containing ``stmt_id``."""
        for i, cluster in enumerate(self.clusters):
            if any(s.stmt_id == stmt_id for s in cluster):
                return i
        raise KeyError(stmt_id)

    @property
    def intermediate_indices(self) -> List[int]:
        """Cluster indices that are not live-out, in order."""
        return [i for i in range(len(self.clusters)) if i not in self.live_out]

    def __repr__(self) -> str:
        parts = []
        for i, cluster in enumerate(self.clusters):
            ids = ",".join(s.stmt_id for s in cluster)
            tag = "live-out" if i in self.live_out else "intermediate"
            parts.append(f"[{ids}]({tag})")
        return "Clustering(" + " ".join(parts) + ")"


def classify_dependence(dep: Dependence) -> Tuple[str, Optional[list]]:
    """Classify a cross-statement dependence as uniform/stencil/barrier.

    Alignment is positional over the *data* dimensions of both statements;
    rank mismatches or non-constant unbounded distances are barriers.
    """
    src_data = dep.src.data_iters
    dst_data = dep.dst.data_iters
    if len(src_data) != len(dst_data):
        return "barrier", None
    # An unconstrained relation (a non-affine access between statements
    # without dims): only such a pair can have one, so only it is built.
    if not (dep.src.iter_names or dep.dst.iter_names) and not dep.relation.constraints:
        return "barrier", None

    # Equal ranks: the data dims lead both statements, so their bounds are
    # the leading entries of the distance bounds, which the dependence
    # answers once (``is_uniform`` and ``distance_vector`` read the same
    # ones).  Otherwise the dependence answers them here.
    if len(dep.src.iter_names) == len(dep.dst.iter_names):
        if dep.is_uniform:
            return "uniform", dep.distance_vector()[: len(src_data)]
        bounds = dep.distance_bounds()[: len(src_data)]
    else:
        bounds = dep.bounds_between(src_data, dst_data)

    distances = []
    kind = "uniform"
    for pos in range(len(src_data)):
        s_dim = src_data[pos]
        lo_v, hi_v = bounds[pos]
        if lo_v is None or hi_v is None:
            return "barrier", None
        if lo_v == hi_v:
            distances.append(lo_v)
            continue
        # A genuine stencil constrains the distance far below the
        # unconstrained range (src extent + dst extent - 2); a distance that
        # spans the whole range means the positionally-aligned dims are
        # unrelated.  The dependence may still be fusable through the
        # reverse strategy when the source dim is *functionally determined*
        # by the destination dims via some other constraint (transposes,
        # channel-vs-reduce relations in convolutions); only genuinely
        # undetermined sources (gathers) are barriers.
        unconstrained = (
            dep.src.iter_extents[pos] + dep.dst.iter_extents[pos] - 2
        )
        if unconstrained > 0 and (hi_v - lo_v) >= unconstrained:
            if dep.src_dim_determined(s_dim):
                distances.append((lo_v, hi_v))
                kind = "stencil"
                continue
            return "barrier", None
        distances.append((lo_v, hi_v))
        kind = "stencil"
    return kind, distances


def conservative_clustering(
    kernel: LoweredKernel, deps: Sequence[Dependence]
) -> Clustering:
    """The conservative clustering strategy (maximising tiling opportunity).

    1. Seed one cluster per statement; merge reduction init/update pairs.
    2. Classify inter-cluster flow dependences.
    3. Grow the live-out group: starting from clusters that write kernel
       outputs, absorb producers connected only through ``uniform`` edges
       (alignment preserved).  ``stencil`` producers stay intermediate.
    """
    statements = kernel.statements
    cluster_index: Dict[str, int] = {}
    clusters: List[List[PolyStatement]] = []
    for stmt in statements:
        # Merge with the previous statement when it is the init of the same
        # reduction tensor (init immediately precedes its update).
        if (
            stmt.kind == "reduce"
            and clusters
            and clusters[-1][-1].tensor is stmt.tensor
            and clusters[-1][-1].kind == "init"
        ):
            clusters[-1].append(stmt)
        else:
            clusters.append([stmt])
        cluster_index[stmt.stmt_id] = len(clusters) - 1

    # Classify edges between distinct clusters (flow deps only).
    edges: List[ClusterEdge] = []
    edge_seen: Set[Tuple[int, int]] = set()
    for dep in deps:
        if dep.is_self or dep.kind != "flow":
            continue
        ci, cj = cluster_index[dep.src.stmt_id], cluster_index[dep.dst.stmt_id]
        if ci == cj:
            continue
        kind, distances = classify_dependence(dep)
        key = (ci, cj)
        if key in edge_seen:
            # Keep the most restrictive classification for repeated edges.
            existing = next(e for e in edges if (e.src, e.dst) == key)
            rank = {"uniform": 0, "stencil": 1, "barrier": 2}
            if rank[kind] > rank[existing.kind]:
                existing.kind = kind
                existing.distances = distances
            continue
        edge_seen.add(key)
        edges.append(ClusterEdge(ci, cj, kind, distances))

    # Live-out growth.
    output_ids = {id(t) for t in kernel.outputs}
    live_out: Set[int] = {
        i
        for i, cluster in enumerate(clusters)
        if any(id(s.tensor) in output_ids for s in cluster)
    }
    changed = True
    while changed:
        changed = False
        for edge in edges:
            if edge.dst in live_out and edge.src not in live_out:
                if edge.kind != "uniform":
                    continue
                # All consumers of src must already be in the live-out group
                # for the merge to preserve a single aligned band.
                consumers = [e.dst for e in edges if e.src == edge.src]
                if all(c in live_out for c in consumers):
                    outer_ok = _aligned_extents_match(
                        clusters[edge.src], clusters[edge.dst]
                    )
                    if outer_ok:
                        live_out.add(edge.src)
                        changed = True
    return Clustering(clusters, live_out, edges)


def _aligned_extents_match(
    cluster_a: List[PolyStatement], cluster_b: List[PolyStatement]
) -> bool:
    """Shared outer data dims must have equal extents to share a band."""
    depth = min(
        min(s.data_rank for s in cluster_a), min(s.data_rank for s in cluster_b)
    )
    for stmt_a in cluster_a:
        for stmt_b in cluster_b:
            for pos in range(depth):
                if stmt_a.iter_extents[pos] != stmt_b.iter_extents[pos]:
                    return False
    return True


def merge_uniform_clusters(clustering: Clustering) -> Clustering:
    """Union clusters connected by uniform single-consumer edges.

    Used for the *split* compilation candidate: stencil/barrier boundaries
    still cut kernels, but plain producer chains (conv -> bn -> relu)
    share one tile nest, exactly as ``compute_at`` fusion would arrange.
    """
    parent = list(range(len(clustering.clusters)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    consumer_count: Dict[int, int] = {}
    for e in clustering.edges:
        consumer_count[e.src] = consumer_count.get(e.src, 0) + 1
    for e in clustering.edges:
        if e.kind == "uniform" and consumer_count.get(e.src, 0) == 1:
            if _aligned_extents_match(
                clustering.clusters[e.src], clustering.clusters[e.dst]
            ):
                parent[find(e.src)] = find(e.dst)

    roots: Dict[int, List[PolyStatement]] = {}
    order: List[int] = []
    for i, cluster in enumerate(clustering.clusters):
        r = find(i)
        if r not in roots:
            roots[r] = []
            order.append(r)
        roots[r].extend(cluster)
    merged = [roots[r] for r in order]
    live_out = {
        order.index(find(i)) for i in clustering.live_out
    }
    return Clustering(merged, live_out, [])


def fusion_group_order(clustering: Clustering) -> List[List[int]]:
    """Execution order of groups: intermediates (topological) then live-out.

    Returns a list of groups, each a list of cluster indices; the final
    group is the merged live-out group.
    """
    order: List[List[int]] = [[i] for i in clustering.intermediate_indices]
    order.append(sorted(clustering.live_out))
    return order
