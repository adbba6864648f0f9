"""Post-tiling fusion via extension nodes (Sec. 4.3, Fig. 3e).

Classical polyhedral compilers fuse *before* tiling; AKG tiles the live-out
iteration space first and then *extends* each tile with the producer
instances it needs, which enables overlapped tiles and removes the
tiling/fusion conflict.  Concretely:

1. the live-out group's outer band is tiled (``tile_band``),
2. for each intermediate cluster (nearest producers first) the reverse
   strategy computes ``tile -> producer instances``,
3. the producer's original subtree is wrapped in ``Mark{"skipped"}`` so the
   code generator does not emit it twice, and
4. an extension node under the tile band introduces the per-tile producer
   instances ahead of the point loops.

Producers whose connection to the fused region is a *barrier* (transpose,
gather, rank change) are left alone: they stay separate tile nests inside
the same kernel.

The pass returns both the rewritten schedule tree and a :class:`TiledGroup`
record (tile dims/sizes, per-statement instance relations, execution order)
that the storage manager and the code generator consume directly.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core import faults, resilience
from repro.core.errors import FusionError
from repro.ir.lower import LoweredKernel, PolyStatement
from repro.poly.affine import AffineExpr
from repro.poly.maps import BasicMap
from repro.sched.clustering import Clustering
from repro.sched.deps import Dependence
from repro.sched.tree import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
)
from repro.tiling.reverse import liveout_instance_relation, producer_tile_relation
from repro.tiling.tile import tile_band


class TiledGroup:
    """Everything downstream passes need to know about one fused tile nest."""

    def __init__(
        self,
        tile_dims: List[str],
        tile_sizes: List[int],
        tile_counts: List[int],
        statements: List[PolyStatement],
        instance_relations: Dict[str, BasicMap],
        fused_producer_ids: List[str],
        liveout_ids: List[str],
    ):
        self.tile_dims = tile_dims
        self.tile_sizes = tile_sizes
        self.tile_counts = tile_counts  # number of tiles per tile dim
        self.statements = statements  # execution order inside a tile
        self.instance_relations = instance_relations
        self.fused_producer_ids = fused_producer_ids
        self.liveout_ids = liveout_ids
        # Set by tile_single_group: the group's originating filter node,
        # so the driver can re-tile an unfused group with smaller sizes.
        self.source_filter = None

    @property
    def total_tiles(self) -> int:
        """Number of tiles the nest iterates over."""
        total = 1
        for c in self.tile_counts:
            total *= c
        return total

    def instance_extents(self, stmt_id: str) -> List[int]:
        """Max per-dimension extent of one statement's instances per tile.

        Exact ILP over two copies of the instance relation sharing the tile
        dims -- the constant-size iteration box the code generator uses for
        intrinsic repeat counts.
        """
        from repro.tiling.reverse import affine_extent_bounds

        stmt = next(s for s in self.statements if s.stmt_id == stmt_id)
        rel = self.instance_relations[stmt_id]
        box_ranges = {
            d: (0, count - 1)
            for d, count in zip(self.tile_dims, self.tile_counts)
        }
        bounds = affine_extent_bounds(rel.constraints, stmt.iter_names, box_ranges)
        extents: List[int] = []
        for k, bound in enumerate(bounds):
            if bound is None:
                extents.append(stmt.iter_extents[k])
            else:
                extents.append(max(min(bound, stmt.iter_extents[k]), 1))
        return extents

    def instances_per_tile(self, stmt_id: str) -> int:
        """Upper bound on statement instances executed per (full) tile."""
        total = 1
        for e in self.instance_extents(stmt_id):
            total *= max(e, 1)
        return total

    def __repr__(self) -> str:
        ids = ",".join(s.stmt_id for s in self.statements)
        return (
            f"TiledGroup(dims={self.tile_dims}, sizes={self.tile_sizes}, "
            f"counts={self.tile_counts}, stmts=[{ids}])"
        )


class FusionResult:
    """Output of the post-tiling fusion pass."""

    def __init__(
        self,
        tree: DomainNode,
        groups: List[TiledGroup],
    ):
        self.tree = tree
        self.groups = groups  # in execution order


def group_filters(tree: DomainNode) -> List[FilterNode]:
    """Top-level fusion-group filters of a scheduled tree."""
    body = tree.child
    if isinstance(body, SequenceNode):
        return [c for c in body.children if isinstance(c, FilterNode)]
    if isinstance(body, FilterNode):
        return [body]
    raise FusionError(
        "unexpected scheduled tree shape", stage=resilience.active_stage()
    )


def _eligible_producers(
    clustering: Clustering,
) -> Set[int]:
    """Intermediate clusters fusable into the live-out tile nest.

    A producer is eligible when every path from it to the live-out group
    runs through ``uniform`` or ``stencil`` edges and all its consumers are
    (transitively) fused.  Barrier edges stop fusion.
    """
    fused = set(clustering.live_out)
    changed = True
    while changed:
        changed = False
        for edge in clustering.edges:
            if edge.src in fused or edge.dst not in fused:
                continue
            if edge.kind == "barrier":
                continue
            consumers = [e for e in clustering.edges if e.src == edge.src]
            if all(e.dst in fused and e.kind != "barrier" for e in consumers):
                fused.add(edge.src)
                changed = True
    return fused - set(clustering.live_out)


def apply_post_tiling_fusion(
    tree: DomainNode,
    kernel: LoweredKernel,
    deps: Sequence[Dependence],
    clustering: Clustering,
    tile_sizes: Sequence[int],
) -> FusionResult:
    """Tile the live-out band and fuse eligible producers into the tiles.

    ``tile_sizes`` has one entry per live-out outer-band row.  The returned
    tree has the Fig. 3(e) shape; the returned groups list the resulting
    tile nests in execution order (unfused producers first).
    """
    faults.fire("fusion.posttile")
    filters = group_filters(tree)
    liveout_ids = [
        s.stmt_id for ci in sorted(clustering.live_out) for s in clustering.clusters[ci]
    ]
    liveout_filter = next(
        f for f in filters if set(liveout_ids) & set(f.stmt_ids)
    )
    band = liveout_filter.child
    if not isinstance(band, BandNode):
        raise FusionError(
            "live-out filter must start with a band", stage=resilience.active_stage()
        )
    sizes = list(tile_sizes)
    if len(sizes) < band.n_rows:
        sizes = sizes + [1 << 30] * (band.n_rows - len(sizes))
    sizes = sizes[: band.n_rows]

    stmt_by_id = {s.stmt_id: s for s in kernel.statements}
    tile_dims = [sys.intern(f"o{i}") for i in range(band.n_rows)]

    # Instance relations for live-out statements.
    instance_relations: Dict[str, BasicMap] = {}
    clamped_sizes, tile_counts = _clamp_and_count(band, stmt_by_id, sizes)
    for sid in liveout_filter.stmt_ids:
        stmt = stmt_by_id[sid]
        rows = band.schedules[sid]
        instance_relations[sid] = liveout_instance_relation(
            stmt, rows, clamped_sizes, tile_dims
        )

    # Fuse eligible intermediate clusters, nearest producers first
    # (reverse cluster order is reverse-topological for our construction).
    eligible = _eligible_producers(clustering)
    fused_producer_ids: List[str] = []
    consumer_rel: Dict[str, Tuple[PolyStatement, BasicMap]] = {
        sid: (stmt_by_id[sid], rel) for sid, rel in instance_relations.items()
    }
    n_tiles = 1
    for c in tile_counts:
        n_tiles *= c
    for ci in sorted(eligible, reverse=True):
        cluster_rels: Dict[str, BasicMap] = {}
        fusable = True
        for stmt in reversed(clustering.clusters[ci]):
            rel = producer_tile_relation(stmt, consumer_rel, deps, tile_dims)
            if rel is None:
                fusable = False
                break
            if not _recompute_acceptable(
                stmt, rel, tile_dims, tile_counts, n_tiles
            ):
                fusable = False
                break
            cluster_rels[stmt.stmt_id] = rel
        if not fusable:
            continue
        for stmt in reversed(clustering.clusters[ci]):
            rel = cluster_rels[stmt.stmt_id]
            instance_relations[stmt.stmt_id] = rel
            consumer_rel[stmt.stmt_id] = (stmt, rel)
            fused_producer_ids.append(stmt.stmt_id)
    fused_producer_ids.reverse()  # execution order: earliest producer first

    # -- rewrite the tree ------------------------------------------------------
    tiled = tile_band(band, clamped_sizes, require_permutable=False)
    point_band = band

    extension_maps = {
        sid: instance_relations[sid] for sid in fused_producer_ids
    }
    children: List[FilterNode] = []
    for sid in fused_producer_ids:
        stmt = stmt_by_id[sid]
        rows = [AffineExpr.variable(d) for d in stmt.iter_names]
        children.append(FilterNode([sid], BandNode({sid: rows}, LeafNode())))
    children.append(FilterNode(list(liveout_filter.stmt_ids), point_band))

    inner: ScheduleNode = SequenceNode(children) if len(children) > 1 else point_band
    if extension_maps:
        inner = ExtensionNode(extension_maps, inner)
    tiled.set_child(inner)
    liveout_filter.set_child(tiled)

    # Mark original subtrees of fused producers as skipped.
    for f in filters:
        if f is liveout_filter:
            continue
        if all(sid in fused_producer_ids for sid in f.stmt_ids):
            mark = MarkNode("skipped", f.child)
            f.set_child(mark)

    # -- build group records ------------------------------------------------------
    order: List[PolyStatement] = [stmt_by_id[sid] for sid in fused_producer_ids]
    order += [stmt_by_id[sid] for sid in liveout_filter.stmt_ids]
    main_group = TiledGroup(
        tile_dims=tile_dims,
        tile_sizes=clamped_sizes,
        tile_counts=tile_counts,
        statements=order,
        instance_relations=instance_relations,
        fused_producer_ids=fused_producer_ids,
        liveout_ids=list(liveout_filter.stmt_ids),
    )

    groups: List[TiledGroup] = []
    for f in filters:
        if f is liveout_filter:
            groups.append(main_group)
            continue
        if all(sid in fused_producer_ids for sid in f.stmt_ids):
            continue  # now lives inside the main group
        groups.append(_untiled_group(f, stmt_by_id))
    return FusionResult(tree, groups)


# Producers whose fused recomputation exceeds this factor stay separate.
# The slack above 1.0 absorbs partial-tile overcounting (the estimate uses
# full-tile instance boxes) and genuine halo overlap; catastrophic cases
# (a full reduction recomputed per tile) have factors near the tile count.
RECOMPUTE_THRESHOLD = 4.0


def _recompute_acceptable(
    stmt: PolyStatement,
    rel: BasicMap,
    tile_dims: Sequence[str],
    tile_counts: Sequence[int],
    n_tiles: int,
) -> bool:
    """Guard against fusions whose overlapped recomputation explodes.

    The reverse strategy guarantees correctness for *any* producer tile
    shape, but a producer whose per-tile instance set is (nearly) its whole
    domain -- e.g. a full reduction feeding every tile -- would be
    recomputed once per tile.  AKG's clustering keeps such producers in
    their own tile nest; we bound the recompute factor by
    ``RECOMPUTE_THRESHOLD``.  Padding producers absorbed by img2col are
    exempt (they cost nothing at code-generation time).
    """
    from repro.conv.img2col import is_padding_statement

    if is_padding_statement(stmt):
        return True
    from repro.tiling.reverse import affine_extent_bounds

    box = {d: (0, c - 1) for d, c in zip(tile_dims, tile_counts)}
    bounds = affine_extent_bounds(rel.constraints, stmt.iter_names, box)
    per_tile = 1
    for k, bound in enumerate(bounds):
        per_tile *= max(
            bound if bound is not None else stmt.iter_extents[k], 1
        )
    total = stmt.instance_count()
    return per_tile * n_tiles <= RECOMPUTE_THRESHOLD * total


def _clamp_and_count(
    band: BandNode, stmt_by_id: Dict[str, PolyStatement], sizes: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Tile sizes clamped to the band extents (identity rows assumed) and
    the tile count per dim they give; each row's extent is posed once."""
    any_sid = next(iter(band.schedules))
    stmt = stmt_by_id[any_sid]
    extents = [_row_extent(row, stmt) for row in band.schedules[any_sid]]
    clamped = [min(size, extent) for size, extent in zip(sizes, extents)]
    counts = [-(-extent // size) for size, extent in zip(clamped, extents)]
    return clamped, counts


def _row_extent(row: AffineExpr, stmt: PolyStatement) -> int:
    """Extent of a band row over the statement domain (exact ILP)."""
    from repro.poly.ilp import IlpProblem, IlpStatus

    problem = IlpProblem(stmt.domain().constraints)
    hi = problem.maximize(row, integer=True)
    lo = problem.minimize(row, integer=True)
    if hi.status is not IlpStatus.OPTIMAL or lo.status is not IlpStatus.OPTIMAL:
        raise FusionError(
            "band row unbounded over the statement domain",
            stage=resilience.active_stage(),
        )
    return int(hi.value - lo.value) + 1


def tile_single_group(
    f: FilterNode,
    stmt_by_id: Dict[str, PolyStatement],
    sizes: Optional[Sequence[int]] = None,
) -> TiledGroup:
    """Tile one unfused group's own band (no producer extension).

    Used for groups that cannot join the live-out tile nest (barrier edges:
    transposes, gathers, rank changes).  When ``sizes`` is ``None``, a
    single whole-space tile is produced.
    """
    band = f.child
    while band is not None and not isinstance(band, BandNode):
        band = band.child
    if not isinstance(band, BandNode):
        raise FusionError(
            "group filter has no band to tile", stage=resilience.active_stage()
        )
    stmts = [stmt_by_id[sid] for sid in f.stmt_ids]
    if sizes is None:
        sizes = [1 << 30] * band.n_rows
    sizes = list(sizes)[: band.n_rows]
    sizes += [1 << 30] * (band.n_rows - len(sizes))
    clamped, counts = _clamp_and_count(band, stmt_by_id, sizes)
    tile_dims = [sys.intern(f"p{i}") for i in range(band.n_rows)]
    relations: Dict[str, BasicMap] = {}
    for stmt in stmts:
        rows = band.schedules[stmt.stmt_id]
        relations[stmt.stmt_id] = liveout_instance_relation(
            stmt, rows, clamped, tile_dims
        )
    group = TiledGroup(
        tile_dims=tile_dims,
        tile_sizes=clamped,
        tile_counts=counts,
        statements=stmts,
        instance_relations=relations,
        fused_producer_ids=[],
        liveout_ids=[s.stmt_id for s in stmts],
    )
    group.source_filter = f  # enables independent refitting by the driver
    return group


def _untiled_group(
    f: FilterNode, stmt_by_id: Dict[str, PolyStatement]
) -> TiledGroup:
    """A degenerate group: one tile covering the whole iteration space."""
    return tile_single_group(f, stmt_by_id, sizes=None)


def tile_groups_separately(
    tree: DomainNode, kernel: LoweredKernel, sizes: Sequence[int]
) -> FusionResult:
    """The fusionless path: every group tiled on its own band (the
    ``post_tiling_fusion=False`` ablation, the fusion-failure fallback
    and the stencil-split variant)."""
    stmt_by_id = {s.stmt_id: s for s in kernel.statements}
    groups = []
    for f in group_filters(tree):
        band = f.child
        n = band.n_rows if isinstance(band, BandNode) else 1
        groups.append(tile_single_group(f, stmt_by_id, list(sizes)[:n] or None))
    return FusionResult(tree, groups)
