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
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

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
from repro.tiling.invariants import SizeInvariants
from repro.tiling.reverse import (
    liveout_instance_relation,
    producer_tile_relation,
    relation_key,
)
from repro.tiling.tile import tile_band


class TiledGroup:
    """Everything downstream passes need to know about one fused tile nest.

    A live-out statement tiled by identity band rows on distinct dims has
    a *tile window* (:attr:`windows`): its per-tile instance extents, and
    the box its footprints are read off in closed form.  The
    ``tile -> instances`` relations are built only where they are read
    (fused-producer projection, shrink rules, code generation, replay, the
    verifier, and the footprints of a statement without a window): a
    live-out statement gets its relation from ``band_rows`` on first read
    of ``instance_relations``, in a cold group and a restored one alike.
    """

    #: What a pickle or deep copy holds, in this order, then the fused
    #: producers' relations: never a relation, origin or window of a row.
    _STATE = (
        "tile_dims",
        "tile_sizes",
        "tile_counts",
        "statements",
        "band_rows",
        "fused_producer_ids",
        "liveout_ids",
        "source_filter",
    )

    def __init__(
        self,
        tile_dims: List[str],
        tile_sizes: List[int],
        tile_counts: List[int],
        statements: List[PolyStatement],
        fused_producer_ids: List[str],
        liveout_ids: List[str],
        band_rows: Dict[str, Sequence[AffineExpr]],
        instance_relations: Optional[Dict[str, BasicMap]] = None,
        origins: Optional[List[int]] = None,
    ):
        self.tile_dims = tile_dims
        self.tile_sizes = tile_sizes
        self.tile_counts = tile_counts  # number of tiles per tile dim
        self.statements = statements  # execution order inside a tile
        self.band_rows = {sid: tuple(rows) for sid, rows in band_rows.items()}
        if origins is not None:
            self.origins = origins
        if instance_relations is not None:
            self.instance_relations = instance_relations
        self.fused_producer_ids = fused_producer_ids
        self.liveout_ids = liveout_ids
        # Set by tile_single_group: the group's originating filter node,
        # so the driver can re-tile an unfused group with smaller sizes,
        # and the filter's tile-size-free identity.
        self.source_filter = None
        self.filter_key: Optional[Hashable] = None

    @cached_property
    def origins(self) -> List[int]:
        """Per band row, the least value it takes over the live-out
        statements' boxes: where tile 0 starts (:func:`band_row_spans`)."""
        by_id = {s.stmt_id: s for s in self.statements}
        return [lo for lo, _hi in band_row_spans(self.band_rows, by_id)]

    @cached_property
    def instance_relations(self) -> Dict[str, BasicMap]:
        """``tile -> instances`` of every statement: the live-out ones from
        their band rows, then the fused producers' (kept by a pickle)."""
        by_id = {s.stmt_id: s for s in self.statements}
        relations = {
            sid: liveout_instance_relation(
                by_id[sid], rows, self.tile_sizes, self.tile_dims, self.origins
            )
            for sid, rows in self.band_rows.items()
        }
        relations.update(self.__dict__.get("producer_relations", {}))
        return relations

    @cached_property
    def windows(self) -> Dict[str, List[int]]:
        """The tile window of every statement that has one: per iteration
        dim, the tile size of the identity band row over it (at most the
        dim's extent), or the dim's extent when no row tiles it.

        Inside one tile every dim ranges independently over an interval
        at most that long, and the first tile reaches each length (sizes
        are clamped), so a linear expression's spread over the window is
        its exact per-tile range.  A statement with a non-identity row,
        two rows over one dim, a row whose tiles start below 0 (another
        statement of the band has it shifted), or an empty box has no
        window; nor has a fused producer (no band rows of its own).
        """
        by_id = {s.stmt_id: s for s in self.statements}
        windows: Dict[str, List[int]] = {}
        for sid, rows in self.band_rows.items():
            stmt = by_id[sid]
            window = list(stmt.iter_extents)
            tiled = [False] * len(window)
            for row, size in zip(rows, self.tile_sizes):
                dim = row.as_variable()
                if dim not in stmt.iter_names:
                    break
                k = stmt.iter_names.index(dim)
                if tiled[k]:
                    break
                tiled[k] = True
                window[k] = min(size, window[k])
            else:
                if min(window, default=1) >= 1 and not any(self.origins):
                    windows[sid] = window
        return windows

    @cached_property
    def relation_keys(self) -> Dict[str, Hashable]:
        """:func:`~repro.tiling.reverse.relation_key` of every statement
        without a window, the relation half of its footprint keys; made
        from the relations on first read."""
        return {
            sid: relation_key(rel)
            for sid, rel in self.instance_relations.items()
            if sid not in self.windows
        }

    def __getstate__(self):
        state = {name: getattr(self, name) for name in self._STATE}
        state["producer_relations"] = {  # no producer: no relation built
            sid: self.instance_relations[sid] for sid in self.fused_producer_ids
        }
        return state

    def refiltered(self, f: FilterNode) -> "TiledGroup":
        """This group as tiled from ``f``, an equal filter of another clone
        of the schedule tree: everything else is shared."""
        group = object.__new__(TiledGroup)
        group.__dict__.update(self.__dict__)
        group.source_filter = f
        return group

    @property
    def total_tiles(self) -> int:
        """Number of tiles the nest iterates over."""
        total = 1
        for c in self.tile_counts:
            total *= c
        return total

    def instance_extents(self, stmt_id: str) -> List[int]:
        """Max per-dimension extent of one statement's instances per tile
        -- the constant-size iteration box the code generator uses for
        intrinsic repeat counts.

        A statement's tile window when it has one; otherwise bounded by
        Fourier-Motzkin on its instance relation over the tile grid
        (:func:`~repro.tiling.reverse.affine_extent_bounds`).
        """
        window = self.windows.get(stmt_id)
        if window is not None:
            return list(window)
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
    invariants: Optional[SizeInvariants] = None,
) -> FusionResult:
    """Tile the live-out band and fuse eligible producers into the tiles.

    ``tile_sizes`` has one entry per live-out outer-band row.  The returned
    tree has the Fig. 3(e) shape; the returned groups list the resulting
    tile nests in execution order (unfused producers first).
    ``invariants`` answers what the sizes do not change (a front-end's
    :meth:`~repro.core.frontend.FrontEnd.invariants`; a private table
    when omitted).
    """
    faults.fire("fusion.posttile")
    invariants = invariants or SizeInvariants(kernel)
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

    stmt_by_id = invariants.stmt_by_id
    tile_dims = [sys.intern(f"o{i}") for i in range(band.n_rows)]

    # Live-out statements are tiled by their band rows; their relations
    # are built here only when a producer's projection reads them.
    clamped_sizes, tile_counts, origins = _clamp_and_count(band, invariants, sizes)
    band_rows = {sid: band.schedules[sid] for sid in liveout_filter.stmt_ids}
    eligible = _eligible_producers(clustering)
    instance_relations: Optional[Dict[str, BasicMap]] = None
    fused_producer_ids: List[str] = []
    if eligible:
        instance_relations = {
            sid: liveout_instance_relation(
                stmt_by_id[sid], rows, clamped_sizes, tile_dims, origins
            )
            for sid, rows in band_rows.items()
        }
        # Fuse eligible intermediate clusters, nearest producers first
        # (reverse cluster order is reverse-topological for our construction).
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
        fused_producer_ids=fused_producer_ids,
        liveout_ids=list(liveout_filter.stmt_ids),
        band_rows=band_rows,
        instance_relations=instance_relations,
        origins=origins,
    )

    groups: List[TiledGroup] = []
    for f in filters:
        if f is liveout_filter:
            groups.append(main_group)
            continue
        if all(sid in fused_producer_ids for sid in f.stmt_ids):
            continue  # now lives inside the main group
        groups.append(tile_single_group(f, invariants))  # one whole-space tile
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


def band_row_spans(
    band_rows: Dict[str, Sequence[AffineExpr]],
    stmt_by_id: Dict[str, PolyStatement],
) -> List[Tuple[int, int]]:
    """``(min, max)`` of each band row over the union of its statements'
    iteration boxes, in closed form
    (:meth:`~repro.ir.lower.PolyStatement.box_bounds`: no ILP).  A band's
    rows are aligned across its statements (the scheduler's per-statement
    shifts order them against each other), so one grid, counted from each
    row's common minimum, tiles every statement of the band.  A statement
    with an empty box has no instance to place; a row over a dim outside
    a box is unbounded, and so is a band whose boxes are all empty, as far
    as tiling is concerned: both raise :class:`FusionError`."""
    spans: List[Tuple[int, int]] = []
    for sid, rows in band_rows.items():
        stmt = stmt_by_id[sid]
        if min(stmt.iter_extents, default=1) < 1:
            continue  # no instance to place
        for k, row in enumerate(rows):
            bounds = stmt.box_bounds(row)
            if bounds is None:
                raise _unbounded_row()
            if k == len(spans):
                spans.append(bounds)
            else:
                spans[k] = (min(spans[k][0], bounds[0]), max(spans[k][1], bounds[1]))
    if not spans and any(band_rows.values()):
        raise _unbounded_row()
    return spans


def _unbounded_row() -> FusionError:
    return FusionError(
        "band row unbounded over the statement domain",
        stage=resilience.active_stage(),
    )


def _clamp_and_count(
    band: BandNode, invariants: SizeInvariants, sizes: Sequence[int]
) -> Tuple[List[int], List[int], List[int]]:
    """Tile sizes clamped to the band extents (identity rows assumed), the
    tile count per dim they give, and each row's origin: the extents and
    origins of :func:`band_row_spans`, solved once per front-end (a band's
    rows are one function of its statements in every tree of one)."""
    any_sid = next(iter(band.schedules))
    spans = invariants.lookup(
        "row_spans",
        (tuple(band.schedules), tuple(band.schedules[any_sid])),
        lambda: band_row_spans(band.schedules, invariants.stmt_by_id),
    )
    clamped: List[int] = []
    counts: List[int] = []
    origins: List[int] = []
    for size, (lo, hi) in zip(sizes, spans):
        extent = int(hi - lo) + 1
        clamped.append(min(size, extent))
        counts.append(-(-extent // clamped[-1]))
        origins.append(lo)
    return clamped, counts, origins


def _band_of(f: FilterNode) -> BandNode:
    band = f.child
    while band is not None and not isinstance(band, BandNode):
        band = band.child
    if not isinstance(band, BandNode):
        raise FusionError(
            "group filter has no band to tile", stage=resilience.active_stage()
        )
    return band


def filter_key(f: FilterNode) -> Hashable:
    """What tiling a group filter reads of it: its statements and their
    band rows (equal on every clone of one schedule tree)."""
    band = _band_of(f)
    return (
        tuple(f.stmt_ids),
        tuple([tuple(band.schedules[sid]) for sid in f.stmt_ids]),
    )


def tile_single_group(
    f: FilterNode,
    invariants: SizeInvariants,
    sizes: Optional[Sequence[int]] = None,
) -> TiledGroup:
    """Tile one unfused group's own band (no producer extension).

    Used for groups that cannot join the live-out tile nest (barrier edges:
    transposes, gathers, rank changes).  When ``sizes`` is ``None``, a
    single whole-space tile is produced.  A group is tiled once per filter
    and clamped sizes; ``f`` gets a copy.
    """
    band = _band_of(f)
    if sizes is None:
        sizes = [1 << 30] * band.n_rows
    sizes = list(sizes)[: band.n_rows]
    sizes += [1 << 30] * (band.n_rows - len(sizes))
    clamped, counts, origins = _clamp_and_count(band, invariants, sizes)
    key = filter_key(f)

    def tile() -> TiledGroup:
        tile_dims = [sys.intern(f"p{i}") for i in range(band.n_rows)]
        band_rows = {sid: band.schedules[sid] for sid in f.stmt_ids}
        group = TiledGroup(
            tile_dims=tile_dims,
            tile_sizes=clamped,
            tile_counts=counts,
            statements=[invariants.stmt_by_id[sid] for sid in f.stmt_ids],
            fused_producer_ids=[],
            liveout_ids=list(f.stmt_ids),
            band_rows=band_rows,
            origins=origins,
        )
        group.filter_key = key
        return group

    template = invariants.lookup("single_group", (key, tuple(clamped)), tile)
    return template.refiltered(f)  # enables independent refitting by the driver


def tile_groups_separately(
    tree: DomainNode, invariants: SizeInvariants, sizes: Sequence[int]
) -> FusionResult:
    """The fusionless path: every group tiled on its own band (the
    ``post_tiling_fusion=False`` ablation, the fusion-failure fallback
    and the stencil-split variant)."""
    groups = []
    for f in group_filters(tree):
        band = f.child
        n = band.n_rows if isinstance(band, BandNode) else 1
        groups.append(tile_single_group(f, invariants, list(sizes)[:n] or None))
    return FusionResult(tree, groups)
