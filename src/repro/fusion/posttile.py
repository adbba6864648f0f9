"""Post-tiling fusion via extension nodes (Sec. 4.3, Fig. 3e).

Classical polyhedral compilers fuse *before* tiling; AKG tiles the live-out
iteration space first and then *extends* each tile with the producer
instances it needs, which enables overlapped tiles and removes the
tiling/fusion conflict.  Concretely:

1. the live-out group's outer band is tiled (``tile_band``),
2. each intermediate cluster (nearest producers first) whose statements
   the reverse strategy gives a tile window, and whose recomputation the
   window shows to be cheap, joins the tile,
3. the producer's original subtree is wrapped in ``Mark{"skipped"}`` so the
   code generator does not emit it twice, and
4. an extension node under the tile band introduces the per-tile producer
   instances ahead of the point loops.

Producers whose connection to the fused region is a *barrier* (transpose,
gather, rank change) are left alone: they stay separate tile nests inside
the same kernel.

The pass returns both the rewritten schedule tree and a :class:`TiledGroup`
record (tile dims/sizes, per-statement tile windows and instance relations,
execution order) that the storage manager and the code generator consume
directly.
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
    affine_extent_bounds,
    liveout_instance_relation,
    producer_instance_relation,
)
from repro.tiling.tile import tile_band


class TiledGroup:
    """Everything downstream passes need to know about one fused tile nest.

    A live-out statement tiled by identity band rows on distinct dims, and
    every fused producer, has a *tile window* (:attr:`windows`): its
    per-tile instance extents, and the box its footprints are read off in
    closed form; code generation reads nothing else.  A fused producer's
    window comes with its *span* (``spans``, a :data:`Span` per producer,
    set with the windows), where its interval lies in every tile.  The
    ``tile -> instances`` relations are built only where they are read
    (replay, the verifier, the shrink rule's link graph, and the
    footprints of a statement without a window), on first read of
    ``instance_relations``: a live-out statement's from its
    ``band_rows``, a fused producer's from its span, in a cold group and a
    restored one alike.
    """

    #: What a pickle or deep copy holds, in this order: never a relation,
    #: origin, window or span.
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
        origins: Optional[List[int]] = None,
    ):
        self.tile_dims = tile_dims
        self.tile_sizes = tile_sizes
        self.tile_counts = tile_counts  # number of tiles per tile dim
        self.statements = statements  # execution order inside a tile
        self.band_rows = {sid: tuple(rows) for sid, rows in band_rows.items()}
        if origins is not None:
            self.origins = origins
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
        their band rows, then the fused producers' from their spans."""
        by_id = {s.stmt_id: s for s in self.statements}
        relations = {
            sid: liveout_instance_relation(
                by_id[sid], rows, self.tile_sizes, self.tile_dims, self.origins
            )
            for sid, rows in self.band_rows.items()
        }
        if self.fused_producer_ids:
            self.windows  # derives the spans with the windows
            for sid in self.fused_producer_ids:
                relations[sid] = producer_instance_relation(
                    by_id[sid], self.spans[sid].values(), self.tile_dims
                )
        return relations

    @cached_property
    def windows(self) -> Dict[str, List[int]]:
        """The tile window of every statement that has one: per iteration
        dim, the length of the interval it ranges over in any one tile.

        A live-out statement's is the tile size of the identity band row
        over a dim (at most the dim's extent), or the extent of an untiled
        dim.  Inside one tile every dim ranges independently over an
        interval at most that long, and the first tile reaches each length
        (sizes are clamped), so a linear expression's spread over the window
        is its exact per-tile range.  A statement with a non-identity row,
        two rows over one dim, a row whose tiles start below 0 (another
        statement of the band has it shifted), or an empty box has no
        window.  A fused producer's is derived from its readers'
        (:meth:`add_window`), nearest producers first, as fusion derived it,
        and the producers' spans are kept as ``spans``.
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
        if self.fused_producer_ids:
            spans: Dict[str, Span] = {}
            fused = [by_id[sid] for sid in self.band_rows]
            for sid in reversed(self.fused_producer_ids):
                self.add_window(by_id[sid], fused, windows, spans)
                fused.append(by_id[sid])
            self.spans = spans
        return windows

    def add_window(
        self,
        producer: PolyStatement,
        readers: Sequence[PolyStatement],
        windows: Dict[str, List[int]],
        spans: Dict[str, "Span"],
    ) -> None:
        """Give a fused producer the window its ``readers`` (the statements
        fused before it) imply: the reverse strategy of [70] as interval
        arithmetic, as TVM's bound inference derives a producer's region.

        A dim the producer's identity write puts at subscript ``p`` spans
        the hull of the readers' subscripts ``p`` over their :data:`Span`,
        clipped to the producer's extent and to the subscripts' range over
        the readers' whole boxes (the clip, the same in every tile, when it
        is shorter); an unwritten dim keeps its extent.  That is
        Fourier-Motzkin's minimum over the same bound pairs.  No window for
        a write that is not one distinct dim per subscript, no reader, a
        windowless reader or a non-affine read, reads that move with the
        tiles at different rates, or an empty box.
        """
        written = [e.as_variable() for e in producer.write.indices]
        reads = [
            (c, a) for c in readers for a in c.reads if a.tensor.name == producer.tensor.name
        ]
        distinct = set(written) & set(producer.iter_names)
        empty = min(producer.iter_extents, default=1) < 1
        if not reads or len(distinct) < len(written) or empty:
            return
        zero = (0,) * len(self.tile_dims)
        for c, access in reads:
            if c.stmt_id not in windows or not access.is_affine:
                return
            if c.stmt_id not in spans:  # a live-out reader: its tile starts at size * o
                rates = dict.fromkeys(c.iter_names, zero)
                for r, row in enumerate(self.band_rows[c.stmt_id]):
                    rates[row.as_variable()] = zero[:r] + (self.tile_sizes[r],) + zero[r + 1:]
                spans[c.stmt_id] = {
                    n: (rates[n], 0, length)
                    for n, length in zip(c.iter_names, windows[c.stmt_id])
                }
        span: Span = {}
        for name, extent in zip(producer.iter_names, producer.iter_extents):
            if name not in written:
                span[name] = (zero, 0, extent)
                continue
            ranges = []
            for c, access in reads:
                subscript = access.indices[written.index(name)]
                rate, low, high = zero, subscript.const, subscript.const
                for dim, a in subscript.coeffs.items():
                    dim_rate, start, length = spans[c.stmt_id][dim]
                    rate = tuple([x + a * y for x, y in zip(rate, dim_rate)])
                    low += a * start + min(0, a * (length - 1))
                    high += a * start + max(0, a * (length - 1))
                ranges.append((rate, low, high, *c.box_bounds(subscript)))
            rates, lows, highs, firsts, lasts = zip(*ranges)
            first, last = max(min(firsts), 0), min(max(lasts), extent - 1)
            if len(set(rates)) > 1 or last < first:
                return
            low, high = min(lows), max(highs)
            if high - low <= last - first:
                span[name] = (rates[0], low, high - low + 1)
            else:
                span[name] = (zero, first, last - first + 1)
        spans[producer.stmt_id] = span
        windows[producer.stmt_id] = [length for _, _, length in span.values()]

    def __getstate__(self):
        return {name: getattr(self, name) for name in self._STATE}

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

        A statement's tile window when it has one; otherwise (a live-out
        statement with a shifted or skewed band row) bounded by
        Fourier-Motzkin on its instance relation over the tile grid
        (:func:`fm_extents`).
        """
        window = self.windows.get(stmt_id)
        if window is not None:
            return list(window)
        stmt = next(s for s in self.statements if s.stmt_id == stmt_id)
        return fm_extents(
            stmt, self.instance_relations[stmt_id], self.tile_dims, self.tile_counts
        )

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

    # Live-out statements are tiled by their band rows.
    clamped_sizes, tile_counts, origins = _clamp_and_count(band, invariants, sizes)
    band_rows = {sid: band.schedules[sid] for sid in liveout_filter.stmt_ids}
    liveouts = [stmt_by_id[sid] for sid in liveout_filter.stmt_ids]
    main_group = TiledGroup(
        tile_dims=tile_dims,
        tile_sizes=clamped_sizes,
        tile_counts=tile_counts,
        statements=liveouts,
        fused_producer_ids=[],
        liveout_ids=list(liveout_filter.stmt_ids),
        band_rows=band_rows,
        origins=origins,
    )
    eligible = _eligible_producers(clustering)
    fused_producer_ids: List[str] = []
    if eligible:
        windows: Dict[str, List[int]] = main_group.windows
        spans: Dict[str, Span] = {}
        # Fuse eligible intermediate clusters, nearest producers first
        # (reverse cluster order is reverse-topological for our construction):
        # a statement joins with the window its fused readers imply, and
        # without one its cluster stays in its own nest.
        fused = list(liveouts)
        for ci in sorted(eligible, reverse=True):
            cluster = list(reversed(clustering.clusters[ci]))
            trial_windows, trial_spans = dict(windows), dict(spans)
            for k, stmt in enumerate(cluster):
                main_group.add_window(stmt, fused + cluster[:k], trial_windows, trial_spans)
                extents = trial_windows.get(stmt.stmt_id)
                if extents is None or not _recompute_acceptable(
                    stmt, extents, main_group.total_tiles
                ):
                    break
            else:
                fused_producer_ids += [stmt.stmt_id for stmt in cluster]
                windows.update(trial_windows)
                spans = trial_spans
                fused += cluster
        fused_producer_ids.reverse()  # execution order: earliest producer first
        main_group.spans = spans

    # -- rewrite the tree ------------------------------------------------------
    tiled = tile_band(band, clamped_sizes, require_permutable=False)
    point_band = band

    children: List[FilterNode] = []
    for sid in fused_producer_ids:
        stmt = stmt_by_id[sid]
        rows = [AffineExpr.variable(d) for d in stmt.iter_names]
        children.append(FilterNode([sid], BandNode({sid: rows}, LeafNode())))
    children.append(FilterNode(list(liveout_filter.stmt_ids), point_band))

    inner: ScheduleNode = SequenceNode(children) if len(children) > 1 else point_band
    if fused_producer_ids:
        inner = ExtensionNode(list(fused_producer_ids), inner)
    tiled.set_child(inner)
    liveout_filter.set_child(tiled)

    # Mark original subtrees of fused producers as skipped.
    for f in filters:
        if f is liveout_filter:
            continue
        if all(sid in fused_producer_ids for sid in f.stmt_ids):
            mark = MarkNode("skipped", f.child)
            f.set_child(mark)

    # -- complete the group record ------------------------------------------------
    main_group.statements = [stmt_by_id[sid] for sid in fused_producer_ids] + liveouts
    main_group.fused_producer_ids = fused_producer_ids

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
    stmt: PolyStatement, extents: Sequence[int], n_tiles: int
) -> bool:
    """Guard against fusions whose overlapped recomputation explodes.

    The reverse strategy guarantees correctness for *any* producer tile
    shape, but a producer whose per-tile instance set is (nearly) its whole
    domain -- e.g. a full reduction feeding every tile -- would be
    recomputed once per tile.  AKG's clustering keeps such producers in
    their own tile nest; we bound the recompute factor, over the per-tile
    instance box ``extents``, by ``RECOMPUTE_THRESHOLD``.  Padding
    producers absorbed by img2col are exempt (they cost nothing at
    code-generation time).
    """
    from repro.conv.img2col import is_padding_statement

    if is_padding_statement(stmt):
        return True
    per_tile = 1
    for extent in extents:
        per_tile *= extent
    total = stmt.instance_count()
    return per_tile * n_tiles <= RECOMPUTE_THRESHOLD * total


def fm_extents(
    stmt: PolyStatement,
    relation: BasicMap,
    tile_dims: Sequence[str],
    tile_counts: Sequence[int],
) -> List[int]:
    """Per-tile extent of each of ``stmt``'s dims, bounded by
    Fourier-Motzkin on its ``tile -> instances`` relation over the tile
    grid (:func:`~repro.tiling.reverse.affine_extent_bounds`) and clipped
    to the dim's extent: the answer for a statement without a window (a
    live-out statement whose band rows are not identity rows on distinct
    dims, or are counted from another origin)."""
    box = {d: (0, count - 1) for d, count in zip(tile_dims, tile_counts)}
    bounds = affine_extent_bounds(relation.constraints, stmt.iter_names, box)
    return [
        n if bound is None else max(min(bound, n), 1)
        for bound, n in zip(bounds, stmt.iter_extents)
    ]


#: Where a windowed statement's per-tile intervals lie: per iteration
#: dim ``(rate, low, length)``, the interval of tile ``o`` starting at
#: ``low + rate . o``
#: (:func:`~repro.tiling.reverse.producer_instance_relation` reads it).
Span = Dict[str, Tuple[Tuple[int, ...], int, int]]


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
