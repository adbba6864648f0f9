"""Tile-size policy: where sizes start and how they shrink (Sec. 4.2 + 5.3).

Everything that *decides* a tile size lives here; the compiler driver
(:mod:`repro.core.compiler`) and the TVM baseline only orchestrate.

**Start sizes** (:func:`select_start_sizes`), in precedence order:

1. explicit ``tile_sizes``, then a ``tile_policy`` written in the Fig. 4
   specification language;
2. a closed form when a cube statement leads (:func:`closed_form_sizes`);
3. the ``backend.tiling`` ladder: Auto Tiling — footprints probed at a
   few sizes fit the multivariate buffer-utilisation polynomial
   (:func:`fit_evaluator`), then :class:`~repro.tiling.auto.AutoTiler`
   searches greedily for minimal data movement — then a static
   power-of-two heuristic, then unit tiles.

**Shrinking.**  Start sizes are a proposal; the exact storage plan is the
law.  :func:`fit_group` re-tiles one group until its plan fits, stepping
down with a shrink rule: :func:`capacity_shrink` (least extra traffic)
or :func:`halve_conv_spatial` (NCHW spatial-first); the driver measures
both when they disagree.  :func:`halve_largest` is the shape-oblivious
halving behind ``AkgOptions.tile_shrink``.

**Once per front-end.**  What no candidate's sizes change is looked up
in the front-end's :class:`~repro.tiling.invariants.SizeInvariants`:
:func:`plan_group` plans a single-band group once per filter and sizes,
:func:`fit_group` fits one once per filter, start sizes and rule, and
:func:`plan_groups` hands every candidate those fitted groups; only the
live-out group is tiled and planned per candidate.

Not imported by ``repro.tiling``'s ``__init__``: this module needs
:mod:`repro.fusion.posttile`, which itself imports
:mod:`repro.tiling.reverse`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.fusion.intratile import (
    UnitAssignment,
    assign_compute_units,
    is_cube_statement,
)
from repro.fusion.posttile import (
    TiledGroup,
    apply_post_tiling_fusion,
    filter_key,
    tile_single_group,
)
from repro.storage.promote import StoragePlan, plan_storage
from repro.tiling.auto import AutoTiler, LinearFootprintEvaluator
from repro.tiling.invariants import SizeInvariants

#: A shrink rule: ``(group, plan, sizes) -> smaller sizes``.
ShrinkRule = Callable[[TiledGroup, StoragePlan, List[int]], List[int]]


# -- start sizes --------------------------------------------------------------------


def _pad_to_band(sizes: Sequence[int], extents: List[int]) -> List[int]:
    """User sizes cut to the band's rank; dims they leave out stay whole."""
    return list(sizes)[: len(extents)] + extents[len(sizes) :]


def select_start_sizes(frontend, options) -> List[int]:
    """Sizes the exact-fit loop starts from, one per live-out band dim."""
    extents = frontend.extents
    if not extents:
        return []
    if options.tile_sizes is not None:
        return _pad_to_band(options.tile_sizes, extents)
    if options.tile_policy is not None:
        for stmt in frontend.liveout_statements:
            manual = options.tile_policy.sizes_for(stmt.stmt_id)
            if manual:
                return _pad_to_band(manual, extents)
    closed = closed_form_sizes(
        frontend.liveout_statements, len(extents), frontend.hw, extents
    )
    if closed is not None:
        return closed

    # Every rung only *starts* the exact-fit loop, which shrinks to fit
    # from whatever the rung proposes, so any rung yields a legal build.
    def auto_search() -> List[int]:
        # Symbolic band dims tile at size 1: the tile grid along a
        # runtime-bound extent must stay binding-independent, and
        # unit tiles clamp exactly (whole tiles drop, none split).
        tiler = AutoTiler(
            frontend.hw,
            fit_evaluator(frontend, options),
            extents,
            double_buffered=options.double_buffer,
            fixed_sizes={k: 1 for k in sym_band_positions(frontend)},
        )
        return tiler.search()

    return resilience.with_fallback(
        "backend.tiling",
        ("auto-search", auto_search),
        ("static-heuristic", lambda: static_tile_sizes(extents)),
        ("minimal", lambda: [1] * len(extents)),
    )


def closed_form_sizes(
    statements, n_dims: int, hw, extents: Optional[Sequence[int]] = None
) -> Optional[List[int]]:
    """Closed-form sizes for an ``n_dims`` band its first cube statement
    leads (conv when 4-D, contraction up to 3-D); ``None`` otherwise.

    ``extents`` are the band's extents where the caller has them (the
    whole kernel's live-out band); an unfused group's band is its lead
    statement's data space.
    """
    lead = next((s for s in statements if is_cube_statement(s)), None)
    if lead is None or n_dims != lead.data_rank:
        return None
    if extents is None:
        extents = lead.iter_extents[: lead.data_rank]
    if lead.data_rank == 4:
        return conv_tile_sizes(list(extents))
    if lead.data_rank <= 3:
        return contraction_tile_sizes(hw, list(extents))
    return None


class Planned:
    """One tiled group with its unit assignment and exact storage plan.

    A plain class, not a ``NamedTuple``: every named tuple's ``__new__``
    is a ``<string>`` lambda, and profilers that key calls by file, line
    and name (the ``python_calls`` pins) merge them unpredictably.
    """

    __slots__ = ("group", "assignment", "plan")

    def __init__(self, group: TiledGroup, assignment: UnitAssignment, plan: StoragePlan):
        self.group = group
        self.assignment = assignment
        self.plan = plan


def plan_group(
    group: TiledGroup, invariants: SizeInvariants, double_buffer: bool
) -> Planned:
    """Assign units to and plan the storage of one group.

    The assignment is made once per statement tuple; a group tiled on its
    own band is planned once per filter and sizes (``group`` keeps its
    own filter, the plan is shared), the live-out group at every call.
    """
    def plan() -> Planned:
        ids = tuple([s.stmt_id for s in group.statements])
        assignment = invariants.lookup(
            "units", ids, lambda: assign_compute_units(group.statements)
        )
        return Planned(
            group,
            assignment,
            plan_storage(
                group,
                assignment,
                invariants.kernel,
                invariants.hw,
                double_buffer,
                invariants,
            ),
        )

    if group.filter_key is None:
        return plan()
    key = (group.filter_key, tuple(group.tile_sizes), double_buffer)
    shared = invariants.lookup("plan", key, plan)
    return Planned(group, shared.assignment, shared.plan)


def plan_groups(
    groups: Sequence[TiledGroup], invariants: SizeInvariants, double_buffer: bool
) -> List[Planned]:
    """Plan one candidate's groups, re-tiling every group that owns its
    band until it fits.

    Unfused producer groups (barriers, recompute-guarded reductions,
    split contractions) start from the closed-form sizes a standalone
    kernel would get, else from their own sizes, and shrink on their own:
    the main group's sizes say nothing about their bands.  Such a group
    is fitted once per filter and start sizes.
    """
    planned = []
    for group in groups:
        if group.source_filter is None:
            planned.append(plan_group(group, invariants, double_buffer))
            continue
        own = closed_form_sizes(group.statements, len(group.tile_dims), invariants.hw)
        if own is None:
            own = list(group.tile_sizes)
        fitted, _ = fit_group(
            group.source_filter, invariants, own, double_buffer=double_buffer
        )
        planned.append(fitted)
    return planned


def sym_band_positions(frontend) -> List[int]:
    """Band dims of the live-out statement carrying a symbolic dim.

    The tiler's size vector aligns with the leading iter dims of the last
    live-out statement (as ``FrontEnd.extents`` does).  Empty unless the
    kernel passed the parametric legality proof — a concretized kernel
    tiles like any concrete one.
    """
    if not getattr(frontend.kernel, "shape_generic", False):
        return []
    stmt = frontend.liveout_statements[-1]
    sym_extents = getattr(stmt, "sym_extents", None) or {}
    return [
        k
        for k, name in enumerate(stmt.iter_names[: frontend.band_rows])
        if name in sym_extents
    ]


def static_tile_sizes(extents: List[int]) -> List[int]:
    """Search-free fallback sizes: modest power-of-two outer tiles, the
    innermost dimension kept whole for DMA contiguity.  Deliberately
    conservative — the exact-fit loop shrinks further when needed."""
    sizes = []
    for k, e in enumerate(extents):
        if k == len(extents) - 1:
            sizes.append(max(e, 1))
            continue
        cap = max(min(e, 32), 1)
        sizes.append(1 << (cap.bit_length() - 1))
    return sizes


def conv_tile_sizes(extents: List[int]) -> List[int]:
    """Closed-form NCHW convolution tiling.

    One image at a time (pipelines the batch), full output channels (no
    input recompute across channel tiles), and a spatial block sized to a
    fixed working-set budget -- wider blocks for thin-channel (depthwise)
    layers, 32x32 for deep ones.  The exact-fit loop shrinks further when
    L1 demands it.
    """
    n, co, ho, wo = extents
    budget_elems = 64 * 1024
    spatial = max(budget_elems // max(co, 1), 256)
    w_t = wo  # keep the row whole: splitting it multiplies DMA bursts
    h_t = min(ho, max(spatial // w_t, 4))
    if h_t < ho:
        # Round a genuine split down to a power of two for even tiles;
        # a full extent stays whole (no pointless partial tiles).
        h_t = 1 << (h_t.bit_length() - 1)
    return [1, co, min(h_t, ho), w_t]


def contraction_tile_sizes(hw, extents: List[int]) -> List[int]:
    """Movement-optimal (Tm, Tn) for a GEMM-shaped band.

    The largest square output tile the L0C accumulator can hold, with the
    reduction streamed through L1 in chunks (plan_storage's hierarchical
    tiling): square tiles minimise ``K*(M*N/Tn + M*N/Tm)``.  When one
    extent clamps below the square side, the freed accumulator budget
    goes to the other side (tall/flat GEMMs such as fully-connected
    layers at small batch).
    """
    acc_bytes = 4  # the L0C accumulator holds fp32 partials
    l0c_elems = hw.usable_capacity("L0C") // acc_bytes
    t = 16
    while (2 * t) * (2 * t) <= l0c_elems:
        t *= 2
    m_idx, n_idx = len(extents) - 2, len(extents) - 1
    tm = min(t, extents[m_idx])
    tn = min(t, extents[n_idx])
    # Redistribute slack to the unclamped side (in fractal multiples).
    if tm < t:
        tn = min(extents[n_idx], max((l0c_elems // max(tm, 1)) // 16 * 16, tn))
    elif tn < t:
        tm = min(extents[m_idx], max((l0c_elems // max(tn, 1)) // 16 * 16, tm))
    sizes = [1] * len(extents)
    sizes[m_idx] = tm
    sizes[n_idx] = tn
    return sizes


# -- the probe/fit evaluator (Auto Tiling's footprint polynomial) --------------------


def probe_plan(
    frontend, options, sizes
) -> Tuple[Dict[str, List[int]], Dict[str, Tuple[str, int, bool]]]:
    """Footprints at one candidate size vector: per-tensor boxes + roles.

    Only the live-out group depends on ``sizes``; the whole-space groups
    of unfused producers and their plans come from the front-end's
    :meth:`~repro.core.frontend.FrontEnd.invariants`.
    """
    hw = frontend.hw
    invariants = frontend.invariants()
    fusion = apply_post_tiling_fusion(
        frontend.fresh_tree(),
        frontend.kernel,
        frontend.clustering,
        sizes,
        invariants,
    )
    boxes: Dict[str, List[int]] = {}
    meta: Dict[str, Tuple[str, int, bool]] = {}
    for group in fusion.groups:
        plan = plan_group(group, invariants, options.double_buffer).plan
        moved_names = {m.tensor_name for m in plan.moves}
        # Liveness: only the two largest tile-local intermediates count
        # towards utilisation (slots of dead values are reused), mirroring
        # StoragePlan.utilization's peak-live accounting.
        locals_by_size = sorted(
            (
                alloc
                for key, alloc in plan.allocations.items()
                if key == alloc.tensor_name
                and alloc.tensor_name in plan.local_tensors
                and alloc.scope == "UB"
            ),
            key=lambda a: -a.nbytes,
        )
        counted_locals = {a.tensor_name for a in locals_by_size[:2]}
        for key, alloc in plan.allocations.items():
            if key != alloc.tensor_name:
                continue  # skip the derived L0 allocations
            is_local = (
                alloc.tensor_name in plan.local_tensors and alloc.scope == "UB"
            )
            if is_local and alloc.tensor_name not in counted_locals:
                continue
            boxes[key] = list(alloc.box)
            meta[key] = (
                alloc.scope,
                hw.dtype_bytes(alloc.dtype),
                alloc.tensor_name in moved_names,
            )
    return boxes, meta


def fit_evaluator(frontend, options) -> LinearFootprintEvaluator:
    """Fit the per-tensor affine footprint polynomial by probing.

    Footprint extents of affine accesses are affine in each tile size
    (``alpha*T + beta``); one base probe and one bump per dimension
    recover the coefficients exactly.  Every probe reuses the shared
    front-end (one tree clone per probe, no re-scheduling).
    """
    extents = frontend.extents
    base_sizes = [min(4, e) for e in extents]
    base_boxes, meta = probe_plan(frontend, options, base_sizes)
    bump_boxes: List[Dict[str, List[int]]] = []
    for d in range(len(extents)):
        probe = list(base_sizes)
        probe[d] = min(8, extents[d])
        if probe == base_sizes:
            # A dim too short to bump has nothing to teach: no second plan.
            bump_boxes.append(base_boxes)
            continue
        boxes, _ = probe_plan(frontend, options, probe)
        bump_boxes.append(boxes)

    terms = []
    for tname, box0 in base_boxes.items():
        scope, dbytes, moved = meta[tname]
        factors = []
        for k, e0 in enumerate(box0):
            # Find the tile dim this tensor dim responds to.
            alpha, dim_index = 0.0, None
            for d in range(len(extents)):
                delta_size = min(8, extents[d]) - base_sizes[d]
                if delta_size == 0:
                    continue
                e1 = bump_boxes[d].get(tname, box0)[k]
                a = (e1 - e0) / delta_size
                if abs(a) > abs(alpha):
                    alpha, dim_index = a, d
            beta = e0 - alpha * (base_sizes[dim_index] if dim_index is not None else 0)
            factors.append((dim_index, alpha, beta))
        terms.append((scope, dbytes, factors, moved))
    return LinearFootprintEvaluator(terms)


# -- shrink rules ---------------------------------------------------------------------


def move_tile_dependence(group: TiledGroup) -> Dict[str, set]:
    """Which tile dims each tensor's footprint depends on.

    A move whose footprint does not involve a tile dim gets *reloaded
    identically* when that dim is split further -- halving such a dim
    doubles that tensor's total traffic.  No size enters the question, so
    it is read off a link graph of each statement's instance relation
    (:func:`_tile_links`): an affine access depends on the tile dims
    linked to its subscript dims; a non-affine one on none.
    """
    deps: Dict[str, set] = {}
    tile_dims = set(group.tile_dims)
    for stmt in group.statements:
        links = None
        for access in [stmt.write] + list(stmt.reads):
            used = deps.setdefault(access.tensor.name, set())
            if not access.is_affine:
                continue
            if links is None:
                links = _tile_links(group.instance_relations[stmt.stmt_id], tile_dims)
            for index in access.indices:
                for name in index.coeffs:
                    used.update(links.get(name, ()))
    return deps


def _tile_links(relation, tile_dims: set) -> Dict[str, set]:
    """The tile dims each non-tile dim of ``relation`` is linked to.

    Dims that share a constraint fall in one class (union-find), and a
    class is linked to the tile dims of every constraint that mentions one
    of its members.  Composing an access with the relation finds no more:
    every row Fourier-Motzkin derives for a tensor dim combines rows joined
    through the eliminated dims, so it mentions only tile dims of its
    subscripts' classes.  On the relations tiling builds it finds exactly
    these; the answer only steers the shrink rule's traffic estimate.
    """
    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        return root

    rows = []
    for con in relation.constraints:
        names = con.expr.coeffs
        inner = [n for n in names if n not in tile_dims]
        if not inner:
            continue
        root = find(parent.setdefault(inner[0], inner[0]))
        for name in inner[1:]:
            other = find(parent.setdefault(name, name))
            if other != root:
                parent[other] = root
        rows.append((inner[0], [n for n in names if n in tile_dims]))
    linked: Dict[str, set] = {}
    for member, tiles in rows:
        linked.setdefault(find(member), set()).update(tiles)
    return {name: linked[find(name)] for name in parent}


def capacity_shrink(
    group: TiledGroup, plan: StoragePlan, sizes: List[int]
) -> List[int]:
    """Pick the halving that satisfies capacity at least traffic cost.

    For each candidate dim: inbound tensors whose footprints *depend* on
    the dim keep their total traffic (half the bytes, twice the tiles);
    independent tensors (weights vs spatial splits, inputs vs channel
    splits) double theirs.  The innermost dim (DMA contiguity) is only
    split when nothing else can shrink.
    """
    dependence = move_tile_dependence(group)
    in_moves = [m for m in plan.moves if m.direction == "in"]
    candidates = []
    for d in range(len(sizes)):
        if sizes[d] <= 1:
            continue
        dim_name = group.tile_dims[d] if d < len(group.tile_dims) else None
        traffic = 0.0
        for m in in_moves:
            depends = dim_name in dependence.get(m.tensor_name, set())
            traffic += m.nbytes * (1.0 if depends else 2.0)
        if d == len(sizes) - 1:
            traffic *= 1.5  # innermost: splitting multiplies DMA bursts
        if sizes[d] <= 16 and any(
            sizes[e] > 16 for e in range(len(sizes)) if e != d
        ):
            # Dropping below the fractal block wastes Cube MACs and
            # vector lanes; avoid while a larger dim can shrink.
            traffic *= 2.0
        candidates.append((traffic, -sizes[d], d))
    if not candidates:
        return list(sizes)
    candidates.sort()
    out = list(sizes)
    d = candidates[0][2]
    out[d] = max(out[d] // 2, 1)
    return out


def halve_conv_spatial(
    group: TiledGroup, plan: StoragePlan, sizes: List[int]
) -> List[int]:
    """Spatial-first shrink order for NCHW tiles (H, then channels, W
    last); looks at the sizes only."""
    out = list(sizes)
    if out[2] > 2:
        out[2] //= 2
    elif out[1] > 1:
        out[1] = max(out[1] // 2, 1)
    elif out[3] > 1:
        out[3] = max(out[3] // 2, 1)
    elif out[0] > 1:
        out[0] = max(out[0] // 2, 1)
    return out


def halve_largest(sizes: List[int]) -> List[int]:
    """Halve the largest tile dimension, sparing the innermost.

    The innermost dimension carries DMA contiguity: shrinking it multiplies
    burst counts, so it is only touched when every outer dim is already 1.
    """
    out = list(sizes)
    if not out:
        return out
    outer = range(len(out) - 1) if len(out) > 1 else range(1)
    dim = max(outer, key=lambda d: out[d], default=0)
    if out[dim] <= 1:
        dim = len(out) - 1
    if out[dim] > 1:
        out[dim] = max(out[dim] // 2, 1)
    return out


# -- the exact-fit loop ---------------------------------------------------------------


def fit_group(
    group_filter,
    invariants: SizeInvariants,
    sizes: Optional[Sequence[int]],
    shrink: ShrinkRule = capacity_shrink,
    double_buffer: bool = True,
) -> Tuple[Planned, bool]:
    """Tile one group's own band at ``sizes``, shrinking with ``shrink``
    until the exact storage plan fits; returns ``(planned, shrunk)``.

    Fitted once per filter, start sizes and rule: ``group_filter`` gets a
    copy of the fitted group (relations built, for any candidate's replay
    or verifier) with the shared plan.
    """
    hw = invariants.hw

    def fit() -> Tuple[Planned, bool]:
        current = sizes
        group = tile_single_group(group_filter, invariants, current)
        shrunk = False
        for _ in range(40):
            resilience.check_deadline()
            planned = plan_group(group, invariants, double_buffer)
            if planned.plan.fits(hw, double_buffer):
                break
            shrunk = True
            current = shrink(group, planned.plan, current)
            group = tile_single_group(group_filter, invariants, current)
        else:
            planned = plan_group(group, invariants, double_buffer)
        # Replay and the verifier read the relations of whichever candidate
        # they are given (code generation reads only windows): build them
        # once, in the group all candidates share.
        planned.group.instance_relations
        return planned, shrunk

    key = (
        filter_key(group_filter),
        None if sizes is None else tuple(sizes),
        shrink,
        double_buffer,
    )
    fitted, shrunk = invariants.lookup("fitted", key, fit)
    return (
        Planned(fitted.group.refiltered(group_filter), fitted.assignment, fitted.plan),
        shrunk,
    )
