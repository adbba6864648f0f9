"""Stage 1 of the two-stage compilation pipeline (the tile-size-invariant
front-end).

Everything the Fig. 2 pipeline computes up to and including polyhedral
scheduling — lowering, dependence analysis, affine clustering and the
Pluto/Feautrier ILP schedule — depends only on the kernel, never on the
tile sizes.  The auto-tuner (Sec. 5.3) and the Auto Tiling probe/fit loop
(Sec. 4.2) evaluate dozens of tile-size candidates per kernel; paying the
exact ILP scheduling cost once instead of once-per-candidate
is the single largest compile-time lever in this reproduction (AutoTVM
makes the same split between template instantiation and schedule search).

:func:`run_frontend` produces a :class:`FrontEnd`;
:func:`repro.core.compiler.backend_build` consumes one together with
tile-size options and runs tiling → fusion → storage → codegen.  The
classic :func:`repro.core.compiler.build` is the composition of the two
behind one disk-cache probe for the finished program.

A :class:`FrontEnd` is picklable by design: the parallel auto-tuner ships
one copy to each worker process and each worker then compiles candidates
backend-only.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import resilience
from repro.core.context import COUNTERS, LOCK, stage
from repro.core.resilience import StageBudget
from repro.hw.spec import HardwareSpec
from repro.ir.lower import LoweredKernel, PolyStatement, lower
from repro.sched.clustering import Clustering, conservative_clustering
from repro.sched.deps import Dependence, compute_dependences
from repro.sched.scheduler import PolyScheduler, SchedulerOptions
from repro.sched.tree import BandNode, DomainNode, FilterNode, clone_tree
from repro.tiling.invariants import SizeInvariants

__all__ = ["FrontEnd", "run_frontend"]


class FrontEnd:
    """The tile-size-independent compilation product.

    Holds the lowered kernel, its dependences, the affine clustering and
    the master schedule tree, plus the live-out band geometry the tiler
    needs (``band_rows``, ``extents``).  ``fresh_tree()`` hands out
    clones, so one ``FrontEnd`` can be reused across any number of backend
    builds (the master tree itself is never mutated).

    The alternative *split* clustering/schedule — used when post-tiling
    fusion absorbs a stencil producer and the driver wants to measure the
    unfused variant too — is also tile-size-independent; it is computed
    lazily on first use and cached, so the second scheduler run happens
    at most once per kernel rather than once per candidate.  So is the
    tile search's table of what no tile size changes (:meth:`invariants`).
    Neither is pickled: a front-end's bytes are what ``run_frontend`` made.
    """

    def __init__(
        self,
        name: str,
        hw: HardwareSpec,
        scheduler_options: SchedulerOptions,
        kernel: LoweredKernel,
        deps: List[Dependence],
        clustering: Clustering,
        master_tree: DomainNode,
    ):
        self.name = name
        self.hw = hw
        self.scheduler_options = scheduler_options
        self.kernel = kernel
        self.deps = deps
        self.clustering = clustering
        self.master_tree = master_tree
        # Live-out band geometry: the tiler's size vector aligns with the
        # leading iter dims of the last live-out statement.
        liveout = self.liveout_statements
        self.band_rows = _liveout_band_rows(master_tree, liveout)
        self.extents = list(liveout[-1].iter_extents[: self.band_rows])
        self._split: Optional[Tuple[Clustering, DomainNode]] = None
        # Content digest of (IR, name, hw, scheduler options) when the
        # kernel could be fingerprinted; backend products key off it.
        self.cache_key: Optional[str] = None

    @property
    def liveout_statements(self) -> List[PolyStatement]:
        """Statements of the live-out clusters, in cluster order."""
        clustering = self.clustering
        return [
            s for ci in sorted(clustering.live_out) for s in clustering.clusters[ci]
        ]

    # -- schedule-tree hand-out ---------------------------------------------------

    def fresh_tree(self) -> DomainNode:
        """A private clone of the master schedule tree."""
        return clone_tree(self.master_tree)

    def split_variant(self) -> Tuple[Clustering, "DomainNode"]:
        """The stencil-split clustering and its master tree (lazy, cached).

        Plain uniform producer chains stay fused; only stencil boundaries
        cut kernels (see the split-candidate path of ``backend_build``).
        """
        if self._split is None:
            from repro.sched.clustering import merge_uniform_clusters

            split_clustering = merge_uniform_clusters(self.clustering)
            with stage("frontend.split_schedule"):
                split_master = PolyScheduler(self.scheduler_options).schedule_kernel(
                    self.kernel, self.deps, split_clustering
                )
            self._split = (split_clustering, split_master)
        return self._split

    def split_tree(self) -> DomainNode:
        """A private clone of the split-variant master tree."""
        return clone_tree(self.split_variant()[1])

    def invariants(self) -> SizeInvariants:
        """The tile search's size-free answers for this kernel (lazy, one
        per front-end, safe under concurrent first use)."""
        found = self.__dict__.get("_invariants")
        if found is None:
            with LOCK:
                found = self.__dict__.get("_invariants")
                if found is None:
                    found = self._invariants = SizeInvariants(self.kernel, self.hw)
        return found

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_invariants", None)
        state["_split"] = None
        return state

    def __repr__(self) -> str:
        return (
            f"FrontEnd({self.kernel.name}, {len(self.kernel.statements)} stmts, "
            f"{len(self.deps)} deps, extents={self.extents})"
        )


def run_frontend(
    outputs,
    name: str = "kernel",
    hw: Optional[HardwareSpec] = None,
    scheduler_options: Optional[SchedulerOptions] = None,
    budget: Optional[StageBudget] = None,
    cache_key: Optional[Tuple[Optional[str], bool]] = None,
) -> FrontEnd:
    """Run lowering → dependences → clustering → scheduling once.

    ``outputs`` is the tensor-expression output (or sequence of outputs)
    accepted by :func:`repro.core.compiler.build`.

    ``budget`` bounds each stage (wall clock + solver nodes); scheduling
    additionally degrades down a ladder on typed failure — Pluto with
    skewing → identity-only rows (no Pluto ILP) → the textual-order tree
    (no ILP at all) — recording every rung on the active resilience
    report.

    The result is memoized in the persistent disk cache
    (:mod:`repro.core.diskcache`) under a content digest of the IR, the
    hardware spec and the scheduler options: a warm process unpickles the
    finished front-end instead of re-running lowering, dependence
    analysis and ILP scheduling.  Kernels that cannot be fingerprinted —
    or whose schedule came from a fallback rung — compile normally and
    are simply not cached (a later healthy run must not inherit a
    degraded schedule).

    ``cache_key`` is :func:`_frontend_cache_key` of these arguments, which
    ``build`` — here only after its program probe missed — has already
    computed and hands over; other callers leave it out.
    """
    from repro.core import diskcache

    scheduler_options = scheduler_options or SchedulerOptions()
    key, symbolic = cache_key or _frontend_cache_key(
        outputs, name, hw, scheduler_options
    )
    with stage("frontend.cache_probe"):
        cached = diskcache.load(key)
    if key is not None and symbolic:
        hit = isinstance(cached, FrontEnd)
        with LOCK:
            COUNTERS["shapeclass.hits" if hit else "shapeclass.misses"] += 1
    if isinstance(cached, FrontEnd):
        cached.cache_key = key
        return cached

    hw = hw or HardwareSpec()
    with resilience.collect() as report:
        events_before = len(report.events)
        with stage("frontend.lower", budget):
            kernel = lower(outputs, name)
        with stage("frontend.deps", budget):
            deps = compute_dependences(kernel)
        with stage("frontend.shape_generic", budget):
            _prove_shape_generic(kernel)
        with stage("frontend.cluster", budget):
            clustering = conservative_clustering(kernel, deps)
        with stage("frontend.schedule", budget):
            master_tree = _schedule_with_ladder(
                kernel, deps, clustering, scheduler_options
            )
        degraded = report.degraded_since(events_before)

    frontend = FrontEnd(
        name, hw, scheduler_options, kernel, deps, clustering, master_tree
    )
    frontend.cache_key = key
    if not degraded:
        diskcache.store(key, frontend)
    return frontend


def _prove_shape_generic(kernel: LoweredKernel) -> None:
    """Run the parametric legality proof; concretize on any failure.

    Success marks the kernel ``shape_generic`` (replay accepts any
    binding of the symbolic dims).  Failure — a structural violation, a
    provable cross-batch dependence, or a solver budget blow-up — falls
    back to compiling at the declared maximum, recorded as a
    ``concretized`` resilience event.  The event deliberately does *not*
    mark the result degraded: a concretized compile is a correct compile
    of the worst-case shapes, and caching it stays sound.
    """
    from repro.core.errors import ReproError
    from repro.sched.deps import check_parametric_batch_legality

    if not getattr(kernel, "sym_dims", None):
        return
    try:
        reason = check_parametric_batch_legality(kernel)
    except ReproError as exc:
        reason = f"legality proof aborted: {exc}"
    if reason is None:
        kernel.shape_generic = True
    else:
        kernel.shape_generic = False
        resilience.note_event(
            "frontend.shape_generic",
            "concretized",
            fallback="concrete-upper-bound",
            detail=reason,
        )


def _schedule_with_ladder(
    kernel: LoweredKernel,
    deps: List[Dependence],
    clustering: Clustering,
    scheduler_options: SchedulerOptions,
) -> DomainNode:
    """The scheduling rungs: Pluto → identity-only → textual order.

    The middle rung disables skewing (no Pluto ILP rows) but still runs
    the exact legality checks; the last rung is the Fig. 3(b) textual
    order, which needs no solver and is legal by construction.
    """
    no_skew = SchedulerOptions(
        enable_skewing=False,
        max_coefficient=scheduler_options.max_coefficient,
        identity_fast_path=True,
    )
    return resilience.with_fallback(
        "frontend.schedule",
        (
            "pluto",
            lambda: PolyScheduler(scheduler_options).schedule_kernel(
                kernel, deps, clustering
            ),
        ),
        (
            "identity-only",
            lambda: PolyScheduler(no_skew).schedule_kernel(
                kernel, deps, clustering
            ),
        ),
        ("sequence-order", lambda: PolyScheduler(no_skew).initial_tree(kernel)),
    )


def _frontend_cache_key(
    outputs, name: str, hw: Optional[HardwareSpec], scheduler_options: SchedulerOptions
) -> Tuple[Optional[str], bool]:
    """``(digest, symbolic)`` of a front-end run, from one graph walk:
    the digest is ``None`` for an uncacheable kernel (or a disabled
    cache), ``symbolic`` marks a shape class (counted per probe), and
    ``hw=None`` is the default spec."""
    from repro.core import diskcache

    if not diskcache.enabled():
        return None, False
    try:
        ir, symbolic = diskcache.graph_fingerprint(outputs)
        hw_fp = diskcache.hw_fingerprint(hw) if hw else diskcache.default_hw_fingerprint()
        sched_fp = diskcache.scheduler_fingerprint(scheduler_options)
    except diskcache.FingerprintError:
        return None, False
    return diskcache.digest("frontend", ir, name, hw_fp, sched_fp), symbolic


# -- live-out band geometry ------------------------------------------------------


def _liveout_band_rows(tree: DomainNode, liveout: List[PolyStatement]) -> int:
    liveout_ids = {s.stmt_id for s in liveout}
    for node in tree.walk():
        if isinstance(node, FilterNode) and set(node.stmt_ids) & liveout_ids:
            band = node.child
            if isinstance(band, BandNode):
                return band.n_rows
    return 0
