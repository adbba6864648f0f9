"""The end-to-end AKG compilation driver (Fig. 2): orchestration only.

``build`` = the tile-size-invariant front-end
(:func:`repro.core.frontend.run_frontend`) + ``backend_build``, memoized
in the disk cache under a key ``build`` derives, and probes, before
either runs.  ``backend_build`` runs the paper's passes in order —
tile-size selection, the exact-fit retile ladder (:data:`VARIANTS`, each
row fitted by :func:`fit`, the faster measured candidate wins),
intra-tile rewrites, code generation, the always-on race check of the
emitted program — and decides nothing itself: where sizes start and how
they shrink is :mod:`repro.tiling.policy`, and what no size changes is
computed once per front-end (:meth:`FrontEnd.invariants`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.program import ProgramBuilder
from repro.codegen.program_exec import execute_program
from repro.core import resilience
from repro.core.context import COUNTERS, LOCK, stage
from repro.core.errors import ReproError, StageTimeoutError, TilingError
from repro.core.frontend import FrontEnd, _frontend_cache_key, run_frontend
from repro.core.resilience import ResilienceReport, StageBudget
from repro.conv.fractal import graft_fractal_subtrees
from repro.fusion.intratile import UnitAssignment, mark_local_buffers
from repro.fusion.posttile import (
    FusionResult,
    TiledGroup,
    apply_post_tiling_fusion,
    tile_groups_separately,
)
from repro.hw.isa import Program
from repro.hw.simulator import SimReport, Simulator
from repro.hw.spec import HardwareSpec
from repro.ir.lower import LoweredKernel
from repro.ir.tensor import Tensor
from repro.sched.clustering import Clustering
from repro.sched.deps import Dependence, compute_dependences
from repro.sched.tree import DomainNode
from repro.storage.promote import StoragePlan
from repro.tiling import policy
from repro.tiling.spec import TilingPolicy, parse_tiling_policy
from repro.verify.syncs import check_program_sync


class AkgOptions:
    """End-to-end compilation options (and the ablation switches)."""

    def __init__(
        self,
        tile_policy: Optional[TilingPolicy | str] = None,
        tile_sizes: Optional[Sequence[int]] = None,
        sync_policy: str = "dp",
        double_buffer: bool = True,
        post_tiling_fusion: bool = True,
        emit_trace: bool = False,
        verify: bool = False,
        tile_shrink: int = 0,
        budget: Optional[StageBudget] = None,
    ):
        if isinstance(tile_policy, str):
            tile_policy = parse_tiling_policy(tile_policy)
        self.tile_policy = tile_policy
        self.tile_sizes = list(tile_sizes) if tile_sizes else None
        self.sync_policy = sync_policy
        self.double_buffer = double_buffer
        self.post_tiling_fusion = post_tiling_fusion
        self.emit_trace = emit_trace
        # Run the independent static verifier (:mod:`repro.verify`) over
        # the finished result; a rejection raises VerificationError and
        # the result is never cached.  Excluded from cache fingerprints:
        # verification never changes what a compile produces.
        self.verify = verify
        # Extra halvings applied after tile selection; used to model
        # unoptimised hand code that picks shape-oblivious small tiles.
        self.tile_shrink = tile_shrink
        # Per-stage resource limits (wall clock, solver nodes, FM system
        # size).  Excluded from cache fingerprints: budgets bound how long
        # compilation may take, never what a first-choice result contains.
        self.budget = budget or StageBudget()


class CompiledKernel:
    """A lowered kernel compiled to a program for one machine: what AKG's
    :class:`CompileResult` and every baseline's result share.  ``kernel``
    is ``None`` for the per-operator CCE baselines, whose program is one
    kernel per operator."""

    def __init__(self, program: Program, kernel: Optional[LoweredKernel], hw: HardwareSpec):
        self.program = program
        self.kernel = kernel
        self.hw = hw

    def simulate(self) -> SimReport:
        """Run the cycle simulator on the compiled program."""
        return Simulator(self.hw).run(self.program)

    def cycles(self) -> int:
        """Convenience: simulated execution cycles."""
        return self.simulate().total_cycles

    def execute(
        self, inputs: Dict[str, np.ndarray], engine: str = "auto"
    ) -> Dict[str, np.ndarray]:
        """Functional replay (requires ``emit_trace=True`` at build time).

        ``engine`` selects the replay engine ("auto"/"vectorized"/
        "scalar"); all produce bit-identical results.
        """
        return execute_program(self.program, inputs, engine=engine)


class CompileResult(CompiledKernel):
    """Compiled program plus every intermediate artefact.

    Sets every field itself, the base's three included, in the order
    entries pickle them.
    """

    def __init__(
        self,
        program: Program,
        kernel: LoweredKernel,
        tree: DomainNode,
        deps: List[Dependence],
        clustering: Clustering,
        groups: List[TiledGroup],
        plans: List[StoragePlan],
        assignments: List[UnitAssignment],
        tile_sizes: List[int],
        hw: HardwareSpec,
    ):
        self.program = program
        self.kernel = kernel
        self.tree = tree
        # The front-end's own list: a cold build computes nothing twice.
        self.deps = deps
        self.clustering = clustering
        self.groups = groups
        self.plans = plans
        self.assignments = assignments
        self.tile_sizes = tile_sizes
        self.hw = hw
        # Degradation events recorded while compiling this result; an
        # empty report means every stage took its first-choice path.
        self.resilience: ResilienceReport = ResilienceReport()

    @cached_property
    def deps(self) -> List[Dependence]:
        """The kernel's dependences, recomputed on first access after a
        disk-cache hit.

        Entries do not store them (``__getstate__`` drops them): after
        ``build`` nothing in the compiler reads them -- the verifier
        recomputes its own on purpose -- and they were over half of every
        pickled result.  A cold build's result holds the front-end's list
        instead.  Two threads reading an unset value on one shared result
        may both compute it; the lists are equal, so that race is harmless.
        """
        return compute_dependences(self.kernel)

    def replayer(self, engine: str = "auto"):
        """Shared :class:`~repro.codegen.program_exec.ProgramReplay`.

        Memoized per engine on this result, so callers that invoke the
        same compiled subgraph many times (the network plan, once per
        instance per batch element) pay the replay setup once.  Requires
        ``emit_trace=True`` at build time.
        """
        from repro.codegen.program_exec import ProgramReplay

        cache = getattr(self, "_replayers", None)
        if cache is None:
            cache = self._replayers = {}
        if engine not in cache:
            cache[engine] = ProgramReplay(self.program, engine)
        return cache[engine]

    def __getstate__(self):
        # Replayers hold derived runtime state (and per-invocation dedup
        # masks), and ``deps`` is recomputed on demand: the disk cache
        # stores only the compile artefacts its readers use.
        state = dict(self.__dict__)
        state.pop("_replayers", None)
        state.pop("deps", None)
        return state

    def cce_code(self) -> str:
        """Emit CCE-like C code for the compiled kernel."""
        from repro.codegen.cce import emit_cce

        return emit_cce(self)

    def __repr__(self) -> str:
        return (
            f"CompileResult({self.kernel.name}, tiles={self.tile_sizes}, "
            f"{len(self.groups)} groups)"
        )


def build(
    outputs: Sequence[Tensor] | Tensor,
    name: str = "kernel",
    hw: Optional[HardwareSpec] = None,
    options: Optional[AkgOptions] = None,
) -> CompileResult:
    """Compile tensor-expression outputs into a simulatable NPU program.

    ``build`` is the composition of the two pipeline stages: the
    tile-size-invariant front-end (:func:`repro.core.frontend.run_frontend`)
    and the size-dependent back-end (:func:`backend_build`).  Callers that
    compile one kernel at many tile sizes — the auto-tuner, the Auto Tiling
    probe loop — should run the front-end once and call ``backend_build``
    per candidate instead of calling ``build`` repeatedly.

    Finished programs are memoized in the persistent disk cache under the
    front-end's content key extended with the build options.  ``build``
    computes that key itself and probes the program entry *first*: a warm
    process recompiling an identical kernel reads and unpickles one entry,
    the whole :class:`CompileResult` (byte-identical program dump to a
    cold build); the front-end runs, key in hand, only on a program miss.
    """
    from repro.core import diskcache

    options = options or AkgOptions()
    with resilience.collect() as report:
        cache_key = _frontend_cache_key(outputs, name, hw)
        frontend_digest, symbolic = cache_key
        key = _program_cache_key(frontend_digest, options)
        with stage("backend.cache_probe"):
            cached = diskcache.load(key)
        if key is not None and symbolic:
            hit = isinstance(cached, CompileResult)
            with LOCK:
                COUNTERS["shapeclass.hits" if hit else "shapeclass.misses"] += 1
        if isinstance(cached, CompileResult):
            cached.resilience = report
            if options.verify and not getattr(cached, "verified_clean", False):
                # Entry predates verification (or was stored unverified):
                # verify now and refresh it so the next hit is free.
                _verify_and_mark(cached)
                diskcache.store(key, cached)
            return cached
        frontend = run_frontend(
            outputs,
            name,
            hw=hw,
            budget=options.budget,
            cache_key=cache_key,
        )
        result = backend_build(frontend, options)
        result.resilience = report
        if options.verify:
            # Before the store: a rejected result must never be cached.
            _verify_and_mark(result)
        # A degraded result is *not* stored: a later healthy run must
        # recompile first-choice, not inherit this run's fallbacks.
        if not report.degraded:
            diskcache.store(key, result)
        return result


def _verify_and_mark(result: CompileResult) -> None:
    """Run the static verifier; record a clean bill on the result."""
    from repro.verify import verify_result

    verify_result(result)
    result.verified_clean = True


def _program_cache_key(frontend_key: Optional[str], options: AkgOptions) -> Optional[str]:
    """Digest for one (kernel, options) compiled program; None → skip.
    ``frontend_key`` is :func:`_frontend_cache_key`'s digest, just computed."""
    from repro.core import diskcache

    if frontend_key is None:
        return None
    try:
        return diskcache.digest(
            "program", frontend_key, diskcache.options_fingerprint(options)
        )
    except diskcache.FingerprintError:
        return None


class Fit(NamedTuple):
    """One fitted candidate: tiled groups whose exact storage plans fit."""

    fusion: FusionResult
    assignments: List[UnitAssignment]
    plans: List[StoragePlan]
    sizes: List[int]
    shrunk: bool  # the start sizes did not fit as proposed


class Variant(NamedTuple):
    """One row of the retile ladder: how :func:`fit` shrinks, what it
    tiles, and when the row is worth fitting (judged on the first row's
    fit)."""

    shrink: policy.ShrinkRule
    split: bool  # tile the stencil-split clustering, no post-tiling fusion
    applies: Callable[[Fit, AkgOptions], bool]


#: The retile ladder.  The first row always runs; when its start sizes
#: had to shrink, or it fused a stencil producer, the later rows are
#: fitted too and the faster *measured* candidate wins (Auto Tiling
#: refined by measurement, the paper's Sec. 4.2 + 5.3 combination).
VARIANTS: Tuple[Variant, ...] = (
    Variant(policy.capacity_shrink, False, lambda first, options: True),
    # Conv-shaped kernels: also try the spatial-first shrink order.
    Variant(
        policy.halve_conv_spatial,
        False,
        lambda first, options: first.shrunk and len(first.sizes) == 4,
    ),
    # The greedy fusion absorbed a stencil producer; also measure the
    # split alternative (overlap recompute + shared-buffer pressure can
    # lose to lean separate nests on some shapes -- the tuner decides).
    # The split still fuses plain uniform chains; only the stencil
    # boundaries cut kernels.
    Variant(
        policy.capacity_shrink,
        True,
        lambda first, options: options.post_tiling_fusion
        and any(g.fused_producer_ids for g in first.fusion.groups),
    ),
)


def backend_build(
    frontend: FrontEnd, options: Optional[AkgOptions] = None
) -> CompileResult:
    """Stage 2: tiling → fusion → storage → codegen at concrete tile sizes.

    Reuses every tile-size-independent artefact from ``frontend`` (the
    schedule tree is cloned per attempt, so the front-end stays pristine
    and can serve any number of backend builds).  The emitted program
    passes the sync check or raises
    :class:`~repro.core.errors.VerificationError` at stage ``verify.sync``.
    """
    options = options or AkgOptions()
    hw = frontend.hw
    kernel = frontend.kernel
    budget = getattr(options, "budget", None)

    with stage("backend.tile_select", budget):
        sizes = policy.select_start_sizes(frontend, options)
    for _ in range(options.tile_shrink):
        sizes = policy.halve_largest(sizes)

    with stage("backend.tile_fit", budget):
        first = fit(frontend, options, VARIANTS[0], sizes)
        if first is None:  # pragma: no cover - converges at size 1
            raise TilingError(
                "could not fit tiles into on-chip buffers",
                stage="backend.tile_fit",
                kernel=kernel.name,
            )
        candidates = [first]
        for variant in VARIANTS[1:]:
            if variant.applies(first, options):
                alt = fit(frontend, options, variant, sizes)
                if alt is not None:
                    candidates.append(alt)
        best = first
        if len(candidates) > 1:
            best = min(
                candidates, key=lambda c: _candidate_cycles(kernel, c, hw, options)
            )

    merged_assignment = _merge_assignments(best.assignments)
    mark_local_buffers(best.fusion.tree, merged_assignment)
    graft_fractal_subtrees(
        best.fusion.tree, best.fusion.groups, merged_assignment, hw.cube_block
    )

    with stage("backend.codegen", budget):
        program = _emit(kernel, best, hw, options, options.emit_trace)
    # The race check of Sec. 3.8 is always on: a program whose flags and
    # barriers leave a cross-pipe access pair unordered is never returned,
    # so never cached, memoized or served.
    with stage("verify.sync"):
        check_program_sync(program.instructions)
    return CompileResult(
        program,
        kernel,
        best.fusion.tree,
        frontend.deps,
        frontend.clustering,
        best.fusion.groups,
        best.plans,
        best.assignments,
        list(best.sizes),
        hw,
    )


def fit(
    frontend: FrontEnd, options: AkgOptions, variant: Variant, start_sizes
) -> Optional[Fit]:
    """Tile, fuse and plan storage from ``start_sizes``, shrinking the
    main group with the variant's rule until every exact plan fits.

    The linear footprint fit behind the start sizes is an approximation;
    the exact plan is the law.  ``None`` when 64 shrinks do not get there.
    """
    kernel, hw = frontend.kernel, frontend.hw
    invariants = frontend.invariants()
    # The split clustering and its schedule are tile-size-independent, so
    # the front-end caches them across backend builds.
    tree_fn = frontend.split_tree if variant.split else frontend.fresh_tree
    fuse = options.post_tiling_fusion and not variant.split
    sizes = list(start_sizes)
    shrunk = False
    for _ in range(64):
        resilience.check_deadline()
        tree = tree_fn()
        if fuse:
            try:
                fusion = apply_post_tiling_fusion(
                    tree, kernel, frontend.clustering, sizes, invariants
                )
            except ReproError as exc:
                if isinstance(exc, StageTimeoutError):
                    raise  # the whole stage is out of time
                # Fusion rung of the ladder: tile the groups
                # separately instead.  The tree may be partially
                # rewritten, so restart from a fresh clone.
                resilience.note_event(
                    "backend.fusion",
                    "fallback",
                    fallback="fusionless",
                    error=type(exc).__name__,
                    detail=str(exc),
                    dedupe=True,
                )
                fusion = tile_groups_separately(tree_fn(), invariants, sizes)
        else:
            fusion = tile_groups_separately(tree, invariants, sizes)

        planned = policy.plan_groups(fusion.groups, invariants, options.double_buffer)
        fusion.groups = [p.group for p in planned]
        plans = [p.plan for p in planned]
        if all(p.fits(hw, options.double_buffer) for p in plans):
            assignments = [p.assignment for p in planned]
            return Fit(fusion, assignments, plans, sizes, shrunk)
        shrunk = True
        main_idx = next(
            (i for i, g in enumerate(fusion.groups) if g.source_filter is None),
            len(fusion.groups) - 1,
        )
        sizes = variant.shrink(fusion.groups[main_idx], plans[main_idx], sizes)
    return None


def _emit(kernel, candidate: Fit, hw, options: AkgOptions, emit_trace: bool) -> Program:
    """Instruction emission for one fitted candidate."""
    builder = ProgramBuilder(
        hw, options.sync_policy, options.double_buffer, emit_trace
    )
    return builder.build(
        kernel, candidate.fusion.groups, candidate.plans, candidate.assignments
    )


def _candidate_cycles(kernel, candidate: Fit, hw, options: AkgOptions) -> int:
    """Simulated cycles of one fitted candidate (no trace: only timing)."""
    program = _emit(kernel, candidate, hw, options, emit_trace=False)
    return Simulator(hw).run(program).total_cycles


def _merge_assignments(assignments: Sequence[UnitAssignment]) -> UnitAssignment:
    units: Dict[str, str] = {}
    buffers: Dict[str, str] = {}
    for a in assignments:
        units.update(a.units)
        buffers.update(a.buffers)
    return UnitAssignment(units, buffers)
