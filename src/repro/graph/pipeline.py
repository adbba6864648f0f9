"""Graph-level compile driver: network -> executable :class:`NetworkPlan`.

The layer between :mod:`repro.graph.networks` (which builds a network's
te DAG) and the tensor compiler (which compiles one subgraph).
:func:`partition` is the network's one partition: it fuses the whole
DAG, re-roots every group once and deduplicates the instances by
fingerprint digest.  ``compile_network`` compiles each *unique*
subgraph of that partition exactly once with ``build`` (and therefore
through the persistent disk cache, whose key starts from the same
fingerprint), one after another in this process, and stitches the
compiled programs into a :class:`~repro.graph.plan.NetworkPlan` with a
static buffer-reuse arena.  Fig. 13 sums the same partition, so a
network it times is a plan that runs.

Degradation follows the single-kernel rule: each subgraph build carries
its own :class:`~repro.core.resilience.ResilienceReport` (a degraded
subgraph is never disk-cached), and the plan rolls every subgraph's
events into one plan-level report — one fallback anywhere marks the
whole plan degraded.
"""

from __future__ import annotations

import copy
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

from repro.core.context import COUNTERS, LOCK, stage
from repro.core.errors import NetworkPlanError
from repro.core.resilience import ResilienceReport
from repro.graph.fusion import MAX_GROUP_OPS, SubgraphSpec, extract_subgraph, fuse_graph
from repro.graph.networks import NetworkModel
from repro.graph.plan import NetworkPlan, PlanStep, TensorInfo
from repro.ir.tensor import Tensor

__all__ = ["compile_network", "CompiledNetwork", "Partition", "partition"]


class Partition:
    """One network's fused subgraphs, deduplicated by fingerprint digest.

    ``specs``/``digests`` list every instance in topological order;
    ``unique`` maps each digest to its first instance, in first-seen
    order.
    """

    __slots__ = ("outputs", "specs", "digests", "unique")

    def __init__(self, outputs: List[Tensor], specs: List[SubgraphSpec]):
        self.outputs = outputs
        self.specs = specs
        self.digests = [spec.digest() for spec in specs]
        self.unique: Dict[str, SubgraphSpec] = {}
        for spec, digest in zip(specs, self.digests):
            self.unique.setdefault(digest, spec)

    def multiplicities(self) -> Dict[str, int]:
        """Instances per unique digest, in first-seen order."""
        return dict(Counter(self.digests))

    def total_cycles(self, cycles_of: Callable[[SubgraphSpec], int]) -> int:
        """Sum of ``cycles_of`` over every instance, one call per digest."""
        return sum(
            count * cycles_of(self.unique[digest])
            for digest, count in self.multiplicities().items()
        )


def partition(model: NetworkModel) -> Partition:
    """Fuse ``model``'s DAG into groups of at most ``MAX_GROUP_OPS`` ops and
    re-root each group once (instance ``i`` is named ``<network>_g<i>``)."""
    outputs = model.builder()
    # Read as this module's global: bench/akgbench/trace.py wraps it here.
    groups = fuse_graph(outputs, MAX_GROUP_OPS)
    return Partition(
        outputs,
        [extract_subgraph(group, f"{model.name}_g{i}") for i, group in enumerate(groups)],
    )


class CompiledNetwork:
    """compile_network's result: the plan plus compile-time metadata."""

    __slots__ = ("plan", "compile_seconds", "unique_compiles", "dedup_reuses")

    def __init__(self, plan, compile_seconds, unique_compiles, dedup_reuses):
        self.plan = plan
        self.compile_seconds = compile_seconds
        self.unique_compiles = unique_compiles
        self.dedup_reuses = dedup_reuses

    def __repr__(self) -> str:
        return (
            f"CompiledNetwork({self.plan.name}, "
            f"{self.unique_compiles} compiles, "
            f"{self.dedup_reuses} reused, {self.compile_seconds:.2f}s)"
        )


def compile_network(model: NetworkModel, hw=None, options=None) -> CompiledNetwork:
    """Compile a whole network into an executable :class:`NetworkPlan`.

    Each unique subgraph of :func:`partition` is built once with
    ``build`` (``hw`` and ``options`` passed through, plus the replay
    trace the plan runs on).

    Must not run inside an enclosing ``resilience.collect()`` scope:
    each subgraph build needs its *own* report so the per-kernel
    don't-cache-degraded rule stays per subgraph; the plan report is the
    roll-up of all of them.
    """
    from repro.core.compiler import AkgOptions, build

    t0 = time.perf_counter()
    with stage("graph.fuse"):
        part = partition(model)
    unique = part.unique
    dedup_reuses = len(part.specs) - len(unique)
    if dedup_reuses:
        with LOCK:
            COUNTERS["graph.dedup_reuse"] += dedup_reuses

    opts = copy.copy(options) if options is not None else AkgOptions()
    opts.emit_trace = True
    plan_report = ResilienceReport()
    programs: Dict[str, object] = {}
    with stage("graph.compile_subgraphs"):
        for digest, spec in unique.items():
            # Called directly (not under an outer collect): build's own
            # report decides disk-cache eligibility for *this* subgraph.
            programs[digest] = build(
                spec.canonical_outputs, name=f"sg_{digest[:12]}", hw=hw, options=opts
            )
            for event in programs[digest].resilience.events:
                plan_report.events.append(dict(event))

    plan = _wire_plan(model.name, part, programs, plan_report)
    return CompiledNetwork(
        plan,
        compile_seconds=time.perf_counter() - t0,
        unique_compiles=len(unique),
        dedup_reuses=dedup_reuses,
    )


def _wire_plan(
    name: str,
    part: Partition,
    programs: Dict[str, object],
    report: ResilienceReport,
) -> NetworkPlan:
    """Stitch per-instance specs into the schedule + tensor registry."""
    key_of: Dict[int, str] = {}
    used: Dict[str, int] = {}

    def assign(t: Tensor) -> str:
        existing = key_of.get(id(t))
        if existing is not None:
            return existing
        if t.name in used:
            raise NetworkPlanError(
                f"network {name!r}: two tensors named {t.name!r} cross "
                "subgraph boundaries; tensor names must be unique",
                stage="graph.plan",
                kernel=name,
            )
        used[t.name] = id(t)
        key_of[id(t)] = t.name
        return t.name

    tensors: Dict[str, TensorInfo] = {}
    inputs: List[TensorInfo] = []
    steps: List[PlanStep] = []
    for i, (spec, digest) in enumerate(zip(part.specs, part.digests)):
        input_keys: List[str] = []
        for dep in spec.input_tensors:
            if dep.is_placeholder:
                known = id(dep) in key_of
                key = assign(dep)
                if not known:
                    inputs.append(TensorInfo(key, dep.shape, dep.dtype))
            else:
                key = key_of.get(id(dep))
                if key is None:
                    raise NetworkPlanError(
                        f"network {name!r}: subgraph {spec.name!r} reads "
                        f"{dep.name!r} before any subgraph produces it",
                        stage="graph.plan",
                        kernel=spec.name,
                    )
            input_keys.append(key)
        output_keys: List[str] = []
        for t in spec.source_outputs:
            key = assign(t)
            tensors[key] = TensorInfo(key, t.shape, t.dtype)
            output_keys.append(key)
        steps.append(
            PlanStep(
                index=i,
                name=spec.name,
                digest=digest,
                input_keys=input_keys,
                output_keys=output_keys,
                canonical_inputs=spec.canonical_inputs,
                canonical_outputs=spec.canonical_output_names,
            )
        )

    outputs: List[Tuple[str, str]] = []
    for t in part.outputs:
        key = key_of.get(id(t))
        if key is None:
            raise NetworkPlanError(
                f"network {name!r}: output {t.name!r} was fused away "
                "(consumed inside a subgraph); mark it as a boundary",
                stage="graph.plan",
                kernel=name,
            )
        outputs.append((t.name, key))

    return NetworkPlan(
        name,
        steps,
        programs,
        tensors,
        inputs,
        outputs,
        resilience=report,
    )
