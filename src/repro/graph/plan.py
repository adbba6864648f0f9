"""Executable whole-network plans and static memory planning.

A :class:`NetworkPlan` is the artefact the graph-level compile driver
(:mod:`repro.graph.pipeline`) produces: the fused subgraphs' compiled
programs, deduplicated by fingerprint digest, stitched into a topologically
ordered schedule over the network's inter-subgraph tensors.  Three parts:

- **schedule** — one :class:`PlanStep` per subgraph *instance*, in the
  fuser's topological order, each referencing its compiled program by
  fingerprint digest and naming the network tensors it reads and writes;
- **arena** — :func:`plan_arena` runs a liveness pass over the
  inter-subgraph tensor DAG and packs the intermediate tensors into
  reusable arena slots (greedy best-fit; a slot is recycled as soon as
  its tensor's last consumer retires).  Network outputs live in
  dedicated buffers — they must survive to the end of the invocation.
  The plan reports planned vs naive peak bytes;
- **batched replay** — :meth:`NetworkPlan.replay` runs the schedule over
  a batch of input dicts on the vectorized replay engine, reusing the
  shared per-program :class:`~repro.codegen.program_exec.ProgramReplay`
  states, the arena slots and the per-program workspaces across
  operators *and* invocations.  :meth:`NetworkPlan.oracle` is the
  reference: each subgraph replayed independently through the scalar
  engine with naive per-tensor allocation.  The two are bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import NetworkPlanError
from repro.core.resilience import ResilienceReport

__all__ = [
    "TensorInfo",
    "PlanStep",
    "ArenaPlan",
    "plan_arena",
    "NetworkPlan",
]


class TensorInfo:
    """One network-level tensor (a subgraph boundary value)."""

    __slots__ = ("key", "shape", "dtype", "nbytes")

    def __init__(self, key: str, shape: Tuple[int, ...], dtype: str):
        from repro.runtime.reference import numpy_dtype

        self.key = key
        self.shape = tuple(shape)
        self.dtype = dtype
        n = numpy_dtype(dtype).itemsize
        for d in self.shape:
            n *= int(d)
        self.nbytes = n

    def __repr__(self) -> str:
        return f"TensorInfo({self.key}, {self.shape}, {self.dtype})"


class PlanStep:
    """One subgraph instance in the schedule.

    ``input_keys`` / ``output_keys`` name network tensors and align
    positionally with the compiled program's canonical placeholder names
    (``canonical_inputs``) and canonical output names
    (``canonical_outputs``).
    """

    __slots__ = (
        "index",
        "name",
        "digest",
        "input_keys",
        "output_keys",
        "canonical_inputs",
        "canonical_outputs",
    )

    def __init__(
        self,
        index: int,
        name: str,
        digest: str,
        input_keys: Sequence[str],
        output_keys: Sequence[str],
        canonical_inputs: Sequence[str],
        canonical_outputs: Sequence[str],
    ):
        self.index = index
        self.name = name
        self.digest = digest
        self.input_keys = list(input_keys)
        self.output_keys = list(output_keys)
        self.canonical_inputs = list(canonical_inputs)
        self.canonical_outputs = list(canonical_outputs)

    def __repr__(self) -> str:
        return f"PlanStep({self.index}, {self.name}, sg_{self.digest[:8]})"


class ArenaPlan:
    """Static buffer-reuse assignment over the inter-subgraph tensors.

    ``slot_of`` maps each arena-managed tensor key to a slot index;
    tensors sharing a slot have disjoint live intervals (``intervals``,
    inclusive step ranges).  ``dedicated`` holds the keys excluded from
    recycling (network outputs) with their byte sizes.
    """

    def __init__(self):
        self.slot_bytes: List[int] = []
        self.slot_of: Dict[str, int] = {}
        self.dedicated: Dict[str, int] = {}
        self.intervals: Dict[str, Tuple[int, int]] = {}
        self.naive_peak_bytes = 0

    @property
    def arena_bytes(self) -> int:
        return sum(self.slot_bytes)

    @property
    def dedicated_bytes(self) -> int:
        return sum(self.dedicated.values())

    @property
    def planned_peak_bytes(self) -> int:
        return self.arena_bytes + self.dedicated_bytes

    @property
    def savings_ratio(self) -> float:
        """Fraction of the naive peak the plan avoids allocating."""
        naive = max(self.naive_peak_bytes, 1)
        return 1.0 - self.planned_peak_bytes / naive

    def report(self) -> Dict[str, object]:
        return {
            "arena_slots": len(self.slot_bytes),
            "arena_bytes": self.arena_bytes,
            "dedicated_bytes": self.dedicated_bytes,
            "planned_peak_bytes": self.planned_peak_bytes,
            "naive_peak_bytes": self.naive_peak_bytes,
            "savings_ratio": self.savings_ratio,
        }

    def __repr__(self) -> str:
        return (
            f"ArenaPlan({len(self.slot_of)} tensors -> "
            f"{len(self.slot_bytes)} slots, "
            f"{self.planned_peak_bytes}/{self.naive_peak_bytes} bytes)"
        )


def plan_arena(
    tensors: Mapping[str, int],
    steps: Sequence[Tuple[Sequence[str], Sequence[str]]],
    keep: Optional[Set[str]] = None,
) -> ArenaPlan:
    """Liveness-driven slot assignment for the plan's tensors.

    ``tensors`` maps each produced tensor key to its byte size;
    ``steps`` is the schedule as ``(input_keys, output_keys)`` pairs in
    execution order (input keys absent from ``tensors`` are external and
    ignored); ``keep`` keys get dedicated buffers (network outputs).

    A tensor is live from the step that produces it through the last
    step that reads it.  Slots are granted best-fit from the free list
    when a step's outputs are allocated — *before* the step's dying
    inputs are released, so a step never writes into a buffer it is
    still reading — and recycled as soon as the owner's last consumer
    retires.  Pure function of its arguments (unit-testable without
    compiling anything).
    """
    keep = keep or set()
    plan = ArenaPlan()
    plan.naive_peak_bytes = sum(int(b) for b in tensors.values())

    produced_at: Dict[str, int] = {}
    last_use: Dict[str, int] = {}
    for i, (in_keys, out_keys) in enumerate(steps):
        for k in out_keys:
            if k in produced_at:
                raise NetworkPlanError(
                    f"tensor {k!r} produced by steps {produced_at[k]} and {i}"
                )
            if k not in tensors:
                raise NetworkPlanError(f"step {i} output {k!r} has no size")
            produced_at[k] = i
            last_use[k] = i  # never-read outputs die with their producer
        for k in in_keys:
            if k in tensors:
                if k not in produced_at:
                    raise NetworkPlanError(
                        f"step {i} reads {k!r} before any step produces it"
                    )
                last_use[k] = i

    free: List[int] = []  # slot indices currently unowned
    for i, (in_keys, out_keys) in enumerate(steps):
        for k in out_keys:
            plan.intervals[k] = (i, last_use[k])
            if k in keep:
                plan.dedicated[k] = int(tensors[k])
                continue
            nbytes = int(tensors[k])
            best = None
            for si in free:
                if plan.slot_bytes[si] >= nbytes and (
                    best is None
                    or plan.slot_bytes[si] < plan.slot_bytes[best]
                ):
                    best = si
            if best is None:
                best = len(plan.slot_bytes)
                plan.slot_bytes.append(nbytes)
            else:
                free.remove(best)
            plan.slot_of[k] = best
        # Retire tensors whose last consumer just ran (the step's own
        # never-read outputs included).
        for k in set(in_keys) | set(out_keys):
            if k in plan.slot_of and last_use.get(k) == i:
                si = plan.slot_of[k]
                if si not in free:
                    free.append(si)
    return plan


class NetworkPlan:
    """A compiled, executable whole-network inference plan."""

    def __init__(
        self,
        name: str,
        steps: Sequence[PlanStep],
        programs: Dict[str, "object"],
        tensors: Dict[str, TensorInfo],
        inputs: Sequence[TensorInfo],
        outputs: Sequence[Tuple[str, str]],
        resilience: Optional[ResilienceReport] = None,
    ):
        self.name = name
        self.steps = list(steps)
        self.programs = programs  # digest -> CompileResult
        self.tensors = tensors  # key -> TensorInfo (produced tensors)
        self.inputs = list(inputs)  # external placeholders
        self.outputs = list(outputs)  # (network output name, tensor key)
        self.resilience = resilience or ResilienceReport()
        self.arena = plan_arena(
            {k: t.nbytes for k, t in tensors.items()},
            [(s.input_keys, s.output_keys) for s in self.steps],
            keep={key for _name, key in self.outputs},
        )
        self._slots: Optional[List[np.ndarray]] = None
        self._views: Optional[Dict[str, np.ndarray]] = None
        self._workspaces: Dict[str, Dict[str, np.ndarray]] = {}
        self._cycles: Dict[str, int] = {}

    # -- introspection ------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when any subgraph compiled through a fallback rung."""
        return self.resilience.degraded

    def unique_subgraphs(self) -> int:
        return len(self.programs)

    def multiplicities(self) -> Dict[str, int]:
        """Instances per unique subgraph digest."""
        counts: Dict[str, int] = {}
        for step in self.steps:
            counts[step.digest] = counts.get(step.digest, 0) + 1
        return counts

    def cycles_by_digest(self) -> Dict[str, int]:
        """Simulated cycles per unique compiled subgraph (memoized)."""
        for digest, result in self.programs.items():
            if digest not in self._cycles:
                self._cycles[digest] = int(result.cycles())
        return dict(self._cycles)

    def total_cycles(self) -> int:
        """Fig. 13-style network total: per-subgraph cycles x multiplicity."""
        cycles = self.cycles_by_digest()
        return sum(
            cycles[digest] * count
            for digest, count in self.multiplicities().items()
        )

    def __repr__(self) -> str:
        return (
            f"NetworkPlan({self.name}, {len(self.steps)} steps, "
            f"{len(self.programs)} unique subgraphs)"
        )

    # -- buffers ------------------------------------------------------------

    def _ensure_buffers(self) -> Dict[str, np.ndarray]:
        """Arena slot arrays + per-tensor views (built once, reused)."""
        from repro.runtime.reference import numpy_dtype

        if self._views is not None:
            return self._views
        self._slots = [
            np.zeros(nbytes, dtype=np.uint8) for nbytes in self.arena.slot_bytes
        ]
        views: Dict[str, np.ndarray] = {}
        for key, info in self.tensors.items():
            if key in self.arena.dedicated:
                views[key] = np.zeros(
                    info.shape, dtype=numpy_dtype(info.dtype)
                )
                continue
            slot = self._slots[self.arena.slot_of[key]]
            views[key] = (
                slot[: info.nbytes]
                .view(numpy_dtype(info.dtype))
                .reshape(info.shape)
            )
        self._views = views
        return views

    # -- execution ----------------------------------------------------------

    def _gather_feed(
        self,
        step: PlanStep,
        inputs: Mapping[str, np.ndarray],
        values: Mapping[str, np.ndarray],
    ) -> Dict[str, np.ndarray]:
        feed: Dict[str, np.ndarray] = {}
        for cname, key in zip(step.canonical_inputs, step.input_keys):
            if key in values:
                feed[cname] = values[key]
            elif key in inputs:
                feed[cname] = inputs[key]
            else:
                raise NetworkPlanError(
                    f"network {self.name!r}: step {step.name!r} needs "
                    f"input {key!r} which was not provided",
                    stage="graph.replay",
                    kernel=step.name,
                )
        return feed

    def replay(
        self,
        batch_inputs: Sequence[Mapping[str, np.ndarray]],
        engine: str = "auto",
    ) -> List[Dict[str, np.ndarray]]:
        """Run the plan over a batch of input dicts (one per invocation).

        Every invocation reuses the shared per-program replay state, the
        arena slots and the per-program workspaces; the per-invocation
        network outputs are copied out of their dedicated buffers, so
        the returned arrays stay valid across the batch.
        """
        views = self._ensure_buffers()
        results: List[Dict[str, np.ndarray]] = []
        for inputs in batch_inputs:
            for step in self.steps:
                result = self.programs[step.digest]
                rep = result.replayer(engine)
                workspace = self._workspaces.get(step.digest)
                if workspace is None:
                    workspace = self._workspaces[step.digest] = (
                        rep.workspace_arrays()
                    )
                feed = self._gather_feed(step, inputs, views)
                out = {
                    cname: views[key]
                    for cname, key in zip(
                        step.canonical_outputs, step.output_keys
                    )
                }
                rep.run(feed, out=out, workspace=workspace)
            results.append(
                {
                    name: np.array(views[key], copy=True)
                    for name, key in self.outputs
                }
            )
        return results

    def oracle(
        self, batch_inputs: Sequence[Mapping[str, np.ndarray]]
    ) -> List[Dict[str, np.ndarray]]:
        """Reference semantics: each subgraph instance replayed
        independently through the scalar engine, every tensor in its own
        freshly allocated buffer (kernel-at-a-time execution).  Plan
        replay must match this bit for bit."""
        from repro.codegen.program_exec import execute_program

        results: List[Dict[str, np.ndarray]] = []
        for inputs in batch_inputs:
            values: Dict[str, np.ndarray] = {}
            for step in self.steps:
                program = self.programs[step.digest].program
                feed = self._gather_feed(step, inputs, values)
                got = execute_program(program, feed, engine="scalar")
                for cname, key in zip(
                    step.canonical_outputs, step.output_keys
                ):
                    values[key] = got[cname]
            results.append(
                {name: values[key] for name, key in self.outputs}
            )
        return results
