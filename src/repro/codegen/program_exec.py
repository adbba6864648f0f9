"""Functional replay of compiled programs (the end-to-end oracle check).

A program compiled with ``emit_trace=True`` carries its tile structure:
the groups, their tile counts and the exact ``tile -> instances`` relations.
``execute_program`` replays the statement instances in the compiled order
-- tile by tile, statement by statement within each tile -- against numpy
buffers, so the result reflects every scheduling decision (tiling bounds,
fusion order, overlapped recomputation).

Two semantic details mirror the paper:

- instances are *filtered by exact relation membership* inside their
  bounding box, so non-rectangular instance sets execute exactly;
- fused producers that appear in several overlapping tiles execute each
  instance only once, reflecting the reverse strategy's "absence of
  redundant computation" guarantee [70].

Replay runs on two engines with bit-identical results:

- ``engine="scalar"``: per-point interpretation, membership via
  ``wrapped.contains`` -- the oracle semantics, kept verbatim;
- ``engine="vectorized"`` (and ``"auto"``, the default): per tile, the
  statement's instance box is evaluated as whole numpy arrays
  (:mod:`repro.runtime.vectorized`); membership filtering decides each
  of the wrapped relation's constraints from the tile's box and tests
  only the undecided ones over the box grid, and the fused-producer dedup
  sets become per-producer boolean "executed" masks -- same
  no-redundant-recompute semantics, array-rate speed.  Statements the
  vectorizer cannot classify (and tiles whose guarded reads escape their
  ``Select``) fall back to the scalar path.

For both engines the per-statement instance box is *parametric*: affine
bounds in the tile coordinates are derived once per statement
(:class:`_ParametricBox`), then evaluated per tile -- the old code
re-ran constraint insertion plus an ILP bounding box for every tile.

The hierarchy of physical buffers is deliberately abstracted: promotion is
semantics-preserving by construction, so replay against the global arrays
validates exactly the properties that can go wrong (order and coverage).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import faults
from repro.core.context import COUNTERS, LOCK, credit
from repro.core.errors import ExecutionFallbackError
from repro.fusion.posttile import TiledGroup
from repro.hw.isa import Program
from repro.ir.lower import LoweredKernel
from repro.runtime import vectorized
from repro.runtime.reference import (
    ENGINES,
    bind_inputs,
    bound_shape,
    infer_bindings,
    run_instance,
)


class TraceMissingError(RuntimeError):
    """The program was compiled without ``emit_trace=True``."""


def execute_program(
    program: Program,
    inputs: Mapping[str, np.ndarray],
    engine: str = "auto",
) -> Dict[str, np.ndarray]:
    """Replay a compiled program; returns the kernel outputs by name.

    One-shot convenience over :class:`ProgramReplay`: callers that replay
    the same program repeatedly (the network plan's batched inference)
    should construct one ``ProgramReplay`` and call :meth:`ProgramReplay.run`
    per invocation, amortising the per-statement and per-tile setup.
    """
    return ProgramReplay(program, engine).run(inputs)


class _ParametricBox:
    """Per-dim affine bounds of a statement's in-tile instances.

    Derived once from the wrapped instance relation: for each iteration
    dim, :meth:`~repro.poly.sets.BasicSet.symbolic_bounds` yields lower /
    upper bound expressions over the tile dims.  ``at`` substitutes a
    concrete tile and returns the inclusive integer box (or ``None`` when
    empty).  The rational bounds can be slightly looser than the integer
    hull the old per-tile ILP computed; exact membership filtering
    downstream discards the extras, so only enumeration size changes.
    """

    def __init__(self, wrapped, iter_names, tile_dims, extents):
        self.dims = []
        outer = list(tile_dims)
        for name, extent in zip(iter_names, extents):
            lowers, uppers = wrapped.symbolic_bounds(name, outer)
            self.dims.append((lowers, uppers, extent))

    def at(self, tile_env: Mapping[str, int]) -> Optional[List[Tuple[int, int]]]:
        box: List[Tuple[int, int]] = []
        for lowers, uppers, extent in self.dims:
            lo, hi = 0, extent - 1
            for e in lowers:
                lo = max(lo, math.ceil(e.evaluate(tile_env)))
            for e in uppers:
                hi = min(hi, math.floor(e.evaluate(tile_env)))
            if lo > hi:
                return None
            box.append((lo, hi))
        return box


class _Membership:
    """Vectorized integer membership test for one wrapped relation.

    Each constraint becomes ``const + sum(c_t * tile_t) + sum(c_k *
    iter_k) {==,>=} 0`` with integer coefficients (``Constraint``
    normalises to coprime integers; ``exact`` is False — forcing the
    per-point ``contains`` oracle — if anything non-integral or
    out-of-space shows up).
    """

    def __init__(self, wrapped, tile_dims, iter_names):
        self.rows = []
        self.exact = True
        known = set(tile_dims) | set(iter_names)
        iter_pos = {n: k for k, n in enumerate(iter_names)}
        for c in wrapped.constraints:
            if not c.expr.is_integral() or any(
                v not in known for v in c.expr.variables()
            ):
                self.exact = False
                return
            tile_coeffs = tuple(int(c.expr.coeff(d)) for d in tile_dims)
            iter_terms = tuple(
                (iter_pos[n], int(c.expr.coeff(n)))
                for n in iter_names
                if c.expr.coeff(n) != 0
            )
            self.rows.append(
                (int(c.expr.const), tile_coeffs, iter_terms, c.is_equality)
            )

    def mask(
        self, tile: Sequence[int], box: Sequence[Tuple[int, int]]
    ) -> "Optional[np.ndarray] | bool":
        """Membership of the tile's integer ``box``: None = all in,
        False = none, else a boolean array broadcastable to the box.

        Each row is decided from the box first: its min and max over the
        box take every ``iter_k`` at ``lo`` or ``hi`` by the sign of
        ``c_k``.  A row the box implies is skipped, a row no box point
        satisfies returns False, and only the undecided rows are
        evaluated -- each over the grids of the axes it mentions.  An
        undecided row fails at some box corner, so an array is never all
        True.
        """
        undecided = []
        for const, tile_coeffs, iter_terms, is_eq in self.rows:
            base = const
            for tc, tv in zip(tile_coeffs, tile):
                base += tc * tv
            low = high = base
            for k, c in iter_terms:
                lo, hi = box[k]
                if c > 0:
                    low += c * lo
                    high += c * hi
                else:
                    low += c * hi
                    high += c * lo
            if high < 0 or (is_eq and low > 0):
                return False
            if (low == high) if is_eq else (low >= 0):
                continue
            undecided.append((base, iter_terms, is_eq))
        acc = None
        grids: Dict[int, np.ndarray] = {}
        for base, iter_terms, is_eq in undecided:
            val = np.int64(base)
            for k, c in iter_terms:
                grid = grids.get(k)
                if grid is None:
                    lo, hi = box[k]
                    shape = [1] * len(box)
                    shape[k] = hi - lo + 1
                    grid = grids[k] = np.arange(
                        lo, hi + 1, dtype=np.int64
                    ).reshape(shape)
                val = val + c * grid
            cond = (val == 0) if is_eq else (val >= 0)
            acc = cond if acc is None else (acc & cond)
        return acc


class _StmtReplay:
    """Per-statement replay state within one group."""

    __slots__ = ("stmt", "wrapped", "pbox", "membership", "plan", "executed")

    def __init__(self, stmt, wrapped, pbox, membership, plan, executed):
        self.stmt = stmt
        self.wrapped = wrapped
        self.pbox = pbox
        self.membership = membership
        self.plan = plan  # StatementPlan, or None -> scalar path
        self.executed = executed  # bool dedup mask for fused producers


def _prepare_replays(group: TiledGroup, engine: str) -> List[_StmtReplay]:
    """Per-statement replay state (wrapped relation, parametric box,
    membership rows, vectorization plan) — tile- and buffer-independent,
    so one preparation serves any number of invocations."""
    replays: List[_StmtReplay] = []
    for stmt in group.statements:
        rel = group.instance_relations[stmt.stmt_id]
        wrapped = rel.wrap()
        pbox = _ParametricBox(
            wrapped, stmt.iter_names, group.tile_dims, stmt.iter_extents
        )
        executed = (
            np.zeros(tuple(stmt.iter_extents), dtype=bool)
            if stmt.stmt_id in group.fused_producer_ids
            else None
        )
        plan = None
        if engine != "scalar":
            membership = _Membership(wrapped, group.tile_dims, stmt.iter_names)
            if membership.exact:
                try:
                    plan = vectorized.plan_for(stmt)
                except ExecutionFallbackError as exc:
                    vectorized.note_scalar_fallback(
                        getattr(exc, "reason", None) or str(exc)
                    )
            else:
                vectorized.note_scalar_fallback(
                    "non-integral membership constraints"
                )
        else:
            membership = None
        replays.append(
            _StmtReplay(stmt, wrapped, pbox, membership, plan, executed)
        )
    return replays


class _TileStep:
    """One (statement, tile) unit of a precomputed replay schedule."""

    __slots__ = ("rep", "tile", "tile_env", "box", "mask")

    def __init__(self, rep, tile, tile_env, box, mask):
        self.rep = rep
        self.tile = tile
        self.tile_env = tile_env
        self.box = box
        self.mask = mask  # None = all-in; ndarray = filter (vec path only)


class ProgramReplay:
    """Reusable replay state for one compiled program.

    Construction derives everything that does not depend on the input
    values: per-statement wrapped relations, parametric boxes, membership
    rows and vectorization plans, then the flat per-tile schedule
    (concrete instance boxes and membership masks per tile).  ``run``
    then only touches buffers, so replaying the program across a batch of
    inputs pays the polyhedral setup once.

    ``run`` accepts preallocated arrays for the tensors the program
    writes (``out`` for kernel outputs, ``workspace`` for intermediates),
    which is how the network plan backs every invocation with recycled
    arena slots instead of fresh allocations.
    """

    def __init__(self, program: Program, engine: str = "auto"):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if not program.trace:
            raise TraceMissingError(
                f"program {program.name!r} has no execution trace; compile "
                "with emit_trace=True"
            )
        self.engine = engine
        self.kernel: LoweredKernel
        self.groups: Sequence[TiledGroup]
        self.kernel, self.groups = program.trace
        self._group_replays = [
            (group, _prepare_replays(group, engine)) for group in self.groups
        ]
        # Schedules are cached per symbolic-dim binding: key () is the
        # compile-time (maximum-shape) schedule; other keys hold clamped
        # variants derived from it (shape-generic kernels only).
        self._schedules: Dict[Tuple[Tuple[str, int], ...], List[List[_TileStep]]] = {}

    # -- schedule construction (lazy: first run) ---------------------------

    def _build_schedule(self) -> List[List[_TileStep]]:
        schedule: List[List[_TileStep]] = []
        for group, replays in self._group_replays:
            steps: List[_TileStep] = []
            tile_ranges = [range(c) for c in group.tile_counts]
            for tile in itertools.product(*tile_ranges):
                tile_env = dict(zip(group.tile_dims, tile))
                for rep in replays:
                    box = rep.pbox.at(tile_env)
                    if box is None:
                        continue
                    mask = None
                    if rep.plan is not None:
                        mask = rep.membership.mask(tile, box)
                        if mask is False:
                            continue  # statically empty in this tile
                    steps.append(_TileStep(rep, tile, tile_env, box, mask))
            schedule.append(steps)
        return schedule

    def _schedule_for(
        self, effective: Mapping[str, int]
    ) -> List[List[_TileStep]]:
        """The replay schedule under ``effective`` symbolic bindings.

        ``effective`` holds only dims bound strictly below their maxima;
        empty means the compile-time schedule applies unchanged.  Clamped
        variants are derived from the base schedule by intersecting each
        step's instance box with the bound extents and cached per binding,
        so replaying a batch-size sweep pays each clamp once.
        """
        key = tuple(sorted(effective.items()))
        schedule = self._schedules.get(key)
        if schedule is not None:
            return schedule
        base = self._schedules.get(())
        if base is None:
            base = self._schedules[()] = self._build_schedule()
        schedule = base if not key else self._clamp_schedule(base, effective)
        self._schedules[key] = schedule
        return schedule

    def _clamp_schedule(
        self, base: List[List[_TileStep]], bindings: Mapping[str, int]
    ) -> List[List[_TileStep]]:
        """Clamp every step's box on symbolic iter dims to the bound value.

        Tiles that fall entirely past a bound extent drop out; partially
        covered tiles get a tightened box and a recomputed membership
        mask.  Everything else is shared with the base schedule.
        """
        out: List[List[_TileStep]] = []
        for steps in base:
            clamped: List[_TileStep] = []
            for step in steps:
                rep = step.rep
                sym_extents = getattr(rep.stmt, "sym_extents", None) or {}
                if not sym_extents:
                    clamped.append(step)
                    continue
                box = list(step.box)
                changed = False
                empty = False
                for k, iname in enumerate(rep.stmt.iter_names):
                    bound = bindings.get(sym_extents.get(iname, ""))
                    if bound is None:
                        continue
                    lo, hi = box[k]
                    if lo > bound - 1:
                        empty = True
                        break
                    if hi > bound - 1:
                        box[k] = (lo, bound - 1)
                        changed = True
                if empty:
                    continue
                if not changed:
                    clamped.append(step)
                    continue
                mask = None
                if rep.plan is not None:
                    mask = rep.membership.mask(step.tile, box)
                    if mask is False:
                        continue
                clamped.append(
                    _TileStep(rep, step.tile, step.tile_env, box, mask)
                )
            out.append(clamped)
        return out

    def workspace_arrays(self) -> Dict[str, np.ndarray]:
        """Fresh zeroed arrays for the program's intermediate tensors
        (written but not kernel outputs); reusable across ``run`` calls
        via the ``workspace`` argument."""
        from repro.runtime.reference import numpy_dtype

        outputs = {t.name for t in self.kernel.outputs}
        inputs = {t.name for t in self.kernel.inputs}
        arrays: Dict[str, np.ndarray] = {}
        for stmt in self.kernel.statements:
            t = stmt.tensor
            if t.name in outputs or t.name in inputs or t.name in arrays:
                continue
            arrays[t.name] = np.zeros(t.shape, dtype=numpy_dtype(t.dtype))
        return arrays

    # -- execution ---------------------------------------------------------

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        out: Optional[Mapping[str, np.ndarray]] = None,
        workspace: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """One invocation; returns the kernel outputs by name.

        ``out`` / ``workspace`` map tensor names to preallocated arrays
        (e.g. arena slot views); every written tensor is zeroed before
        execution (reduction statements accumulate into their buffers),
        and missing entries are freshly allocated.

        For shape-generic programs the values of the symbolic dims are
        inferred from the input array shapes; the replay then runs the
        compile-time schedule with every tile box clamped to the bound
        extents, and outputs come back at the bound shapes.  Programs
        whose legality proof concretized (``shape_generic`` is false)
        accept only the declared maximum shapes.
        """
        from repro.runtime.reference import numpy_dtype

        sym_dims = getattr(self.kernel, "sym_dims", None) or {}
        bindings = infer_bindings(self.kernel, inputs) if sym_dims else {}
        effective = {
            k: v for k, v in bindings.items() if v != sym_dims.get(k)
        }
        if effective and not getattr(self.kernel, "shape_generic", False):
            raise ValueError(
                f"program {self.kernel.name!r} was concretized at its "
                f"maximum shapes (the parametric legality proof failed); "
                f"it cannot replay at bindings {effective}"
            )
        buffers = bind_inputs(self.kernel, inputs, bindings)
        provided: Dict[str, np.ndarray] = {}
        if workspace:
            provided.update(workspace)
        if out:
            provided.update(out)
        for stmt in self.kernel.statements:
            name = stmt.tensor.name
            if name in buffers:
                continue
            shape = bound_shape(stmt.tensor, bindings)
            arr = provided.get(name)
            if arr is None:
                buffers[name] = np.zeros(
                    shape, dtype=numpy_dtype(stmt.tensor.dtype)
                )
                continue
            if tuple(arr.shape) == tuple(stmt.tensor.shape) != tuple(shape):
                # A maximum-shape arena slot under a smaller binding:
                # execute into its leading corner (clamped boxes never
                # touch the rest).
                arr = arr[tuple(slice(0, s) for s in shape)]
            elif tuple(arr.shape) != tuple(shape):
                raise ValueError(
                    f"buffer for {name!r}: expected shape "
                    f"{shape}, got {arr.shape}"
                )
            arr.fill(0)
            buffers[name] = arr
        # Fused-producer dedup masks are per-invocation state.
        for _group, replays in self._group_replays:
            for rep in replays:
                if rep.executed is not None:
                    rep.executed.fill(False)

        schedule = self._schedule_for(effective)
        with LOCK:
            COUNTERS["exec.program_replays"] += 1
        vec_seconds = fb_seconds = 0.0
        vec_stmts = set()
        for steps in schedule:
            for step in steps:
                rep = step.rep
                if rep.plan is not None:
                    start = time.perf_counter()
                    try:
                        _run_tile_vectorized(rep, step, buffers)
                        vec_seconds += time.perf_counter() - start
                        vec_stmts.add(rep.stmt.stmt_id)
                        continue
                    except ExecutionFallbackError as exc:
                        # e.g. a guarded read escaped its Select in this
                        # tile, or an injected exec.vectorized fault;
                        # nothing was written or recorded as executed yet.
                        fb_start = time.perf_counter()
                        _run_tile_scalar(rep, step.tile_env, step.box, buffers)
                        fb_seconds += time.perf_counter() - fb_start
                        vectorized.note_scalar_fallback(
                            getattr(exc, "reason", None) or str(exc)
                        )
                        continue
                _run_tile_scalar(rep, step.tile_env, step.box, buffers)
        # One stage entry each per replay; the counters count statements.
        if vec_stmts:
            vectorized.note_vectorized(vec_seconds, len(vec_stmts))
        if fb_seconds:
            credit("exec.scalar_fallback", fb_seconds)
        return {t.name: buffers[t.name] for t in self.kernel.outputs}


def _run_tile_vectorized(rep, step: _TileStep, buffers) -> None:
    faults.fire("exec.vectorized")
    vectorized.run_statement_box(
        rep.plan, buffers, step.box, step.mask, rep.executed
    )


def _run_tile_scalar(rep, tile_env, box, buffers) -> None:
    stmt = rep.stmt
    member = rep.wrapped
    executed = rep.executed
    for point in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        full = dict(tile_env)
        full.update(zip(stmt.iter_names, point))
        if not member.contains(full):
            continue
        if executed is not None:
            if executed[point]:
                continue  # no redundant recomputation [70]
            executed[point] = True
        run_instance(stmt, point, buffers)
