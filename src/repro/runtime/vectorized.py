"""Vectorized numpy execution of polyhedral statements.

The scalar oracle (:mod:`repro.runtime.reference`) walks the expression
tree once per statement *instance*; interpreter overhead caps usable
shapes at toy sizes.  This module compiles each
:class:`~repro.ir.lower.PolyStatement` into whole-array numpy operations
over the statement's rectangular instance box, the way real polyhedral
code generators emit bulk tensor operations over affine regions.

Classification, per statement (cached on the statement object):

- the write must be the identity map over the data dims covering the
  output tensor (what ``lower()`` always produces);
- every read index must be affine in the statement's own iterators with
  integral coefficients -- each becomes either a basic/strided slice
  (when the per-tensor-axis indices use distinct single iterators and are
  provably in-bounds) or a broadcast integer gather;
- ``Select`` evaluates both branches on arrays, but reads inside a
  branch are *guarded*: indices are clipped into bounds and the lanes
  that were clipped carry an out-of-bounds mask.  ``np.where`` merges
  values and masks along the chosen branch; if any OOB lane survives to
  the top of the statement the vectorized run aborts and the scalar
  interpreter (whose lazy ``Select`` never touches the memory) takes
  over.  Guarded padding reads therefore provably never *use* memory the
  scalar path would not have read;
- reductions vectorize over the data dims and step *sequentially* over
  the flattened reduction axes in row-major order -- the exact scalar
  instance order.  ``sum``/``prod`` are *streamed*: the operands of the
  expression's root ``add``/``sub``/``mul``/``div`` are evaluated once as
  broadcast views and each step applies the root to two data-shaped
  slices, so a contraction's ``data x K`` product is never materialised
  (any other root is evaluated whole and sliced).  The accumulate is one
  mixed-dtype ufunc call per step: numpy computes in float64 and rounds
  to the output dtype on store, which is the oracle's per-step cast and
  what makes fp16/fp32/int32 results bit-identical to it.  ``max``/
  ``min`` fold in one shot with ``np.fmax.reduce`` (exact: round-to-
  nearest is monotone and NaN never enters a Python ``max`` accumulator).

Anything unclassifiable -- data-dependent indexing, non-identity writes,
foreign iterators, unknown ops -- falls back to the scalar interpreter,
so correctness never regresses.  Statements are counted per engine in
the ``exec.*`` counters (:func:`exec_stats`) and their time is credited
to the ``exec.*`` perf stages.

The fallback trigger is *typed*: only
:class:`~repro.core.errors.ExecutionFallbackError` (whose concrete shape
here is :class:`Unvectorizable`) routes to the scalar engine.  A genuine
bug -- an ``IndexError`` from a mis-built plan, a ``TypeError`` in the
evaluator -- propagates to the caller instead of being silently absorbed
into the scalar path.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
from typing import Dict, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.core import faults
from repro.core.context import COUNTERS, LOCK, counters, credit, reset_counters
from repro.core.errors import ExecutionFallbackError
from repro.ir.expr import (
    BinaryOp,
    Cast,
    Expr,
    FloatImm,
    IntImm,
    IterVar,
    Reduce,
    Select,
    TensorRef,
    UnaryOp,
)
from repro.ir.lower import PolyStatement, expr_to_affine
from repro.poly.affine import AffineExpr
from repro.runtime import reference
from repro.runtime.reference import AUTO_VECTORIZE_MIN_INSTANCES, numpy_dtype

__all__ = [
    "Unvectorizable",
    "StatementPlan",
    "plan_for",
    "run_statement",
    "run_statement_box",
    "exec_stats",
    "reset_exec_stats",
]


class Unvectorizable(ExecutionFallbackError):
    """The statement (or one dynamic execution of it) cannot vectorize.

    Part of the error taxonomy: engine-selection code catches the
    :class:`~repro.core.errors.ExecutionFallbackError` base, which also
    covers faults injected at the ``exec.vectorized`` site.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# -- statistics ----------------------------------------------------------------
#
# Statement executions are counted once each, in ``exec.vectorized``,
# ``exec.scalar_fallback`` (plus ``exec.fallback.<reason>``) and
# ``exec.scalar_small``; compiled-program replays in
# ``exec.program_replays``.  The ``exec.*`` perf stages hold their time.

_ENGINES = ("vectorized", "scalar_fallback", "scalar_small", "program_replays")


def reset_exec_stats() -> None:
    """Zero the engine counters (tests and benchmarks)."""
    reset_counters("exec.")


def exec_stats() -> Dict[str, object]:
    """Snapshot of per-engine statement counts and fallback reasons."""
    snap = counters("exec.")
    stats: Dict[str, object] = {key: snap.get(key, 0) for key in _ENGINES}
    stats["fallback_reasons"] = counters("exec.fallback.")
    return stats


def note_vectorized(seconds: float, statements: int = 1) -> None:
    """Count ``statements`` vectorized statement executions and credit
    their ``seconds`` to the ``exec.vectorized`` stage as one entry."""
    with LOCK:
        COUNTERS["exec.vectorized"] += statements
    credit("exec.vectorized", seconds)


def note_scalar_fallback(reason: str) -> None:
    """Count one statement execution that fell back to the scalar engine
    (the caller credits the time it took to ``exec.scalar_fallback``)."""
    from repro.core import resilience

    with LOCK:
        COUNTERS["exec.scalar_fallback"] += 1
        COUNTERS["exec.fallback." + reason] += 1
    # One report event per distinct reason (fallbacks recur per tile;
    # the per-reason counters above carry the multiplicity).
    resilience.note_event(
        "exec", "fallback", fallback="scalar", detail=reason, dedupe=True
    )


# -- vector op tables ----------------------------------------------------------
#
# Each entry maps float64 arrays to a float64 array with *exactly* the
# semantics of the scalar dispatch in reference.py (which routes
# transcendentals through the same numpy implementations).

_V_UNARY = {
    "neg": lambda a: -a,
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "rsqrt": lambda a: 1.0 / np.sqrt(a),
    "relu": lambda a: np.where(a > 0, a, 0.0),
    "sigmoid": lambda a: 1.0 / (1.0 + np.exp(-a)),
    "tanh": np.tanh,
    "floor": np.floor,
    "ceil": np.ceil,
    "not": lambda a: np.where(a != 0, 0.0, 1.0),
}

_V_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    # Python's max(a, b) is "b if a < b else a": ties and NaN-in-a keep a,
    # NaN-in-b returns b.  np.where(b > a, b, a) reproduces that exactly;
    # np.maximum would propagate NaN from either side.
    "max": lambda a, b: np.where(b > a, b, a),
    "min": lambda a, b: np.where(b < a, b, a),
    "pow": np.power,
    "eq": lambda a, b: (a == b).astype(np.float64),
    "ne": lambda a, b: (a != b).astype(np.float64),
    "lt": lambda a, b: (a < b).astype(np.float64),
    "le": lambda a, b: (a <= b).astype(np.float64),
    "gt": lambda a, b: (a > b).astype(np.float64),
    "ge": lambda a, b: (a >= b).astype(np.float64),
    "and": lambda a, b: ((a != 0) & (b != 0)).astype(np.float64),
    "or": lambda a, b: ((a != 0) | (b != 0)).astype(np.float64),
}


# -- classification ------------------------------------------------------------


class _RefPlan:
    """Positional affine index plan for one ``TensorRef``.

    ``index_terms`` holds, per tensor axis, ``(const, ((grid_axis, coeff),
    ...))`` with integer values -- enough to build slices, bound intervals
    and gather index arrays without touching the expression tree again.
    """

    __slots__ = ("tensor_name", "shape", "index_terms")

    def __init__(self, tensor_name, shape, index_terms):
        self.tensor_name = tensor_name
        self.shape = shape
        self.index_terms = index_terms


class StatementPlan:
    """Everything the array evaluator needs, derived once per statement."""

    __slots__ = ("stmt", "n_axes", "ref_plans", "axis_of", "out_dtype")

    def __init__(self, stmt, n_axes, ref_plans, axis_of, out_dtype):
        self.stmt = stmt
        self.n_axes = n_axes
        self.ref_plans = ref_plans  # id(TensorRef) -> _RefPlan
        self.axis_of = axis_of  # id(IterVar) -> grid axis
        self.out_dtype = out_dtype


_PLANS: "WeakKeyDictionary[PolyStatement, object]" = WeakKeyDictionary()


def plan_for(stmt: PolyStatement) -> StatementPlan:
    """Classify ``stmt`` (cached); raises :class:`Unvectorizable`."""
    cached = _PLANS.get(stmt)
    if isinstance(cached, StatementPlan):
        return cached
    if isinstance(cached, Unvectorizable):
        raise cached
    try:
        plan = _classify(stmt)
    except Unvectorizable as exc:
        _PLANS[stmt] = exc
        raise
    _PLANS[stmt] = plan
    return plan


def _classify(stmt: PolyStatement) -> StatementPlan:
    data_names = stmt.iter_names[: stmt.data_rank]
    indices = stmt.write.indices
    if indices is None or len(indices) != len(data_names):
        raise Unvectorizable("non-identity write")
    for e, name in zip(indices, data_names):
        if e != AffineExpr.variable(name):
            raise Unvectorizable("non-identity write")
    if tuple(stmt.iter_extents[: stmt.data_rank]) != tuple(stmt.tensor.shape):
        raise Unvectorizable("write does not cover the output tensor")

    if stmt.kind == "reduce" and (stmt.reduce_op or "sum") not in (
        "sum",
        "prod",
        "max",
        "min",
    ):
        raise Unvectorizable(f"unknown reduce op {stmt.reduce_op!r}")

    pos = {name: k for k, name in enumerate(stmt.iter_names)}
    ref_plans: Dict[int, _RefPlan] = {}
    axis_of: Dict[int, int] = {}
    for node in _walk_value(stmt.expr):
        if isinstance(node, (IntImm, FloatImm, Select, Cast)):
            continue
        if isinstance(node, IterVar):
            name = stmt.var_names.get(id(node))
            if name is None or name not in pos:
                raise Unvectorizable("foreign iterator")
            axis_of[id(node)] = pos[name]
        elif isinstance(node, TensorRef):
            ref_plans[id(node)] = _plan_ref(node, stmt, pos)
        elif isinstance(node, UnaryOp):
            if node.op not in _V_UNARY:
                raise Unvectorizable(f"unknown unary op {node.op!r}")
        elif isinstance(node, BinaryOp):
            if node.op not in _V_BINARY:
                raise Unvectorizable(f"unknown binary op {node.op!r}")
        elif isinstance(node, Reduce):
            raise Unvectorizable("unlowered reduce")
        else:
            raise Unvectorizable(f"unsupported node {type(node).__name__}")
    return StatementPlan(
        stmt,
        len(stmt.iter_names),
        ref_plans,
        axis_of,
        numpy_dtype(stmt.tensor.dtype),
    )


def _walk_value(expr: Expr):
    """Preorder walk of the value expression (not inside TensorRef indices:
    those are handled symbolically by ``_plan_ref``)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, TensorRef):
            continue
        stack.extend(getattr(node, "children", lambda: ())())


def _plan_ref(ref: TensorRef, stmt: PolyStatement, pos) -> _RefPlan:
    index_terms = []
    for idx in ref.indices:
        aff = expr_to_affine(idx, stmt.var_names)
        if aff is None:
            raise Unvectorizable("data-dependent indexing")
        if not aff.is_integral():
            raise Unvectorizable("non-integral index coefficients")
        terms = []
        for name, c in aff.coeffs.items():
            if name not in pos:
                raise Unvectorizable("foreign index dimension")
            terms.append((pos[name], int(c)))
        terms.sort()
        index_terms.append((int(aff.const), tuple(terms)))
    return _RefPlan(ref.tensor.name, tuple(ref.tensor.shape), tuple(index_terms))


# -- array evaluation ----------------------------------------------------------


class _Ctx:
    """Evaluation context: one rectangular instance box.

    ``igrids[k]``/``fgrids[k]`` are int64/float64 arange arrays for grid
    axis ``k``, shaped ``(1, ..., extent_k, ..., 1)`` so plain numpy
    broadcasting assembles full-grid values lazily.  ``guarded`` is set
    while evaluating inside a ``Select`` branch.
    """

    __slots__ = ("plan", "buffers", "ranges", "igrids", "fgrids", "guarded")

    def __init__(self, plan, buffers, ranges):
        self.plan = plan
        self.buffers = buffers
        self.ranges = ranges  # per grid axis: inclusive (lo, hi)
        n = plan.n_axes
        self.igrids = []
        self.fgrids = []
        for k, (lo, hi) in enumerate(ranges):
            shape = [1] * n
            shape[k] = hi - lo + 1
            g = np.arange(lo, hi + 1, dtype=np.int64).reshape(shape)
            self.igrids.append(g)
            self.fgrids.append(g.astype(np.float64))
        self.guarded = False


def _merge_oob(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _eval(expr: Expr, ctx: _Ctx):
    """Evaluate to ``(float64 array-or-scalar, oob mask-or-None)``."""
    if isinstance(expr, IntImm):
        return float(expr.value), None
    if isinstance(expr, FloatImm):
        return expr.value, None
    if isinstance(expr, IterVar):
        return ctx.fgrids[ctx.plan.axis_of[id(expr)]], None
    if isinstance(expr, TensorRef):
        return _read(ctx.plan.ref_plans[id(expr)], ctx)
    if isinstance(expr, Cast):
        a, oa = _eval(expr.a, ctx)
        cast = np.asarray(a).astype(numpy_dtype(expr.dtype)).astype(np.float64)
        return cast, oa
    if isinstance(expr, Select):
        cond, oc = _eval(expr.cond, ctx)
        condb = np.asarray(cond) != 0
        saved = ctx.guarded
        ctx.guarded = True
        try:
            t, ot = _eval(expr.if_true, ctx)
            f, of = _eval(expr.if_false, ctx)
        finally:
            ctx.guarded = saved
        value = np.where(condb, t, f)
        if ot is None and of is None:
            oob = oc
        else:
            oob = np.where(
                condb,
                ot if ot is not None else False,
                of if of is not None else False,
            )
            oob = _merge_oob(oob, oc)
        return value, oob
    if isinstance(expr, UnaryOp):
        a, oa = _eval(expr.a, ctx)
        return _V_UNARY[expr.op](a), oa
    if isinstance(expr, BinaryOp):
        a, oa = _eval(expr.a, ctx)
        b, ob = _eval(expr.b, ctx)
        return _V_BINARY[expr.op](a, b), _merge_oob(oa, ob)
    raise Unvectorizable(f"unsupported node {type(expr).__name__}")


def _index_interval(const, terms, ranges):
    """Inclusive value interval of an affine index over the box."""
    lo = hi = const
    for axis, c in terms:
        a0, a1 = ranges[axis]
        if c > 0:
            lo += c * a0
            hi += c * a1
        else:
            lo += c * a1
            hi += c * a0
    return lo, hi


def _read(rp: _RefPlan, ctx: _Ctx):
    buf = ctx.buffers[rp.tensor_name]
    in_bounds = True
    for (const, terms), extent in zip(rp.index_terms, rp.shape):
        lo, hi = _index_interval(const, terms, ctx.ranges)
        if lo < 0 or hi >= extent:
            in_bounds = False
            break
    if in_bounds:
        view = _try_slice(rp, ctx, buf)
        if view is not None:
            return view, None
    # Gather with broadcast integer index arrays.
    idx = []
    oob = None
    for (const, terms), extent in zip(rp.index_terms, rp.shape):
        if not terms:
            arr = const
        else:
            arr = np.int64(const)
            for axis, c in terms:
                arr = arr + c * ctx.igrids[axis]
        if ctx.guarded:
            lo, hi = _index_interval(const, terms, ctx.ranges)
            if lo < 0 or hi >= extent:
                a = np.asarray(arr)
                bad = (a < 0) | (a >= extent)
                oob = _merge_oob(oob, bad)
                arr = np.clip(a, 0, extent - 1)
        idx.append(arr)
    # Unguarded out-of-range indices keep raw numpy semantics (negative
    # wrap-around, IndexError), exactly like the scalar interpreter's
    # ``buffers[name][idx]``.
    gathered = buf[tuple(idx)]
    return np.asarray(gathered).astype(np.float64), oob


def _try_slice(rp: _RefPlan, ctx: _Ctx, buf):
    """Strided-slice fast path; None when the pattern needs a gather."""
    slicers = []
    placement = []  # per tensor axis: grid axis kept, or None for constants
    used = set()
    for (const, terms), extent in zip(rp.index_terms, rp.shape):
        if not terms:
            slicers.append(slice(const, const + 1))
            placement.append(None)
            continue
        if len(terms) != 1:
            return None
        axis, c = terms[0]
        if axis in used:
            return None  # e.g. A[i, i]: same iterator twice -> gather
        used.add(axis)
        a0, a1 = ctx.ranges[axis]
        first = const + c * a0
        last = const + c * a1
        if c > 0:
            slicers.append(slice(first, last + 1, c))
        else:
            stop = last - 1 if last > 0 else None
            slicers.append(slice(first, stop, c))
        placement.append(axis)
    view = buf[tuple(slicers)]
    # Transpose kept axes into grid-axis order (constants sort last; they
    # have length 1 and fold away in the reshape).
    perm = sorted(
        range(len(placement)),
        key=lambda k: (placement[k] is None, placement[k] or 0),
    )
    out_shape = [1] * ctx.plan.n_axes
    for k, axis in enumerate(placement):
        if axis is not None:
            out_shape[axis] = view.shape[k]
    return view.transpose(perm).reshape(out_shape).astype(np.float64)


# -- whole-statement execution -------------------------------------------------


def _box_shape(ranges) -> Tuple[int, ...]:
    return tuple(hi - lo + 1 for lo, hi in ranges)


class _Quiet(threading.local):
    """``run(f, *args)`` calls ``f`` with numpy's floating-point errors
    ignored, at no Python-level call (``np.errstate`` costs three).

    numpy >= 2 keeps its error state in a context variable, so a
    ``contextvars.Context`` that ran ``np.seterr`` once carries "all
    ignore" for whatever later runs inside it and leaves the caller's
    state alone.  A context cannot be entered twice at once, hence one
    per thread.
    """

    def __init__(self):
        self.run = contextvars.Context().run
        self.run(np.seterr, all="ignore")


_QUIET = _Quiet()


def _evaluate_box(plan: StatementPlan, exprs, buffers, ranges, mask):
    """Evaluate each of ``exprs`` over the box; raises on OOB lanes.

    The values are what ``_eval`` returns: float64 scalars or arrays that
    broadcast against the box (extent or 1 on every grid axis).
    """
    ctx = _Ctx(plan, buffers, ranges)
    quiet = _QUIET.run
    values = []
    oob = None
    for expr in exprs:
        value, lanes = quiet(_eval, expr, ctx)
        values.append(value)
        oob = _merge_oob(oob, lanes)
    if oob is not None:
        live = oob if mask is None else (oob & mask)
        if np.any(live):
            raise Unvectorizable("guarded read escapes its Select guard")
    return values


# Sum/prod accumulate per step; an arithmetic root (these entries of
# ``_V_BINARY`` are ufuncs, they take ``out=``) is applied per step too.
_ACCUMULATE = {"sum": np.add, "prod": np.multiply}
_STREAMED_ROOTS = ("add", "sub", "mul", "div")


def _per_step(value, data_rank, reduce_shape, k_count):
    """View a box value as ``data... x K``, K the flattened reduce box.

    A value that spans every reduce axis is reshaped, one that spans none
    gets stride 0 along K, and only one that spans some of them is
    materialised -- alone, at its own data extent.
    """
    value = np.asarray(value, dtype=np.float64)
    lead = value.shape[:data_rank] if value.ndim else (1,) * data_rank
    if value.shape[data_rank:] != reduce_shape:
        value = np.broadcast_to(value, lead + reduce_shape)
    return value.reshape(lead + (k_count,))


def _reduce_box(plan: StatementPlan, buffers, ranges, mask, region) -> None:
    """Fold the box's instances into ``region`` in the scalar instance
    order: data dims vectorized, the flattened reduce axes row-major.

    Sum/prod stream (module docstring): the root's operands stay the
    broadcast views ``_eval`` returns (matmul: ``(M,1,K)`` and
    ``(1,N,K)``) and each step applies the root to two slices.  The
    mixed-dtype accumulate is the oracle's ``out[idx] = float(out[idx]) +
    value``: float64 loop, rounded to the output dtype on store, warning
    when that store overflows.  It runs in the caller's error state; the
    root, like all of ``_eval``, with errors ignored.
    """
    stmt = plan.stmt
    op = stmt.reduce_op or "sum"
    expr = stmt.expr
    accumulate = _ACCUMULATE.get(op)
    root = None
    operands = (expr,)
    if (
        accumulate is not None
        and isinstance(expr, BinaryOp)
        and expr.op in _STREAMED_ROOTS
    ):
        root = _V_BINARY[expr.op]
        operands = (expr.a, expr.b)
    shape = _box_shape(ranges)
    data_shape = shape[: stmt.data_rank]
    reduce_shape = shape[stmt.data_rank :]
    k_count = math.prod(reduce_shape)
    # A guarded read that escapes aborts here, before anything is written.
    values = _evaluate_box(plan, operands, buffers, ranges, mask)
    a = _per_step(values[0], stmt.data_rank, reduce_shape, k_count)
    if root is not None:
        b = _per_step(values[1], stmt.data_rank, reduce_shape, k_count)
        step = np.empty(data_shape)
    if mask is not None:
        mask = mask.reshape(data_shape + (k_count,))
    if accumulate is None:
        # One shot: iterated round(max(acc, v)) equals round(max over all
        # v) because round-to-nearest is monotone, and fmax/fmin ignore
        # NaN exactly like a NaN-free Python max chain.  A lane with no
        # member keeps ``initial`` and so never beats its accumulator.
        fold, initial = (np.fmax, -np.inf) if op == "max" else (np.fmin, np.inf)
        if mask is None:
            best = fold.reduce(a, axis=-1, initial=initial)
        else:
            best = fold.reduce(
                np.broadcast_to(a, mask.shape), axis=-1, initial=initial, where=mask
            )
        accf = region.astype(np.float64)
        pick = best > accf if op == "max" else best < accf
        region[...] = np.where(pick, best, accf)
        return
    cur = region.copy()
    quiet = _QUIET.run
    # No Python-level call and no allocation per step.
    for t in range(k_count):
        if root is None:
            step = a[..., t]
        else:
            quiet(root, a[..., t], b[..., t], out=step)
        if mask is None:
            accumulate(cur, step, out=cur, casting="unsafe")
        else:
            accumulate(cur, step, out=cur, where=mask[..., t], casting="unsafe")
    region[...] = cur


def run_statement_box(
    plan: StatementPlan,
    buffers: Dict[str, np.ndarray],
    box: Sequence[Tuple[int, int]],
    mask: Optional[np.ndarray],
    executed: Optional[np.ndarray],
) -> None:
    """Execute the instances of one statement inside ``box``.

    ``box`` gives inclusive per-dim bounds in absolute iteration
    coordinates.  ``mask`` (broadcastable to the box, or None for all)
    selects member instances; ``executed`` is the statement's full-domain
    dedup mask for fused producers -- instances already executed are
    masked out, newly executed ones are recorded.  This is the replay
    engine's per-tile entry point.
    """
    stmt = plan.stmt
    shape = _box_shape(box)
    if any(s <= 0 for s in shape):
        return
    box_slices = tuple(slice(lo, hi + 1) for lo, hi in box)
    eff = None if mask is None else np.broadcast_to(mask, shape)
    if executed is not None:
        sub = executed[box_slices]
        eff = ~sub if eff is None else (eff & ~sub)
    if eff is not None:
        if not eff.any():
            return
        if eff.all():
            eff = None
    # The Ellipsis keeps a rank-0 output an array view.
    region = buffers[stmt.tensor.name][box_slices[: stmt.data_rank] + (...,)]
    if stmt.kind == "reduce":
        _reduce_box(plan, buffers, box, eff, region)
    else:
        (value,) = _evaluate_box(plan, (stmt.expr,), buffers, box, eff)
        # same_kind would reject float64 -> int32; plain ndarray
        # assignment (the scalar path) uses unsafe casting.
        np.copyto(
            region, value, where=True if eff is None else eff, casting="unsafe"
        )
    # Record executed instances only now: if evaluation aborted to the
    # scalar fallback, the caller must still see these as un-executed.
    if executed is not None:
        if eff is None:
            executed[box_slices] = True
        else:
            executed[box_slices] |= eff


def run_statement(
    stmt: PolyStatement,
    buffers: Dict[str, np.ndarray],
    engine: str = "vectorized",
) -> None:
    """Execute one statement, vectorized with scalar fallback.

    ``engine="auto"`` routes statements below
    ``AUTO_VECTORIZE_MIN_INSTANCES`` to the scalar interpreter (identical
    results, less setup overhead).
    """
    if engine == "auto" and stmt.instance_count() < AUTO_VECTORIZE_MIN_INSTANCES:
        start = time.perf_counter()
        reference.run_statement(stmt, buffers)
        with LOCK:
            COUNTERS["exec.scalar_small"] += 1
        credit("exec.scalar_small", time.perf_counter() - start)
        return
    start = time.perf_counter()
    try:
        # Typed trigger only: ExecutionFallbackError covers Unvectorizable
        # and injected exec.vectorized faults; anything else is a bug and
        # propagates.
        faults.fire("exec.vectorized")
        plan = plan_for(stmt)
        full = [(0, extent - 1) for extent in stmt.iter_extents]
        run_statement_box(plan, buffers, full, None, None)
    except ExecutionFallbackError as exc:
        fb_start = time.perf_counter()
        reference.run_statement(stmt, buffers)
        note_scalar_fallback(getattr(exc, "reason", None) or str(exc))
        credit("exec.scalar_fallback", time.perf_counter() - fb_start)
        return
    note_vectorized(time.perf_counter() - start)
