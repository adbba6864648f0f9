"""Lowering from the ``te`` DSL to polyhedral statements.

A DSL program (a DAG of compute ops) lowers to an ordered list of
:class:`PolyStatement`.  Each statement carries:

- a rectangular iteration domain (a :class:`~repro.poly.sets.BasicSet`),
- one write access and a list of read accesses as affine maps,
- the scalar expression evaluated at each instance.

Reductions split into an *init* and an *update* statement exactly as in the
paper's running example (``S1``/``S2`` in Fig. 5a).  This is also where the
"automatic preparation steps" of Sec. 3 live: :func:`inline_trivial`
performs function inlining of single-use elementwise producers.
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.expr import (
    BinaryOp,
    Expr,
    IntImm,
    IterVar,
    Reduce,
    UnaryOp,
    collect_reads,
)
from repro.ir.tensor import Tensor
from repro.poly.affine import AffineExpr, Constraint, Number
from repro.poly.maps import BasicMap
from repro.poly.sets import BasicSet, Space


class TensorAccess:
    """One access (read or write) to a tensor from a statement.

    ``indices`` holds one :class:`AffineExpr` per tensor dimension over the
    statement's iteration dims, or ``None`` when the access is non-affine
    (data-dependent gather); non-affine accesses conservatively cover the
    whole tensor.
    """

    __slots__ = ("tensor", "indices")

    def __init__(self, tensor: Tensor, indices: Optional[List[AffineExpr]]):
        self.tensor = tensor
        self.indices = indices

    @property
    def is_affine(self) -> bool:
        """True when index expressions are affine in the iteration dims."""
        return self.indices is not None

    def as_map(self, domain_space: Space) -> BasicMap:
        """Access relation ``domain -> tensor`` as a basic map."""
        out_dims = [f"{self.tensor.name}_d{k}" for k in range(len(self.tensor.shape))]
        out_space = Space(self.tensor.name, out_dims)
        if self.indices is None:
            # Whole-tensor over-approximation.
            cons = []
            for dim, extent in zip(out_dims, self.tensor.shape):
                v = AffineExpr.variable(dim)
                cons.append(Constraint.ge(v, 0))
                cons.append(Constraint.le(v, extent - 1))
            return BasicMap(domain_space, out_space, cons)
        return BasicMap.from_exprs(domain_space, out_space, list(self.indices))

    def __repr__(self) -> str:
        if self.indices is None:
            return f"{self.tensor.name}[*]"
        idx = ", ".join(repr(i) for i in self.indices)
        return f"{self.tensor.name}[{idx}]"


class PolyStatement:
    """One polyhedral statement: domain + accesses + evaluated expression."""

    def __init__(
        self,
        stmt_id: str,
        tensor: Tensor,
        iter_names: List[str],
        iter_extents: List[int],
        data_rank: int,
        write: TensorAccess,
        reads: List[TensorAccess],
        expr: Expr,
        kind: str,
        reduce_op: Optional[str] = None,
        var_names: Optional[Dict[int, str]] = None,
        sym_extents: Optional[Dict[str, str]] = None,
    ):
        if kind not in ("compute", "init", "reduce"):
            raise ValueError(f"bad statement kind {kind!r}")
        self.stmt_id = stmt_id
        self.tensor = tensor
        self.iter_names = iter_names
        self.iter_extents = iter_extents
        self.data_rank = data_rank  # first data_rank iters are data dims
        self.write = write
        self.reads = reads
        self.expr = expr
        self.kind = kind
        self.reduce_op = reduce_op
        # id(IterVar) -> canonical dim name, for the executor.
        self.var_names: Dict[int, str] = var_names or {}
        # iteration dim name -> symbolic dim name, for dims whose extent
        # is a declared upper bound that replay clamps to the bound value.
        self.sym_extents: Dict[str, str] = sym_extents or {}

    # -- pickling ----------------------------------------------------------
    #
    # ``var_names`` is keyed by ``id(IterVar)``, and object ids do not
    # survive a pickle round trip (the persistent disk cache and the
    # parallel tuner both ship statements across process boundaries).  The
    # state swaps the ids for the IterVar objects themselves — pickle
    # preserves identity within one graph, and every var_names key comes
    # from ``tensor.op.axes`` or the body's reduction axes, which travel
    # with the statement — then rebuilds the id-keyed map on load.

    def _axis_objects(self) -> List[IterVar]:
        op = self.tensor.op
        if op is None:
            return []
        axes = list(op.axes)
        if isinstance(op.body, Reduce):
            axes.extend(op.body.axes)
        return axes

    def __getstate__(self):
        state = self.__dict__.copy()
        # Per-process executor caches: keyed by object ids / rebuilt cheaply.
        state.pop("_iter_var_ids", None)
        state.pop("_write_plan", None)
        state.pop("_domain", None)
        by_id = {id(v): v for v in self._axis_objects()}
        state["var_names"] = [
            (by_id[iv_id], name)
            for iv_id, name in self.var_names.items()
            if iv_id in by_id
        ]
        return state

    def __setstate__(self, state):
        # Attribute by attribute, in the pickled order: ``setattr`` interns
        # each name as unpickling an object without ``__setstate__`` does,
        # so a restored statement pickles to the bytes it came from.
        state["var_names"] = {id(iv): name for iv, name in state["var_names"]}
        for name, value in state.items():
            setattr(self, name, value)
        self.__dict__.setdefault("sym_extents", {})

    @property
    def space(self) -> Space:
        """Iteration space of the statement."""
        return Space(self.stmt_id, self.iter_names)

    @property
    def data_iters(self) -> List[str]:
        """Names of the non-reduction iteration dims."""
        return self.iter_names[: self.data_rank]

    @property
    def reduce_iters(self) -> List[str]:
        """Names of the reduction iteration dims."""
        return self.iter_names[self.data_rank :]

    def domain(self) -> BasicSet:
        """Rectangular iteration domain derived from axis extents.

        Names and extents never change after lowering, so the set is built
        once per statement (per process: it stays out of pickles).
        """
        cached = self.__dict__.get("_domain")
        if cached is None:
            bounds = {
                name: (0, extent - 1)
                for name, extent in zip(self.iter_names, self.iter_extents)
            }
            cached = self._domain = BasicSet.from_bounds(self.space, bounds)
        return cached

    def box_bounds(
        self, expr: AffineExpr, lengths: Optional[Sequence[int]] = None
    ) -> Optional[Tuple[Number, Number]]:
        """``(min, max)`` of ``expr`` over the iteration box, in closed
        form: each dim sits at the end of ``[0, extent - 1]`` its
        coefficient's sign points to -- what an integer ILP over
        :meth:`domain` answers, without posing one.  ``lengths`` (one per
        iteration dim) replaces the extents by a smaller box: a tile
        window, whose ``(min, max)`` spread is the range of ``expr`` over
        any one tile.  ``None`` when ``expr`` names a dim outside the box,
        or the box is empty."""
        lengths = self.iter_extents if lengths is None else lengths
        if lengths and min(lengths) < 1:
            return None
        extents = dict(zip(self.iter_names, lengths))
        lo = hi = expr.const
        for name, coeff in expr.coeffs.items():
            extent = extents.get(name)
            if extent is None:
                return None
            top = coeff * (extent - 1)
            if coeff > 0:
                hi += top
            else:
                lo += top
        return lo, hi

    def instance_count(self) -> int:
        """Number of dynamic instances of this statement."""
        total = 1
        for extent in self.iter_extents:
            total *= extent
        return total

    # -- executor plans (cached per process, excluded from pickles) --------

    def iter_var_ids(self) -> List[int]:
        """``id(IterVar)`` per iteration dim, in ``iter_names`` order.

        This is the scalar interpreter's per-instance environment key list;
        it depends only on the statement so it is computed once and cached
        (``run_instance`` used to rebuild the name->id map per instance).
        """
        cached = self.__dict__.get("_iter_var_ids")
        if cached is None:
            by_name = {name: iv_id for iv_id, name in self.var_names.items()}
            cached = [by_name[name] for name in self.iter_names]
            self._iter_var_ids = cached
        return cached

    def write_index(self, point: Sequence[int]) -> Tuple[int, ...]:
        """Concrete write coordinates for the instance at ``point``.

        Equivalent to evaluating each write index expression under the
        ``iter_names -> point`` assignment, but through a cached positional
        plan (constant + list of ``(point_position, coeff)`` terms) so the
        hot path does no dict construction.
        """
        plan = self.__dict__.get("_write_plan")
        if plan is None:
            pos = {name: k for k, name in enumerate(self.iter_names)}
            plan = []
            for e in self.write.indices:
                terms = tuple((pos[n], c) for n, c in e.coeffs.items())
                plan.append((e.const, terms))
            self._write_plan = plan
        return tuple(
            int(const + sum(c * point[k] for k, c in terms))
            for const, terms in plan
        )

    def __repr__(self) -> str:
        iters = ", ".join(
            f"{n}<{e}" for n, e in zip(self.iter_names, self.iter_extents)
        )
        return f"{self.stmt_id}[{iters}]: {self.write!r} {self.kind}"


class LoweredKernel:
    """Result of lowering: statements plus tensor classification."""

    def __init__(
        self,
        name: str,
        inputs: List[Tensor],
        outputs: List[Tensor],
        statements: List[PolyStatement],
        sym_dims: Optional[Dict[str, int]] = None,
    ):
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.statements = statements
        # symbolic dim name -> declared inclusive maximum, over the whole
        # kernel.  Empty for fully concrete kernels.
        self.sym_dims: Dict[str, int] = sym_dims or {}
        # Set by the frontend once the parametric legality proof passes;
        # False means replay only accepts the full (maximum) shapes.
        self.shape_generic: bool = False

    def __repr__(self) -> str:
        return f"LoweredKernel({self.name}, {len(self.statements)} stmts)"


# -- affine index conversion ---------------------------------------------------


def expr_to_affine(
    expr: Expr, var_names: Dict[int, str]
) -> Optional[AffineExpr]:
    """Convert an index expression to affine form, or ``None`` if non-affine."""
    if isinstance(expr, IntImm):
        return AffineExpr.constant(expr.value)
    if isinstance(expr, IterVar):
        name = var_names.get(id(expr))
        if name is None:
            return None  # Iterator from another statement - not ours.
        return AffineExpr.variable(name)
    if isinstance(expr, BinaryOp):
        a = expr_to_affine(expr.a, var_names)
        b = expr_to_affine(expr.b, var_names)
        if a is None or b is None:
            return None
        if expr.op == "add":
            return a + b
        if expr.op == "sub":
            return a - b
        if expr.op == "mul":
            if a.is_constant():
                return b * a.const
            if b.is_constant():
                return a * b.const
            return None
        return None
    if isinstance(expr, UnaryOp) and expr.op == "neg":
        a = expr_to_affine(expr.a, var_names)
        return None if a is None else -a
    return None


# -- inlining (preparation step) ------------------------------------------------


def inline_trivial(outputs: Sequence[Tensor]) -> Sequence[Tensor]:
    """Placeholder for the DSL-level inlining pass.

    AKG inlines injective single-consumer producers before entering the
    polyhedral representation.  In this reproduction the fusion engine
    handles producer groups directly, so lowering keeps every compute as a
    distinct statement; this hook exists so the pass ordering of Fig. 2 is
    visible in the code base.
    """
    return outputs


# -- main lowering entry point ---------------------------------------------------


def lower(
    outputs: Sequence[Tensor] | Tensor, name: str = "kernel"
) -> LoweredKernel:
    """Lower output tensors (and their producers) to polyhedral statements."""
    if isinstance(outputs, Tensor):
        outputs = [outputs]
    outputs = list(inline_trivial(outputs))

    # Topological order over all reachable tensors.
    order: List[Tensor] = []
    seen = set()
    for out in outputs:
        for t in out.ancestors():
            if id(t) not in seen:
                seen.add(id(t))
                order.append(t)

    inputs = [t for t in order if t.is_placeholder]
    computed = [t for t in order if not t.is_placeholder]

    # Aggregate the symbolic dims of the whole graph; one name must mean
    # one bound everywhere, or binding at replay would be ambiguous.
    sym_dims: Dict[str, int] = {}
    for t in order:
        for dim in getattr(t, "sym_axes", {}).values():
            known = sym_dims.get(dim.name)
            if known is not None and known != dim.max:
                raise ValueError(
                    f"symbolic dim {dim.name!r} declared with max {known} "
                    f"and max {dim.max} in the same kernel"
                )
            sym_dims[dim.name] = dim.max

    statements: List[PolyStatement] = []
    sid_counter = itertools.count()
    used_names: set = set()

    for tensor in computed:
        op = tensor.op
        body = op.body
        is_reduce = isinstance(body, Reduce)

        # Canonical, globally unique dim names for this statement group.
        def unique(name: str) -> str:
            candidate = name
            k = 0
            while candidate in used_names:
                k += 1
                candidate = sys.intern(f"{name}_{k}")
            used_names.add(candidate)
            return candidate

        data_extents = [axis.extent for axis in op.axes]

        def fresh_statement_names(axes) -> Tuple[Dict[int, str], List[str]]:
            """Per-statement globally-unique dim names for the given axes."""
            mapping: Dict[int, str] = {}
            names: List[str] = []
            for axis in axes:
                n = unique(axis.name)
                mapping[id(axis)] = n
                names.append(n)
            return mapping, names

        def sym_of(axes, names) -> Dict[str, str]:
            return {
                n: axis.sym
                for axis, n in zip(axes, names)
                if getattr(axis, "sym", None)
            }

        if is_reduce:
            init_names_map, init_data_names = fresh_statement_names(op.axes)
            init_id = f"S{next(sid_counter)}"
            init_stmt = PolyStatement(
                stmt_id=init_id,
                tensor=tensor,
                iter_names=list(init_data_names),
                iter_extents=list(data_extents),
                data_rank=len(init_data_names),
                write=TensorAccess(
                    tensor, [AffineExpr.variable(n) for n in init_data_names]
                ),
                reads=[],
                expr=body.init_value,
                kind="init",
                var_names=init_names_map,
                sym_extents=sym_of(op.axes, init_data_names),
            )
            statements.append(init_stmt)

            upd_names_map, upd_data_names = fresh_statement_names(op.axes)
            red_names_map, red_names = fresh_statement_names(body.axes)
            upd_names_map.update(red_names_map)
            red_extents = [axis.extent for axis in body.axes]
            write_indices = [AffineExpr.variable(n) for n in upd_data_names]
            upd_id = f"S{next(sid_counter)}"
            reads = _reads_of(body.value, upd_names_map)
            # The update also reads its own output element (accumulation).
            self_read = TensorAccess(tensor, list(write_indices))
            upd_stmt = PolyStatement(
                stmt_id=upd_id,
                tensor=tensor,
                iter_names=list(upd_data_names) + red_names,
                iter_extents=list(data_extents) + red_extents,
                data_rank=len(upd_data_names),
                write=TensorAccess(tensor, list(write_indices)),
                reads=[self_read] + reads,
                expr=body.value,
                kind="reduce",
                reduce_op=body.op,
                var_names=upd_names_map,
                sym_extents=sym_of(op.axes, upd_data_names),
            )
            statements.append(upd_stmt)
        else:
            var_names, data_names = fresh_statement_names(op.axes)
            sid = f"S{next(sid_counter)}"
            reads = _reads_of(body, var_names)
            statements.append(
                PolyStatement(
                    stmt_id=sid,
                    tensor=tensor,
                    iter_names=list(data_names),
                    iter_extents=list(data_extents),
                    data_rank=len(data_names),
                    write=TensorAccess(
                        tensor, [AffineExpr.variable(n) for n in data_names]
                    ),
                    reads=reads,
                    expr=body,
                    kind="compute",
                    var_names=var_names,
                    sym_extents=sym_of(op.axes, data_names),
                )
            )

    return LoweredKernel(name, inputs, list(outputs), statements, sym_dims=sym_dims)


def _reads_of(expr: Expr, var_names: Dict[int, str]) -> List[TensorAccess]:
    """Extract all tensor reads of ``expr`` as accesses."""
    reads: List[TensorAccess] = []
    for ref in collect_reads(expr):
        indices: Optional[List[AffineExpr]] = []
        for idx in ref.indices:
            a = expr_to_affine(idx, var_names)
            if a is None:
                indices = None
                break
            indices.append(a)
        reads.append(TensorAccess(ref.tensor, indices))
    return reads
