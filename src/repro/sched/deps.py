"""Dependence analysis over polyhedral statements.

For every pair of accesses to the same tensor (at least one being a write)
we build the dependence relation as a :class:`~repro.poly.maps.BasicMap`
from source instances to destination instances:

    { S_src(i) -> S_dst(i') :  Acc_src(i) = Acc_dst(i')
                               and both in their domains
                               and S_src(i) executes before S_dst(i') }

For distinct statements, textual order provides "executes before"; for
self-dependences (reduction updates) the lexicographic order is encoded as
a union of per-level relations.  Dependences drive the Pluto scheduler,
legality checking, fusion clustering and the reverse tiling strategy.

Each system is posed once per compile.  :func:`compute_dependences`
decides a relation's emptiness on an :class:`~repro.poly.ilp.IlpProblem`,
and the :class:`Dependence` it creates owns that problem
(:attr:`Dependence.problem`).  Every later question about the relation
goes to it: the distance bounds (asked once each, and read by
``distance_vector``, ``is_uniform``, clustering and the scheduler's
identity rows), the data-dim bounds of statements of unequal rank and the
scheduler's Pluto rows.  The problem's rank space, presolve, folds and
feasibility witness are therefore computed once for all of them.  Access
pairs of the same two statements with equal index lists share their
problems, and with each problem the dict of distance bounds asked of it:
those dependences have the same statements and ``rename``, hence the same
deltas, so whichever asks first answers for all.  The dict is handed out
beside the problem, not kept on it (an ``IlpProblem`` knows nothing of
dependences), and no pickle holds it.  The verifier
(:mod:`repro.verify.schedule`) computes its own dependences and poses its
own systems.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.context import COUNTERS, LOCK
from repro.ir.lower import LoweredKernel, PolyStatement, TensorAccess
from repro.poly.affine import AffineExpr, Constraint
from repro.poly.ilp import IlpProblem, IlpStatus
from repro.poly.maps import BasicMap
from repro.poly.sets import Space


class Dependence:
    """One dependence edge between two statements.

    Six fields are its state, and a pickle holds exactly those.  Beside
    them it keeps a memo that is never pickled: the
    :class:`~repro.poly.ilp.IlpProblem` its relation's emptiness was
    decided on, which every later question about the relation is posed to
    (distances, clustering's data-dim bounds, the scheduler's band rows),
    and the distance bounds asked of that problem, shared with every
    dependence that shares it.  An unpickled dependence poses a problem
    and keeps bounds of its own on first use.  Two threads first asking
    may each pose a problem or a bound; the answers are equal, each store
    is one assignment of a final value, and either is kept.
    """

    __slots__ = ("src", "dst", "relation", "kind", "tensor_name", "rename",
                 "_problem", "_asked")

    def __init__(
        self,
        src: PolyStatement,
        dst: PolyStatement,
        relation: BasicMap,
        kind: str,
        tensor_name: str,
        rename: Dict[str, str],
        problem: IlpProblem,
        asked: Dict[Tuple[int, bool], Optional[int]],
    ):
        if kind not in ("flow", "anti", "output"):
            raise ValueError(f"bad dependence kind {kind!r}")
        self.src = src
        self.dst = dst
        self.relation = relation  # src dims -> renamed dst dims
        self.kind = kind
        self.tensor_name = tensor_name
        # Mapping from dst statement dim names to the renamed (primed)
        # names used on the relation's output side.
        self.rename = rename
        self._problem = problem
        self._asked = asked

    def __getstate__(self):
        # The six fields, as the default state of a slotted object lists
        # them: the memo never reaches a pickle.
        state = {
            "src": self.src,
            "dst": self.dst,
            "relation": self.relation,
            "kind": self.kind,
            "tensor_name": self.tensor_name,
            "rename": self.rename,
        }
        return None, state

    @property
    def problem(self) -> IlpProblem:
        """The problem every question about :attr:`relation` is posed to:
        ranked, presolved and folded once for all of them.  The
        dependences of equal access pairs share one (see
        :func:`compute_dependences`)."""
        try:
            return self._problem
        except AttributeError:
            self._problem = problem = IlpProblem(self.relation.constraints)
            return problem

    @property
    def is_self(self) -> bool:
        """True for a dependence of a statement on itself."""
        return self.src is self.dst

    def distance_bound(self, pos: int, upper: bool = False) -> Optional[int]:
        """The minimum (``upper``: maximum) of ``dst_dim - src_dim`` at
        aligned position ``pos`` over the relation, ``None`` when unbounded,
        posed once.  The scheduler's identity band rows ask these: an
        identity row's delta is the distance at its position."""
        asked = self._answers()
        key = (pos, upper)
        if key in asked:
            return asked[key]
        delta = self._delta(pos)
        # ``minimize``, as the scheduler always posed these: its misses
        # pass the ``ilp.solve`` fault site.
        result = self.problem.minimize(delta * -1 if upper else delta, integer=True)
        bound = None
        if result.status is IlpStatus.OPTIMAL:
            bound = int(-result.value if upper else result.value)
        asked[key] = bound  # one store: a reader never sees a half answer
        return bound

    def distance_bounds(self) -> Optional[Tuple[Bound, ...]]:
        """``(min, max)`` of ``dst_dim - src_dim`` per aligned dimension
        (``None`` for an unbounded side); ``None`` when the statements
        have different dimensionality.  The first call that finds a bound
        not yet asked poses all of them in one batch, and later calls pose
        nothing."""
        n = len(self.src.iter_names)
        if n != len(self.dst.iter_names):
            return None
        asked = self._answers()
        if len(asked) < 2 * n:
            bounds = _expr_bounds(self.problem, [self._delta(p) for p in range(n)])
            for p, (lo, hi) in enumerate(bounds):
                asked[p, False] = lo
                asked[p, True] = hi
        return tuple([(asked[p, False], asked[p, True]) for p in range(n)])

    def _answers(self) -> Dict[Tuple[int, bool], Optional[int]]:
        """The distance bounds asked of :attr:`problem` so far, by
        ``(position, upper)``."""
        try:
            return self._asked
        except AttributeError:
            self._asked = asked = {}
            return asked

    def _delta(self, pos: int) -> AffineExpr:
        """``dst_dim - src_dim`` at aligned position ``pos``."""
        dst_dim = self.rename[self.dst.iter_names[pos]]
        return AffineExpr.variable(dst_dim) - AffineExpr.variable(self.src.iter_names[pos])

    def distance_vector(self) -> Optional[List[Optional[int]]]:
        """Per-dimension constant distance when src/dst dims align.

        Returns one entry per common dimension position: the constant
        ``dst_dim - src_dim`` when it is constant over the relation, else
        ``None`` for that entry.  Returns ``None`` entirely when the
        statements have different dimensionality.

        A ``None`` *entry* means the distance on that dimension is
        unbounded or varies — callers deciding fusability/tilability must
        use :attr:`is_uniform` rather than truthy-testing the vector (a
        list of ``None`` entries is still truthy).
        """
        bounds = self.distance_bounds()
        if bounds is None:
            return None
        return [lo if (lo is not None and lo == hi) else None for lo, hi in bounds]

    @property
    def is_uniform(self) -> bool:
        """True when every aligned dimension has a constant distance.

        This is the explicit test the clustering/tiling layers need:
        ``distance_vector()`` returning a list is *not* enough (entries
        may be ``None`` for unbounded dims, and a list of ``None``s is
        truthy), and a ``None`` return (rank mismatch) must also read as
        non-uniform.
        """
        vec = self.distance_vector()
        return vec is not None and all(d is not None for d in vec)

    def __repr__(self) -> str:
        return (
            f"Dep({self.kind}: {self.src.stmt_id} -> {self.dst.stmt_id} "
            f"on {self.tensor_name})"
        )


#: ``(min, max)`` of an expression; ``None`` for an unbounded side.
Bound = Tuple[Optional[int], Optional[int]]


def _expr_bounds(problem: IlpProblem, exprs: Sequence[AffineExpr]) -> List[Bound]:
    """(min, max) of each expression over ``problem``'s system, batched.

    All 2·n objectives share the problem's presolve via
    :meth:`~repro.poly.ilp.IlpProblem.batch_minimize`.  The cache keys
    match the ones ``minimize(e)`` / ``maximize(e)`` would use, so mixed
    batched/unbatched callers share solver-cache entries.
    """
    objectives: List[AffineExpr] = []
    for e in exprs:
        objectives.append(e)
        objectives.append(e * -1)  # maximize(e) == -minimize(-e)
    results = problem.batch_minimize(objectives, integer=True)
    bounds: List[Bound] = []
    for k in range(len(exprs)):
        lo_res, neg_hi_res = results[2 * k], results[2 * k + 1]
        lo = int(lo_res.value) if lo_res.status is IlpStatus.OPTIMAL else None
        hi = (
            int(-neg_hi_res.value)
            if neg_hi_res.status is IlpStatus.OPTIMAL
            else None
        )
        bounds.append((lo, hi))
    return bounds


# -- bounding-box pruning ------------------------------------------------------
#
# Before posing an exact ILP emptiness test for an access pair, compare the
# per-dimension interval footprints of the two accesses.  Statement domains
# here are rectangular (every iterator ranges over [0, extent-1]), so the
# min/max of an affine index expression over the domain is closed-form from
# the coefficient signs — no solver involved.  The interval hull is a
# superset of each access's true image; disjoint hulls on any tensor
# dimension therefore *prove* the access-equality system empty, and the
# pair can be skipped.  Overlapping hulls prove nothing and fall through to
# the exact test, so pruning never changes the computed dependence set
# (the regression tests assert pruned == unpruned on every example kernel).

# The pre-check counts ``deps.pairs_checked`` and ``deps.pairs_pruned``.


def _access_box(
    stmt: PolyStatement, acc: TensorAccess
) -> Optional[List[Tuple[int, int]]]:
    """Interval hull of the access image over the statement's domain.

    One (lo, hi) pair per tensor dimension, each
    :meth:`~repro.ir.lower.PolyStatement.box_bounds`; ``None`` for
    non-affine accesses (which conservatively cover the whole tensor) and
    for an index with no closed-form hull.
    """
    if acc.indices is None:
        return None
    box: List[Tuple[int, int]] = []
    for idx in acc.indices:
        bounds = stmt.box_bounds(idx)
        if bounds is None:
            return None
        box.append(bounds)
    return box


def _boxes_disjoint(
    box_a: Optional[List[Tuple[int, int]]],
    box_b: Optional[List[Tuple[int, int]]],
) -> bool:
    """True when the hulls cannot intersect on some tensor dimension."""
    if box_a is None or box_b is None:
        return False
    for (lo_a, hi_a), (lo_b, hi_b) in zip(box_a, box_b):
        if hi_a < lo_b or hi_b < lo_a:
            return True
    return False


def _injective_self_pair(
    stmt: PolyStatement, src_acc: TensorAccess, dst_acc: TensorAccess
) -> bool:
    """True when an access pair of one statement can only meet on one
    instance: the two index lists are equal and their linear part has a
    trivial kernel over the iteration dims (exact rational rank = number of
    dims).  ``f(x) = f(x')`` then forces ``x' = x``, so no level of the
    lexicographic order relates two instances and the per-level emptiness
    tests are all empty."""
    if src_acc.indices is None or src_acc.indices != dst_acc.indices:
        return False
    dims = stmt.iter_names
    rows = []
    for index in src_acc.indices:
        coeffs = index.coeffs
        rows.append([coeffs.get(d, 0) for d in dims])
    rank = 0
    for col in range(len(dims)):
        for pivot in range(rank, len(rows)):
            if rows[pivot][col]:
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        # Fraction-free elimination: cross-multiplying keeps the rank exact.
        for r in range(rank + 1, len(rows)):
            a = rows[r][col]
            if a:
                rows[r] = [x * lead[col] - a * y for x, y in zip(rows[r], lead)]
        rank += 1
    return rank == len(dims)


def _access_equal_constraints(
    src_acc: TensorAccess,
    dst_acc: TensorAccess,
    rename: Dict[str, str],
) -> Optional[List[Constraint]]:
    """Constraints equating the two access functions (dst dims renamed).

    Returns ``None`` when either access is non-affine: the callers then
    conservatively assume a dependence between all instance pairs.
    """
    if src_acc.indices is None or dst_acc.indices is None:
        return None
    cons = []
    for s_idx, d_idx in zip(src_acc.indices, dst_acc.indices):
        cons.append(Constraint.eq(s_idx, d_idx.rename(rename)))
    return cons


#: The dependence relations of one access pair, each beside the problem
#: its emptiness was decided on, the distance bounds asked of it and its
#: level: ``None`` for a pair of two statements, the lexicographic level
#: of a self pair.
Answers = List[Tuple[BasicMap, IlpProblem, Dict, Optional[int]]]


def _dependence_relations(
    src: PolyStatement,
    dst: PolyStatement,
    src_acc: TensorAccess,
    dst_acc: TensorAccess,
    prune: bool = True,
    answers: Optional[Answers] = None,
) -> Tuple[Answers, Dict[str, str]]:
    """All dependence relations from ``src_acc`` to ``dst_acc`` instances.

    With ``prune=True`` (the default) access pairs whose interval hulls
    are provably disjoint, and self pairs of one injective access
    (:func:`_injective_self_pair`), are rejected before any ILP emptiness
    test; ``prune=False`` forces the exact path (used by the equivalence
    regression tests and available for debugging).

    ``answers`` is what this function returned for an access pair of the
    same statements with equal index lists: the relations are built as
    always, at the levels it found, beside its problems, and no emptiness
    test is posed.
    """
    # Interned, as every dimension name is where it is minted (see
    # ``IterVar``): equal names must be one object for pickles to be pure.
    rename = {d: sys.intern(f"{d}__dst") for d in dst.iter_names}
    dst_space = Space(
        sys.intern(dst.stmt_id + "'"), [rename[d] for d in dst.iter_names]
    )

    if prune and answers is None:
        with LOCK:
            COUNTERS["deps.pairs_checked"] += 1
        if (src is dst and _injective_self_pair(src, src_acc, dst_acc)) or (
            _boxes_disjoint(_access_box(src, src_acc), _access_box(dst, dst_acc))
        ):
            with LOCK:
                COUNTERS["deps.pairs_pruned"] += 1
            return [], rename
    if answers is not None and not answers:
        return [], rename  # an equal pair holds no dependence

    base_cons: List[Constraint] = []
    base_cons.extend(src.domain().constraints)
    base_cons.extend(c.rename(rename) for c in dst.domain().constraints)
    eq = _access_equal_constraints(src_acc, dst_acc, rename)
    if eq is not None:
        base_cons.extend(eq)

    if answers is not None:
        levels = [level for _, _, _, level in answers]
    elif src is dst:
        # Self-dependence: src lexicographically before dst, per level.
        levels = range(len(src.iter_names))
    else:
        levels = [None]
    posed: Answers = []
    for k, level in enumerate(levels):
        cons = base_cons
        if level is not None:
            cons = list(base_cons)
            for d in src.iter_names[:level]:
                cons.append(
                    Constraint.eq(AffineExpr.variable(d), AffineExpr.variable(rename[d]))
                )
            lead = src.iter_names[level]
            cons.append(
                Constraint.ge(
                    AffineExpr.variable(rename[lead]) - AffineExpr.variable(lead), 1
                )
            )
        relation = BasicMap(src.space, dst_space, cons)
        if answers is None:
            problem = IlpProblem(relation.constraints)
            if not problem.is_feasible():
                continue
            asked: Dict = {}
        else:
            _, problem, asked, _ = answers[k]
        posed.append((relation, problem, asked, level))
    return posed, rename


def compute_dependences(
    kernel: LoweredKernel, prune: bool = True
) -> List[Dependence]:
    """All flow, anti and output dependences of a lowered kernel.

    Each dependence owns the problem its emptiness was decided on, and
    every later question about its relation goes to that problem.

    ``prune`` (the default) runs the bounding-box and injective-self-pair
    pre-checks.  It also lets an access pair take the answers and share the
    problems of an earlier pair with the same two statements and equal
    index lists.  A reduction's write/write, write/read and read/write
    pairs on its output are such a set, as is one tensor read twice alike.
    ``prune=False`` is the exhaustive oracle.  It poses an emptiness test
    for every pair, and for every level of a self pair, each on a fresh
    problem.  The result is identical either way: the regression tests
    assert it.
    """
    deps: List[Dependence] = []
    statements = kernel.statements
    order = {s.stmt_id: i for i, s in enumerate(statements)}

    # Group accesses per tensor.
    accesses: Dict[str, List[Tuple[PolyStatement, TensorAccess, bool]]] = {}
    for stmt in statements:
        accesses.setdefault(stmt.tensor.name, []).append((stmt, stmt.write, True))
        for read in stmt.reads:
            accesses.setdefault(read.tensor.name, []).append((stmt, read, False))

    # (src, dst) -> [(src indices, dst indices, what that pair was answered)]
    answered: Dict[Tuple[str, str], List[Tuple]] = {}
    for tensor_name, acc_list in accesses.items():
        for i, (s_a, acc_a, w_a) in enumerate(acc_list):
            for j, (s_b, acc_b, w_b) in enumerate(acc_list):
                if not (w_a or w_b):
                    continue  # read-read is not a dependence
                same_stmt = s_a is s_b
                if not same_stmt and order[s_a.stmt_id] >= order[s_b.stmt_id]:
                    continue  # textual order: only a -> b with a before b
                # Self pairs: both orientations are distinct dependences
                # (the lex-order constraint in the relation orients them),
                # but the diagonal (i == j) need only be visited once --
                # the loop naturally hits it exactly once.
                answers = None
                if prune:
                    seen = answered.setdefault((s_a.stmt_id, s_b.stmt_id), [])
                    for indices_a, indices_b, found in seen:
                        if indices_a == acc_a.indices and indices_b == acc_b.indices:
                            answers = found
                            break
                posed, rename = _dependence_relations(
                    s_a, s_b, acc_a, acc_b, prune, answers
                )
                if prune and answers is None:
                    seen.append((acc_a.indices, acc_b.indices, posed))
                if w_a and w_b:
                    kind = "output"
                elif w_a:
                    kind = "flow"
                else:
                    kind = "anti"
                for rel, problem, asked, _ in posed:
                    deps.append(
                        Dependence(
                            s_a, s_b, rel, kind, tensor_name, rename, problem, asked
                        )
                    )
    return deps


# -- parametric (shape-generic) legality ---------------------------------------
#
# A kernel whose leading dims are symbolic compiles once at the declared
# maximum and replays at any bound value b <= max by clamping tile boxes.
# That is only sound when no instance at batch index >= b influences an
# instance at batch index < b.  Two complementary checks establish this:
#
# 1. a *structural* gate: every access to a symbolic tensor axis uses
#    exactly the statement's matching symbolic iterator (coefficient 1,
#    offset 0), and symbolic iterators never leak into other subscripts.
#    This guarantees the replay-time masking semantics — instances with
#    batch index >= b read and write only data the clamp also removed;
#
# 2. a *parametric dependence proof*: for every dependence-inducing
#    access pair, the batch distance delta = b_dst - b_src is projected
#    out of the parametric system (domains bounded by a free parameter N
#    with 1 <= N <= max) via Fourier-Motzkin.  Legality requires the
#    projection to be infeasible or to force delta = 0 for every value of
#    N — the FM elimination of N *is* the proof over all batch sizes.
#
# Either check failing is not an error: the frontend concretizes at the
# declared maximum (recorded as a "concretized" resilience event) and the
# program simply refuses bindings below the maximum.


def _parametric_domain(
    stmt: PolyStatement, rename: Optional[Dict[str, str]] = None
) -> List[Constraint]:
    """Domain constraints with symbolic extents replaced by a parameter.

    Concrete dims keep ``0 <= i <= extent-1``; a dim bound to symbolic
    dim ``s`` gets ``0 <= i <= __sym_s - 1`` with ``__sym_s`` free.
    """
    cons: List[Constraint] = []
    for n, extent in zip(stmt.iter_names, stmt.iter_extents):
        v = AffineExpr.variable(rename[n] if rename else n)
        cons.append(Constraint.ge(v, 0))
        sym = stmt.sym_extents.get(n)
        if sym is None:
            cons.append(Constraint.le(v, extent - 1))
        else:
            cons.append(Constraint.le(v, AffineExpr.variable(f"__sym_{sym}") - 1))
    return cons


def _structural_batch_violation(kernel: LoweredKernel) -> Optional[str]:
    """First structural-gate violation, or ``None`` when the gate holds."""
    for stmt in kernel.statements:
        stmt_syms = stmt.sym_extents
        for n in stmt.reduce_iters:
            if n in stmt_syms:
                return f"{stmt.stmt_id}: symbolic reduction dim {n!r}"
        for acc in [stmt.write] + list(stmt.reads):
            sym_axes = getattr(acc.tensor, "sym_axes", {})
            if acc.indices is None:
                if sym_axes or stmt_syms:
                    return (
                        f"{stmt.stmt_id}: non-affine access to "
                        f"{acc.tensor.name} in a symbolic context"
                    )
                continue
            for p, idx in enumerate(acc.indices):
                dim = sym_axes.get(p)
                if dim is not None:
                    vars_ = idx.variables()
                    ok = (
                        len(vars_) == 1
                        and idx.const == 0
                        and idx.coeff(vars_[0]) == 1
                        and stmt_syms.get(vars_[0]) == dim.name
                    )
                    if not ok:
                        return (
                            f"{stmt.stmt_id}: {acc.tensor.name} axis {p} "
                            f"(symbolic {dim.name!r}) indexed by {idx!r}, "
                            f"not the matching symbolic iterator"
                        )
                else:
                    for v in idx.variables():
                        if v in stmt_syms:
                            return (
                                f"{stmt.stmt_id}: symbolic iterator {v!r} "
                                f"indexes concrete axis {p} of "
                                f"{acc.tensor.name}"
                            )
    return None


def check_parametric_batch_legality(kernel: LoweredKernel) -> Optional[str]:
    """Prove replay-clamping legal for every binding of the symbolic dims.

    Returns ``None`` on success, else a human-readable reason the proof
    failed (the caller then concretizes at the declared maximum).  May
    raise :class:`~repro.core.errors.SolverBudgetError` if the FM system
    explodes; callers treat that exactly like a failed proof.
    """
    from repro.poly.fm import interval_of

    sym_dims = getattr(kernel, "sym_dims", {})
    if not sym_dims:
        return None
    reason = _structural_batch_violation(kernel)
    if reason is not None:
        return reason

    statements = kernel.statements
    order = {s.stmt_id: i for i, s in enumerate(statements)}
    accesses: Dict[str, List[Tuple[PolyStatement, TensorAccess, bool]]] = {}
    for stmt in statements:
        accesses.setdefault(stmt.tensor.name, []).append((stmt, stmt.write, True))
        for read in stmt.reads:
            accesses.setdefault(read.tensor.name, []).append((stmt, read, False))

    for tensor_name, acc_list in accesses.items():
        for s_a, acc_a, w_a in acc_list:
            for s_b, acc_b, w_b in acc_list:
                if not (w_a or w_b):
                    continue
                if s_a is not s_b and order[s_a.stmt_id] >= order[s_b.stmt_id]:
                    continue
                shared = sorted(
                    set(s_a.sym_extents.values()) & set(s_b.sym_extents.values())
                )
                if not shared:
                    continue
                rename = {d: f"{d}__dst" for d in s_b.iter_names}
                eq = _access_equal_constraints(acc_a, acc_b, rename)
                if eq is None:
                    return (
                        f"non-affine access pair on {tensor_name} "
                        f"({s_a.stmt_id} -> {s_b.stmt_id})"
                    )
                base: List[Constraint] = []
                base.extend(_parametric_domain(s_a))
                base.extend(_parametric_domain(s_b, rename))
                base.extend(eq)
                for s in set(s_a.sym_extents.values()) | set(
                    s_b.sym_extents.values()
                ):
                    param = AffineExpr.variable(f"__sym_{s}")
                    base.append(Constraint.ge(param, 1))
                    base.append(Constraint.le(param, sym_dims[s]))
                src_iter = {v: k for k, v in s_a.sym_extents.items()}
                dst_iter = {v: k for k, v in s_b.sym_extents.items()}
                for s in shared:
                    cons = list(base)
                    cons.append(
                        Constraint.eq(
                            AffineExpr.variable("__delta__"),
                            AffineExpr.variable(rename[dst_iter[s]])
                            - AffineExpr.variable(src_iter[s]),
                        )
                    )
                    interval = interval_of(cons, "__delta__")
                    if interval is None:
                        continue  # no dependence at any batch size
                    lo, hi = interval
                    if lo is not None and hi is not None and lo >= 0 and hi <= 0:
                        continue  # delta forced to 0 for every N
                    return (
                        f"dependence on {tensor_name} "
                        f"({s_a.stmt_id} -> {s_b.stmt_id}) crosses symbolic "
                        f"dim {s!r}: distance in [{lo}, {hi}]"
                    )
    return None
