"""Dependence analysis over polyhedral statements.

For every pair of accesses to the same tensor (at least one being a write)
the dependence relation is a :class:`~repro.poly.maps.BasicMap` from
source instances to destination instances:

    { S_src(i) -> S_dst(i') :  Acc_src(i) = Acc_dst(i')
                               and both in their domains
                               and S_src(i) executes before S_dst(i') }

For distinct statements, textual order provides "executes before"; for
self-dependences (reduction updates) the lexicographic order is encoded as
a union of per-level relations.  Dependences drive the Pluto scheduler,
legality checking, fusion clustering and the reverse tiling strategy.

**Separable access pairs are answered in closed form.**  A pair is
separable when every subscript of both accesses is a constant or
``dim + const``: the ZIV and strong-SIV subscripts of Goff, Kennedy and
Tseng, *Practical Dependence Testing* (PLDI 1991).  Its system is the box
of each domain, equalities ``y = x + c`` or ``x = c`` from the subscripts,
a self pair's lexicographic equalities ``y_d = x_d`` and at most one strict
``y_L >= x_L + 1``.  The equalities split the variables into classes, each
a root plus per-member offsets whose root ranges over one integer interval
(:class:`_ClosedForm`); only the strict inequality couples two classes.
Emptiness at every level, the bounds of any ``dst_dim - src_dim`` and
whether a source dim is a function of the destination instance are read
off those intervals, exactly over the integers, without a solver.  A
*coupled* pair -- a subscript over two dims or with a coefficient other
than 1, or a non-affine access -- is decided by the ILP, after the
bounding-box pre-check.

**Relations and problems are built when asked.**  A dependence builds its
relation on first use of :attr:`Dependence.relation`, and the
:class:`~repro.poly.ilp.IlpProblem` every solver question about it goes to
on first use of :attr:`Dependence.problem`.  On the default compile path
the Pluto rows of a band row the identity fails, the reverse tiling
strategy and the verifier ask; distances, clustering and identity rows do
not.  Access pairs of the same two statements with equal index lists share
one system per level (:class:`_System`): its closed form, its problem and
the distance bounds asked of it.  Those dependences have the same
statements and ``rename``, hence the same deltas, so whichever asks first
answers for all.  The system is handed out beside the dependences, not
kept on the problem (an ``IlpProblem`` knows nothing of dependences), and
no pickle holds it.  ``compute_dependences(prune=False)`` is the
exhaustive ILP oracle the closed form is held to.  The verifier
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

#: ``(min, max)`` of an expression; ``None`` for an unbounded side.
Bound = Tuple[Optional[int], Optional[int]]

#: The node a constant subscript is tied to: its value is 0.
_ZERO = ""


class _ClosedForm:
    """A separable system, solved: every node (a source dim, a renamed
    destination dim, :data:`_ZERO`) is its class's root plus an offset,
    ``where[node] = (root, offset)``; ``members`` lists each root's class
    and ``box[root]`` the integer interval the root ranges over, the
    members' boxes shifted onto it and intersected.  ``lead`` is a self
    pair's ``(x_L, y_L)``, the one inequality ``y_L >= x_L + 1`` coupling
    two classes, or ``None``."""

    __slots__ = ("where", "members", "box", "lead")

    def __init__(self, where, members, box, lead=None):
        self.where = where
        self.members = members
        self.box = box
        self.lead = lead

    def copy(self) -> "_ClosedForm":
        """A copy without the lead, whose joins leave this form as it is."""
        return _ClosedForm(dict(self.where), dict(self.members), dict(self.box))

    def join(self, a: str, b: str, offset: int) -> bool:
        """Add ``a = b + offset``; ``False`` when that empties the system."""
        ra, oa = self.where[a]
        rb, ob = self.where[b]
        shift = ob + offset - oa  # root a = root b + shift
        if ra == rb:
            return shift == 0
        where = self.where
        for m in self.members[ra]:
            where[m] = (rb, where[m][1] + shift)
        self.members[rb] = self.members[rb] + self.members.pop(ra)
        lo_a, hi_a = self.box.pop(ra)
        lo_b, hi_b = self.box[rb]
        lo, hi = max(lo_b, lo_a - shift), min(hi_b, hi_a - shift)
        self.box[rb] = (lo, hi)
        return lo <= hi

    def _coupling(self) -> Optional[Tuple[str, str, int]]:
        """``(root x, root y, k)`` with ``root y - root x >= k`` when the
        lead couples two classes, else ``None``."""
        if self.lead is None:
            return None
        rx, ox = self.where[self.lead[0]]
        ry, oy = self.where[self.lead[1]]
        if rx == ry:
            return None
        return rx, ry, 1 + ox - oy

    def is_empty(self) -> bool:
        """Whether the lead's strict inequality has no point (the joins
        already kept every interval non-empty)."""
        if self.lead is None:
            return False
        rx, ox = self.where[self.lead[0]]
        ry, oy = self.where[self.lead[1]]
        if rx == ry:
            return oy - ox < 1
        return self.box[ry][1] + oy - self.box[rx][0] - ox < 1

    def _interval(self, root: str, coupling) -> Tuple[int, int]:
        """The values ``root`` takes over the system: its box, cut by the
        lead where it couples ``root``'s class."""
        lo, hi = self.box[root]
        if coupling is not None:
            rx, ry, k = coupling
            if root == rx:
                hi = min(hi, self.box[ry][1] - k)
            elif root == ry:
                lo = max(lo, self.box[rx][0] + k)
        return lo, hi

    def distance(self, u: str, v: str) -> Tuple[int, int]:
        """``(min, max)`` of ``u - v`` over the (non-empty) system."""
        ru, ou = self.where[u]
        rv, ov = self.where[v]
        c = ou - ov
        if ru == rv:
            return c, c
        coupling = self._coupling()
        if coupling is not None and {ru, rv} == {coupling[0], coupling[1]}:
            rx, ry, k = coupling
            # root y - root x over the two boxes and the lead.
            lo = max(k, self.box[ry][0] - self.box[rx][1])
            hi = self.box[ry][1] - self.box[rx][0]
            return (lo + c, hi + c) if ru == ry else (c - hi, c - lo)
        lo_u, hi_u = self._interval(ru, coupling)
        lo_v, hi_v = self._interval(rv, coupling)
        return lo_u - hi_v + c, hi_u - lo_v + c

    def determined(self, v: str, dst_nodes) -> bool:
        """Whether ``v`` takes one value once every node of ``dst_nodes``
        is fixed: its class holds one of them, or its interval one value."""
        root = self.where[v][0]
        if not dst_nodes.isdisjoint(self.members[root]):
            return True
        lo, hi = self._interval(root, self._coupling())
        return lo == hi


def _unit_term(expr: AffineExpr, dims, rename=None) -> Optional[Tuple[str, int]]:
    """``(node, const)`` of a subscript ``dim + const`` (``node`` the dim,
    renamed by ``rename``) or of a constant (``node`` :data:`_ZERO`);
    ``None`` for any other subscript."""
    const = expr.const
    if type(const) is not int:
        return None
    coeffs = expr.coeffs
    if not coeffs:
        return _ZERO, const
    if len(coeffs) == 1:
        ((name, c),) = coeffs.items()
        if c == 1 and name in dims:
            return (rename[name] if rename else name), const
    return None


def _separable(
    src: PolyStatement,
    dst: PolyStatement,
    src_acc: TensorAccess,
    dst_acc: TensorAccess,
    levels: Sequence[Optional[int]],
    rename: Dict[str, str],
) -> Optional[List[Tuple[Optional[int], _ClosedForm]]]:
    """The closed form of a separable pair at each of ``levels`` where its
    system is non-empty; ``None`` for a coupled pair.  At a self pair's
    level ``L`` the form has ``y_d = x_d`` joined below ``L`` and
    ``y_L >= x_L + 1`` as its lead."""
    if src_acc.indices is None or dst_acc.indices is None:
        return None
    terms = []
    src_dims, dst_dims = set(src.iter_names), set(dst.iter_names)
    for s_idx, d_idx in zip(src_acc.indices, dst_acc.indices):
        s = _unit_term(s_idx, src_dims)
        d = _unit_term(d_idx, dst_dims, rename)
        if s is None or d is None:
            return None
        terms.append((s, d))
    where = {_ZERO: (_ZERO, 0)}
    members = {_ZERO: (_ZERO,)}
    box = {_ZERO: (0, 0)}
    for names, extents in (
        (src.iter_names, src.iter_extents),
        ([rename[d] for d in dst.iter_names], dst.iter_extents),
    ):
        for name, extent in zip(names, extents):
            where[name] = (name, 0)
            members[name] = (name,)
            box[name] = (0, extent - 1)
            if extent < 1:
                return []
    form = _ClosedForm(where, members, box)
    for (s, s_const), (d, d_const) in terms:
        if not form.join(d, s, s_const - d_const):
            return []
    if levels == [None]:
        return [(None, form)]
    found = []
    for level in levels:
        x = src.iter_names[level]
        at = form.copy()
        at.lead = (x, rename[x])
        if not at.is_empty():
            found.append((level, at))
        if not form.join(rename[x], x, 0):
            break  # an equal prefix is empty here, so at every deeper level
    return found


class _System:
    """One access pair's system at one level, shared by the dependences of
    every equal access pair: its closed form (``None`` for a coupled pair,
    and on the oracle path), the problem its solver questions go to, built
    when first asked, and the distance bounds asked of either, by
    ``(position, upper)``."""

    __slots__ = ("form", "problem", "asked")

    def __init__(
        self, form: Optional[_ClosedForm], problem: Optional[IlpProblem] = None
    ):
        self.form = form
        self.problem = problem
        self.asked: Dict[Tuple[int, bool], Optional[int]] = {}


class Dependence:
    """One dependence edge between two statements.

    Six fields are its state, and a pickle holds exactly those: ``src``,
    ``dst``, ``kind``, ``tensor_name``, ``rename`` and the access pair and
    self-pair level the relation is built from, on first use, in a cold
    dependence and a restored one alike: the relation never reaches a
    pickle.  Beside the fields, never pickled, is its :class:`_System`:
    the closed form that answers distances and clustering's questions of
    a separable pair, and the :class:`~repro.poly.ilp.IlpProblem` every
    solver question goes to (a coupled pair's distances, the scheduler's
    Pluto rows), posed on first use and shared, with the distance bounds
    asked, by every dependence of an equal access pair.  A restored
    dependence solves its closed form again on its first question, and
    keeps bounds of its own.  Two threads first asking may each build a
    relation, a system, a problem or a bound; the answers are equal, each
    store is one assignment of a final value, and either is kept.
    """

    __slots__ = ("src", "dst", "kind", "tensor_name", "rename",
                 "_relation", "_pair", "_system")

    def __init__(
        self,
        src: PolyStatement,
        dst: PolyStatement,
        kind: str,
        tensor_name: str,
        rename: Dict[str, str],
        system: _System,
        pair: Tuple[TensorAccess, TensorAccess, Optional[int]],
    ):
        if kind not in ("flow", "anti", "output"):
            raise ValueError(f"bad dependence kind {kind!r}")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.tensor_name = tensor_name
        # Mapping from dst statement dim names to the renamed (primed)
        # names used on the relation's output side.
        self.rename = rename
        self._system = system
        # The access pair and self-pair level the relation is built from.
        self._pair = pair

    def __getstate__(self):
        names = ("src", "dst", "kind", "tensor_name", "rename", "_pair")
        return None, {name: getattr(self, name) for name in names}

    def __setstate__(self, state):
        for name, value in state[1].items():
            setattr(self, name, value)

    def __getattr__(self, name):
        # Only an unset slot gets here.  A restored dependence's system:
        # the closed form over levels 0..level, as compute_dependences
        # solved it (the pair is non-empty above its level); none if coupled.
        if name != "_system":
            raise AttributeError(name)
        src_acc, dst_acc, level = self._pair
        levels = [None] if level is None else list(range(level + 1))
        forms = _separable(self.src, self.dst, src_acc, dst_acc, levels, self.rename)
        self._system = _System(forms[-1][1] if forms else None)
        return self._system

    @property
    def relation(self) -> BasicMap:
        """The relation from source instances to renamed destination
        instances, built on first use."""
        try:
            return self._relation
        except AttributeError:
            src_acc, dst_acc, level = self._pair
            relation = self._relation = _relations(
                self.src, self.dst, src_acc, dst_acc, [level], self.rename
            )[0]
            return relation

    @property
    def problem(self) -> IlpProblem:
        """The problem every solver question about :attr:`relation` is
        posed to: ranked, presolved and folded once for all of them, and
        built on first use.  The dependences of equal access pairs share
        one (see :func:`compute_dependences`)."""
        system = self._system
        problem = system.problem
        if problem is None:
            system.problem = problem = IlpProblem(self.relation.constraints)
        return problem

    @property
    def is_self(self) -> bool:
        """True for a dependence of a statement on itself."""
        return self.src is self.dst

    def distance_bound(self, pos: int, upper: bool = False) -> Optional[int]:
        """The minimum (``upper``: maximum) of ``dst_dim - src_dim`` at
        aligned position ``pos`` over the relation, ``None`` when unbounded,
        asked once.  The scheduler's identity band rows ask these: an
        identity row's delta is the distance at its position."""
        system = self._system
        asked = system.asked
        key = (pos, upper)
        if key in asked:
            return asked[key]
        if system.form is not None:
            bound = system.form.distance(
                self.rename[self.dst.iter_names[pos]], self.src.iter_names[pos]
            )[upper]
        else:
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
        not yet asked asks all of them, and later calls ask nothing."""
        n = len(self.src.iter_names)
        if n != len(self.dst.iter_names):
            return None
        asked = self._system.asked
        if len(asked) < 2 * n:
            bounds = self.bounds_between(self.src.iter_names, self.dst.iter_names)
            for p, (lo, hi) in enumerate(bounds):
                asked[p, False] = lo
                asked[p, True] = hi
        return tuple([(asked[p, False], asked[p, True]) for p in range(n)])

    def bounds_between(
        self, src_dims: Sequence[str], dst_dims: Sequence[str]
    ) -> List[Bound]:
        """``(min, max)`` of ``dst_dim - src_dim`` for each pair of the two
        lists, of any ranks (clustering asks the data dims): read off the
        closed form, or posed as one batch to :attr:`problem`."""
        form = self._system.form
        if form is not None:
            rename = self.rename
            return [form.distance(rename[d], s) for s, d in zip(src_dims, dst_dims)]
        deltas = [
            AffineExpr.variable(self.rename[d]) - AffineExpr.variable(s)
            for s, d in zip(src_dims, dst_dims)
        ]
        return _expr_bounds(self.problem, deltas)

    def src_dim_determined(self, s_dim: str) -> bool:
        """Is the source dim a function of the destination instance?

        Exact: with every (renamed) destination dim fixed, the source dim
        must have extent one over the relation.  Read off the closed form,
        or posed on two copies of the relation sharing the destination
        dims.
        """
        form = self._system.form
        if form is not None:
            return form.determined(s_dim, set(self.rename.values()))
        src_rename = {d: f"{d}__c" for d in self.src.iter_names}
        constraints = self.relation.constraints
        copy = [c.rename(src_rename) for c in constraints]
        problem = IlpProblem(list(constraints) + copy)
        delta = AffineExpr.variable(s_dim) - AffineExpr.variable(src_rename[s_dim])
        result = problem.maximize(delta, integer=True)
        return result.status is IlpStatus.OPTIMAL and result.value == 0

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
# Before posing an exact ILP emptiness test for a coupled access pair,
# compare the per-dimension interval footprints of the two accesses.
# Statement domains here are rectangular (every iterator ranges over
# [0, extent-1]), so the min/max of an affine index expression over the
# domain is closed-form from the coefficient signs — no solver involved.
# The interval hull is a superset of each access's true image; disjoint
# hulls on any tensor dimension therefore *prove* the access-equality
# system empty, and the pair can be skipped.  Overlapping hulls prove
# nothing and fall through to the exact test, so pruning never changes the
# computed dependence set (the regression tests assert pruned == unpruned
# on every example kernel).

# Every pair ``prune`` decides counts ``deps.pairs_checked``, and each one
# found empty without an ILP (closed form or disjoint hulls)
# ``deps.pairs_pruned``.


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


def _relations(
    src: PolyStatement,
    dst: PolyStatement,
    src_acc: TensorAccess,
    dst_acc: TensorAccess,
    levels: Sequence[Optional[int]],
    rename: Dict[str, str],
) -> List[BasicMap]:
    """The pair's relation at each of ``levels``: ``None`` for a pair of
    two statements, a self pair's lexicographic level otherwise."""
    dst_space = Space(
        sys.intern(dst.stmt_id + "'"), [rename[d] for d in dst.iter_names]
    )
    base_cons: List[Constraint] = []
    base_cons.extend(src.domain().constraints)
    base_cons.extend(c.rename(rename) for c in dst.domain().constraints)
    eq = _access_equal_constraints(src_acc, dst_acc, rename)
    if eq is not None:
        base_cons.extend(eq)
    relations = []
    for level in levels:
        cons = base_cons
        if level is not None:
            # Self-dependence: src lexicographically before dst at ``level``.
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
        relations.append(BasicMap(src.space, dst_space, cons))
    return relations


#: The dependences of one access pair: per non-empty level (``None`` for a
#: pair of two statements, the lexicographic level of a self pair) its
#: system.
Posed = List[Tuple[Optional[int], _System]]


def _dependence_relations(
    src: PolyStatement,
    dst: PolyStatement,
    src_acc: TensorAccess,
    dst_acc: TensorAccess,
    prune: bool = True,
) -> Tuple[Posed, Dict[str, str]]:
    """The levels at which ``src_acc`` instances meet ``dst_acc``
    instances, each beside its system, and the dst dims' ``rename``.

    With ``prune=True`` (the default) a separable pair is answered by its
    closed form, and a coupled pair whose interval hulls are provably
    disjoint is rejected before any ILP emptiness test.  ``prune=False``
    forces the exact path (used by the equivalence regression tests and
    available for debugging): an ILP emptiness test per level, each on a
    fresh problem.
    """
    # Interned, as every dimension name is where it is minted (see
    # ``IterVar``): equal names must be one object for pickles to be pure.
    rename = {d: sys.intern(f"{d}__dst") for d in dst.iter_names}
    levels = list(range(len(src.iter_names))) if src is dst else [None]

    if prune:
        with LOCK:
            COUNTERS["deps.pairs_checked"] += 1
        forms = _separable(src, dst, src_acc, dst_acc, levels, rename)
        posed: Optional[Posed] = None
        if forms is not None:
            posed = [(level, _System(form)) for level, form in forms]
        elif _boxes_disjoint(_access_box(src, src_acc), _access_box(dst, dst_acc)):
            posed = []
        if posed is not None:
            if not posed:
                with LOCK:
                    COUNTERS["deps.pairs_pruned"] += 1
            return posed, rename

    posed = []
    relations = _relations(src, dst, src_acc, dst_acc, levels, rename)
    for level, relation in zip(levels, relations):
        problem = IlpProblem(relation.constraints)
        if problem.is_feasible():
            posed.append((level, _System(None, problem)))
    return posed, rename


def compute_dependences(
    kernel: LoweredKernel, prune: bool = True
) -> List[Dependence]:
    """All flow, anti and output dependences of a lowered kernel.

    ``prune`` (the default) answers each separable access pair in closed
    form and runs the bounding-box pre-check on the coupled ones.  It also
    lets an access pair take the levels and share the systems of an
    earlier pair with the same two statements and equal index lists.  A
    reduction's write/write, write/read and read/write pairs on its output
    are such a set, as is one tensor read twice alike.  ``prune=False`` is
    the exhaustive ILP oracle.  It poses an emptiness test for every pair,
    and for every level of a self pair, each on a fresh problem, and asks
    every later question of that problem.  The result is identical either
    way, relations and distance bounds included: the regression tests
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
                posed = None
                if prune:
                    seen = answered.setdefault((s_a.stmt_id, s_b.stmt_id), [])
                    for indices_a, indices_b, found, renamed in seen:
                        if indices_a == acc_a.indices and indices_b == acc_b.indices:
                            posed, rename = found, renamed  # an equal pair
                            break
                if posed is None:
                    posed, rename = _dependence_relations(s_a, s_b, acc_a, acc_b, prune)
                    if prune:
                        seen.append((acc_a.indices, acc_b.indices, posed, rename))
                if w_a and w_b:
                    kind = "output"
                elif w_a:
                    kind = "flow"
                else:
                    kind = "anti"
                for level, system in posed:
                    deps.append(
                        Dependence(
                            s_a, s_b, kind, tensor_name, rename, system,
                            (acc_a, acc_b, level),
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
                    if stmt_syms.get(idx.as_variable()) != dim.name:
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
