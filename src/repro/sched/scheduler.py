"""Polyhedral scheduling: identity rows, with Pluto-style ILP rows as the
fallback.

The scheduler computes, per fusion cluster, a band of aligned affine rows
that weakly satisfies every cluster-internal dependence (the Pluto
condition), maximising outer parallelism and keeping bands permutable for
tiling.  What a paper workload runs is clustering plus identity rows:
``lower()`` writes every output through an identity map, so no network
subgraph or Table 1 kernel needs a Pluto row; only test kernels (one
beside its reversed ``mirrored`` copy, a shifted pair, a stencil) reach
step 2.  The search runs row by row:

1. *identity rows* -- try the canonical per-dimension rows first; each
   candidate is verified exactly against every dependence, and one over
   a dim a Pluto row of the band already weights is skipped (it would
   repeat that row).  An identity row's delta is the
   dependence's distance at its position, so the check reads the bounds
   the dependence answers once (``Dependence.distance_bound``): in closed
   form for a separable access pair, posed to the ILP for a coupled one.
2. *Pluto ILP* -- when a candidate row is illegal (skewed dependences),
   solve for coefficients via the affine form of the Farkas lemma, exactly
   as in Bondhugula et al. [9], using the exact rational ILP of
   :mod:`repro.poly.ilp`.  Only this step reads a dependence's relation
   and poses its problem (``Dependence.problem``), so a band whose rows
   are all identities builds neither.
3. *fallback* -- when no further aligned row exists, remaining order is
   delegated to the sequence structure of the tree (Feautrier-style
   statement separation), which is always legal for the textual order.

The independent legality check of a compiled result is the verifier's
:func:`repro.verify.schedule.check_dependences`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core import faults, resilience
from repro.ir.lower import LoweredKernel, PolyStatement
from repro.poly.affine import AffineExpr, Constraint
from repro.poly.ilp import IlpProblem, IlpStatus
from repro.sched.clustering import Clustering, conservative_clustering
from repro.sched.deps import Dependence, compute_dependences
from repro.sched.tree import (
    BandNode,
    DomainNode,
    FilterNode,
    LeafNode,
    ScheduleNode,
    SequenceNode,
)


#: Pluto's coefficient bound: a row's coefficients lie in ``[0, 3]``.
MAX_COEFFICIENT = 3


class ClusterSchedule:
    """Band rows for one cluster plus the derived properties."""

    def __init__(
        self,
        rows: Dict[str, List[AffineExpr]],
        coincident: List[bool],
        permutable: bool,
    ):
        self.rows = rows
        self.coincident = coincident
        self.permutable = permutable

    @property
    def depth(self) -> int:
        """Number of aligned rows actually found."""
        return len(next(iter(self.rows.values()))) if self.rows else 0


class PolyScheduler:
    """Computes schedule trees for lowered kernels; ``skew=False`` takes
    identity rows only (no Pluto ILP), the ladder's middle rung."""

    def __init__(self, skew: bool = True):
        self.skew = skew

    # -- public API --------------------------------------------------------------

    def schedule_kernel(
        self,
        kernel: LoweredKernel,
        deps: Optional[Sequence[Dependence]] = None,
        clustering: Optional[Clustering] = None,
    ) -> DomainNode:
        """Build the scheduled tree of Fig. 3(c)/(d): fusion groups in sequence.

        Intermediate clusters come first (topological order), then the
        merged live-out group under one aligned band -- the exact shape the
        reverse tiling strategy consumes.
        """
        from repro.sched.clustering import fusion_group_order

        deps = list(deps) if deps is not None else compute_dependences(kernel)
        clustering = clustering or conservative_clustering(kernel, deps)

        filters: List[FilterNode] = []
        for group in fusion_group_order(clustering):
            stmts = [s for ci in group for s in clustering.clusters[ci]]
            subtree = self._schedule_cluster(stmts, deps)
            filters.append(FilterNode([s.stmt_id for s in stmts], subtree))

        body: ScheduleNode
        if len(filters) == 1:
            body = filters[0]
        else:
            body = SequenceNode(filters)
        return DomainNode({s.stmt_id: s.iter_names for s in kernel.statements}, body)

    def initial_tree(self, kernel: LoweredKernel) -> DomainNode:
        """The textual-order tree of Fig. 3(b): one filter per statement."""
        filters = []
        for stmt in kernel.statements:
            rows = [AffineExpr.variable(d) for d in stmt.iter_names]
            band = BandNode({stmt.stmt_id: rows}, LeafNode())
            filters.append(FilterNode([stmt.stmt_id], band))
        body = filters[0] if len(filters) == 1 else SequenceNode(filters)
        return DomainNode({s.stmt_id: s.iter_names for s in kernel.statements}, body)

    # -- cluster scheduling ---------------------------------------------------------

    def _schedule_cluster(
        self, cluster: List[PolyStatement], deps: Sequence[Dependence]
    ) -> ScheduleNode:
        ids = {s.stmt_id for s in cluster}
        cluster_deps = [
            d for d in deps if d.src.stmt_id in ids and d.dst.stmt_id in ids
        ]
        depth = min(s.data_rank for s in cluster)
        outer = self._compute_band(cluster, cluster_deps, depth)
        achieved = outer.depth  # the band may stop early on hard deps

        # Inner structure: per-statement leftover dimensions.
        inner_children: List[FilterNode] = []
        needs_sequence = len(cluster) > 1
        for stmt in cluster:
            leftover = stmt.iter_names[achieved:]
            child: ScheduleNode = LeafNode()
            if leftover:
                rows = [AffineExpr.variable(d) for d in leftover]
                child = BandNode(
                    {stmt.stmt_id: rows},
                    LeafNode(),
                    permutable=self._leftover_permutable(stmt, cluster_deps),
                )
            inner_children.append(FilterNode([stmt.stmt_id], child))

        if needs_sequence:
            inner: ScheduleNode = SequenceNode(inner_children)
        else:
            inner = inner_children[0].child or LeafNode()

        band = BandNode(
            outer.rows,
            inner,
            permutable=outer.permutable,
            coincident=outer.coincident,
        )
        return band

    def _leftover_permutable(
        self, stmt: PolyStatement, deps: Sequence[Dependence]
    ) -> bool:
        """Reduce-dim bands of a pure accumulation are permutable."""
        return stmt.kind == "reduce"

    def _compute_band(
        self,
        cluster: List[PolyStatement],
        deps: Sequence[Dependence],
        depth: int,
    ) -> ClusterSchedule:
        """Find ``depth`` aligned rows weakly satisfying all cluster deps."""
        rows: Dict[str, List[AffineExpr]] = {s.stmt_id: [] for s in cluster}
        coincident: List[bool] = []
        used_leading: Set[str] = set()
        # Dims a Pluto row of this band weights: an identity row over one
        # of them would repeat it.  Empty in a band of identity rows.
        taken: Set[str] = set()
        permutable = True

        for pos in range(depth):
            resilience.check_deadline()
            row = None
            identity = self._identity_holds(deps, pos, False)
            if identity and taken:
                for s in cluster:
                    if s.iter_names[pos] in taken:
                        identity = False
                        break
            if identity:
                row = {
                    s.stmt_id: AffineExpr.variable(s.iter_names[pos])
                    for s in cluster
                }
                used_leading.add(cluster[0].iter_names[pos])
            elif self.skew:
                row = self._pluto_row(cluster, deps, pos, used_leading)
                if row is not None:
                    for expr in row.values():
                        taken.update(expr.coeffs)
                    used_leading.update(taken)
            if row is None:
                # Could not extend the band: stop here (callers fall back to
                # the sequence order for whatever dimensions remain).
                permutable = False
                break
            for sid, expr in row.items():
                rows[sid].append(expr)
            if identity:
                coincident.append(self._identity_holds(deps, pos, True))
            else:
                coincident.append(self._row_coincident(row, deps))

        return ClusterSchedule(rows, coincident, permutable)

    # -- legality of a concrete row ---------------------------------------------------

    def _row_delta(
        self, row: Dict[str, AffineExpr], dep: Dependence
    ) -> AffineExpr:
        """The symbolic schedule difference of ``dep`` under ``row``."""
        src_expr = row[dep.src.stmt_id]
        dst_expr = row[dep.dst.stmt_id].rename(dep.rename)
        return dst_expr - src_expr

    def _identity_holds(
        self, deps: Sequence[Dependence], pos: int, coincident: bool
    ) -> bool:
        """Whether the identity row at ``pos`` is weakly legal (``delta >=
        0``) or, when ``coincident``, parallel (``delta == 0``) under every
        dependence.  Its delta is the dependence's distance at ``pos``,
        whose bounds a dependence answers once for every band of every
        schedule (the relation is non-empty, so no bound is infeasible)."""
        for dep in deps:
            bound = dep.distance_bound(pos, upper=coincident)
            if bound is None or (bound != 0 if coincident else bound < 0):
                return False
        return True

    def _row_weakly_legal(
        self, row: Dict[str, AffineExpr], deps: Sequence[Dependence]
    ) -> bool:
        """True when delta >= 0 over every dependence relation (each posed
        to the dependence's own problem, ranked and presolved once for
        every band of every schedule)."""
        for dep in deps:
            result = dep.problem.minimize(self._row_delta(row, dep), integer=True)
            if result.status is IlpStatus.OPTIMAL and result.value < 0:
                return False
            if result.status is IlpStatus.UNBOUNDED:
                return False
        return True

    def _row_coincident(
        self, row: Dict[str, AffineExpr], deps: Sequence[Dependence]
    ) -> bool:
        """True when delta == 0 over every dependence (parallel row).  The
        row is weakly legal (delta >= 0), so its maximum decides."""
        for dep in deps:
            hi = dep.problem.maximize(self._row_delta(row, dep), integer=True)
            if hi.status is not IlpStatus.OPTIMAL or hi.value != 0:
                return False
        return True

    # -- Pluto ILP row -------------------------------------------------------------------

    def _pluto_row(
        self,
        cluster: List[PolyStatement],
        deps: Sequence[Dependence],
        pos: int,
        used_leading: Set[str],
    ) -> Optional[Dict[str, AffineExpr]]:
        """Solve for one band row via Farkas-encoded legality constraints.

        Coefficients are restricted to ``[0, MAX_COEFFICIENT]`` (standard
        Pluto restriction); linear independence from previous rows is
        enforced by requiring a not-yet-leading dimension to carry weight.

        The row is a stated lexicographic optimum, not whichever optimal
        point the solver lands on: minimise the sum of the coefficients;
        at that sum minimise the sum of ``|shift|``; then the lexicographic
        minimum over the coefficients (statement by statement, dimension
        by dimension) followed by the shifts (statement order).
        """
        faults.fire("sched.pluto_row")
        problem = IlpProblem()
        coeff_vars: Dict[Tuple[str, str], str] = {}
        const_vars: Dict[str, str] = {}
        abs_shift = AffineExpr.constant(0)
        for stmt in cluster:
            const_vars[stmt.stmt_id] = f"d_{stmt.stmt_id}"
            for dim in stmt.iter_names:
                name = f"c_{stmt.stmt_id}_{dim}"
                coeff_vars[(stmt.stmt_id, dim)] = name
                problem.add_constraint(Constraint.ge(AffineExpr.variable(name), 0))
                problem.add_constraint(
                    Constraint.le(AffineExpr.variable(name), MAX_COEFFICIENT)
                )
            # Bound the shift so the ILP stays bounded; a_S >= |d_S|.
            dvar = AffineExpr.variable(const_vars[stmt.stmt_id])
            avar = AffineExpr.variable(f"a_{stmt.stmt_id}")
            problem.add_constraint(Constraint.ge(dvar, -16))
            problem.add_constraint(Constraint.le(dvar, 16))
            problem.add_constraint(Constraint.ge(avar, dvar))
            problem.add_constraint(Constraint.ge(avar, -dvar))
            abs_shift = abs_shift + avar

        # Non-triviality and linear independence.
        for stmt in cluster:
            total = AffineExpr.constant(0)
            fresh = AffineExpr.constant(0)
            for dim in stmt.iter_names:
                cvar = AffineExpr.variable(coeff_vars[(stmt.stmt_id, dim)])
                total = total + cvar
                if dim not in used_leading:
                    fresh = fresh + cvar
            problem.add_constraint(Constraint.ge(total, 1))
            problem.add_constraint(Constraint.ge(fresh, 1))

        # Farkas legality per dependence: delta >= 0 over the relation.
        for tag, dep in enumerate(deps):
            self._add_farkas(problem, dep, coeff_vars, const_vars, tag)

        coeff_sum = AffineExpr.constant(0)
        for name in coeff_vars.values():
            coeff_sum = coeff_sum + AffineExpr.variable(name)
        for objective in (coeff_sum, abs_shift):
            result = problem.minimize(objective, integer=True)
            if result.status is not IlpStatus.OPTIMAL:
                return None
            problem.add_constraint(Constraint.eq(objective, result.value))
        point = problem.lexmin([*coeff_vars.values(), *const_vars.values()])

        row: Dict[str, AffineExpr] = {}
        for stmt in cluster:
            expr = AffineExpr.constant(point[const_vars[stmt.stmt_id]])
            for dim in stmt.iter_names:
                c = point[coeff_vars[(stmt.stmt_id, dim)]]
                if c:
                    expr = expr + AffineExpr.variable(dim) * c
            row[stmt.stmt_id] = expr
        # The ILP guarantees legality by construction, but verify exactly.
        if not self._row_weakly_legal(row, deps):  # pragma: no cover - safety
            return None
        return row

    def _add_farkas(
        self,
        problem: IlpProblem,
        dep: Dependence,
        coeff_vars: Dict[Tuple[str, str], str],
        const_vars: Dict[str, str],
        tag: int,
    ) -> None:
        """Encode ``delta_dep >= 0 over relation`` with Farkas multipliers,
        named ``lam{tag}_*``: the row's problem, and so the solver's walk
        over it, is a function of the cluster and its dependences alone."""
        relation = dep.relation
        # Symbolic coefficient of delta on each relation variable.
        inv_rename = {v: k for k, v in dep.rename.items()}
        delta_coeff: Dict[str, AffineExpr] = {}
        for dim in dep.src.iter_names:
            delta_coeff[dim] = delta_coeff.get(dim, AffineExpr.constant(0)) - (
                AffineExpr.variable(coeff_vars[(dep.src.stmt_id, dim)])
            )
        for renamed in [dep.rename[d] for d in dep.dst.iter_names]:
            orig = inv_rename[renamed]
            delta_coeff[renamed] = delta_coeff.get(
                renamed, AffineExpr.constant(0)
            ) + AffineExpr.variable(coeff_vars[(dep.dst.stmt_id, orig)])
        delta_const = AffineExpr.variable(const_vars[dep.dst.stmt_id]) - (
            AffineExpr.variable(const_vars[dep.src.stmt_id])
        )

        lam0 = AffineExpr.variable(f"lam{tag}_0")
        problem.add_constraint(Constraint.ge(lam0, 0))
        lam_terms: List[Tuple[AffineExpr, Constraint]] = []
        for k, con in enumerate(relation.constraints):
            mult = AffineExpr.variable(f"lam{tag}_{k + 1}")
            if not con.is_equality:
                problem.add_constraint(Constraint.ge(mult, 0))
            lam_terms.append((mult, con))

        rel_vars = set()
        for con in relation.constraints:
            rel_vars.update(con.variables())
        rel_vars.update(delta_coeff.keys())

        for v in sorted(rel_vars):
            lhs = delta_coeff.get(v, AffineExpr.constant(0))
            rhs = AffineExpr.constant(0)
            for mult, con in lam_terms:
                coefficient = con.expr.coeff(v)
                if coefficient:
                    rhs = rhs + mult * coefficient
            problem.add_constraint(Constraint.eq(lhs - rhs, 0))
        rhs_const = lam0
        for mult, con in lam_terms:
            if con.expr.const:
                rhs_const = rhs_const + mult * con.expr.const
        problem.add_constraint(Constraint.eq(delta_const - rhs_const, 0))
