"""Reference schedule-tree legality check.

This is the checker ``repro.sched.scheduler`` shipped as
``check_legality`` (with ``schedule_vectors`` and ``_dep_violated``),
moved here verbatim when ``AkgOptions.verify_schedule`` -- its only
caller in the compiler -- was deleted: the production check of a
compiled result is :func:`repro.verify.schedule.check_dependences`.
It stays the oracle for tests on hand-built schedule trees (a reversed
sequence, a Jacobi stencil), which no ``build()`` can produce.

Not imported by anything under ``src/``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set, Tuple

from repro.poly.affine import AffineExpr, Constraint
from repro.poly.ilp import IlpProblem
from repro.sched.deps import Dependence
from repro.sched.tree import (
    BandNode,
    DomainNode,
    FilterNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
    SetNode,
)


def schedule_vectors(
    tree: DomainNode, skip_marks: Tuple[str, ...] = ("skipped",)
) -> Dict[str, List[Tuple]]:
    """Full schedule vector per statement from the tree structure.

    Components are ``("const", int)`` for sequence positions,
    ``("expr", AffineExpr)`` for band rows and ``("tiled", expr, size)``
    for tile-band rows.  Statements under a skipped mark are omitted.
    """
    vectors: Dict[str, List[Tuple]] = {}

    def collect(node: ScheduleNode, active: Set[str], prefix_map: Dict[str, List[Tuple]]):
        if isinstance(node, MarkNode) and node.name in skip_marks:
            return
        if isinstance(node, FilterNode):
            active = active & set(node.stmt_ids)
            if not active:
                return
        if isinstance(node, (SequenceNode, SetNode)):
            # A Set is unordered; checking it in index order is sound
            # because any fixed order must be legal for a valid Set.
            for i, child in enumerate(node.children):
                new_map = {
                    sid: vec + [("const", i)] for sid, vec in prefix_map.items()
                }
                collect(child, set(active), new_map)
            return
        if isinstance(node, BandNode):
            new_map = {}
            for sid, vec in prefix_map.items():
                if sid in node.schedules and sid in active:
                    extra = []
                    for r, expr in enumerate(node.schedules[sid]):
                        if node.tile_sizes:
                            extra.append(("tiled", expr, node.tile_sizes[r]))
                        else:
                            extra.append(("expr", expr))
                    new_map[sid] = vec + extra
                else:
                    new_map[sid] = vec
            prefix_map = new_map
        if not node.children:
            for sid in active:
                vectors[sid] = prefix_map.get(sid, [])
            return
        for child in node.children:
            collect(child, set(active), dict(prefix_map))

    all_ids = set(tree.dims)
    collect(tree, all_ids, {sid: [] for sid in all_ids})
    return vectors


def check_legality(
    tree: DomainNode,
    deps: Sequence[Dependence],
    skip: Tuple[str, ...] = ("skipped",),
) -> List[Dependence]:
    """Return the dependences *violated* by the tree's schedule (empty = legal).

    A dependence is violated when some instance pair executes with the
    destination scheduled strictly before the source.
    """
    vectors = schedule_vectors(tree, skip_marks=skip)
    violated: List[Dependence] = []
    for dep in deps:
        if dep.src.stmt_id not in vectors or dep.dst.stmt_id not in vectors:
            continue  # skipped subtree: scheduled elsewhere by extensions
        if _dep_violated(dep, vectors[dep.src.stmt_id], vectors[dep.dst.stmt_id]):
            violated.append(dep)
    return violated


def _dep_violated(dep: Dependence, src_vec: List[Tuple], dst_vec: List[Tuple]) -> bool:
    length = max(len(src_vec), len(dst_vec))
    src_vec = src_vec + [("const", 0)] * (length - len(src_vec))
    dst_vec = dst_vec + [("const", 0)] * (length - len(dst_vec))

    aux_counter = itertools.count()

    def component_exprs(level: int) -> Tuple[AffineExpr, AffineExpr, List[Constraint]]:
        cons: List[Constraint] = []

        def resolve(vec, rename) -> AffineExpr:
            kind = vec[0]
            if kind == "const":
                return AffineExpr.constant(vec[1])
            expr = vec[1].rename(rename) if rename else vec[1]
            if kind == "expr":
                return expr
            # tiled: introduce aux t with size*t <= expr <= size*t+size-1
            size = vec[2]
            t = AffineExpr.variable(f"aux_t{next(aux_counter)}")
            cons.append(Constraint.ge(expr - t * size, 0))
            cons.append(Constraint.le(expr - t * size, size - 1))
            return t

        s = resolve(src_vec[level], None)
        d = resolve(dst_vec[level], dep.rename)
        return s, d, cons

    # Violation at level l: equal on all earlier levels, dst < src at l.
    for level in range(length):
        problem = IlpProblem(list(dep.relation.constraints))
        for k in range(level):
            s, d, cons = component_exprs(k)
            problem.add_constraints(cons)
            problem.add_constraint(Constraint.eq(s, d))
        s, d, cons = component_exprs(level)
        problem.add_constraints(cons)
        problem.add_constraint(Constraint.le(d, s - 1))
        if problem.is_feasible(integer=True):
            return True
    return False
