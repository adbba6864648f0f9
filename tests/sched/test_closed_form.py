"""The closed form of separable access pairs against the exact ILP.

``repro.sched.deps`` answers an access pair whose subscripts are all
constants or ``dim + const`` without a solver (``_separable``).  The ILP
on the pair's relation is the oracle, asked afresh here:

- a seeded corpus of random separable pairs -- constant subscripts,
  offsets, broadcast reads, unit extents, unequal ranks, self pairs at
  every lexicographic level -- must find the same levels empty, the same
  ``(min, max)`` of every ``dst_dim - src_dim`` and the same source dims
  determined by the destination instance;
- on every golden kernel and every kernel the benchmark compiles,
  ``compute_dependences`` must equal its ``prune=False`` oracle, distance
  bounds included.
"""

import random
from collections import Counter

import pytest

from repro.ir import lower
from repro.ir.expr import FloatImm
from repro.ir.lower import PolyStatement, TensorAccess
from repro.ir.tensor import Tensor
from repro.poly.affine import AffineExpr, var
from repro.poly.cache import solver_cache_stats
from repro.poly.ilp import IlpProblem, IlpStatus
from repro.sched import deps as deps_module
from repro.sched.deps import compute_dependences

from tests.core.test_golden_programs import GOLDEN


def _statement(rng, sid, tensor, seen):
    """A statement over 1-3 dims (some of extent 1) writing ``tensor``."""
    n = rng.randint(1, 3)
    extents = [rng.choice((1, 2, 3, 4, 5)) for _ in range(n)]
    seen["unit_extent"] += 1 in extents
    return PolyStatement(
        stmt_id=sid,
        tensor=tensor,
        iter_names=["i", "j", "k"][:n],
        iter_extents=extents,
        data_rank=n,
        write=None,
        reads=[],
        expr=FloatImm(0.0),
        kind="compute",
    )


def _access(rng, stmt, tensor, seen):
    """A separable access: each subscript a constant or ``dim + offset``."""
    indices = []
    for _ in range(len(tensor.shape)):
        if rng.random() < 0.25:
            seen["constant"] += 1
            indices.append(AffineExpr.constant(rng.randint(0, 3)))
        else:
            offset = rng.randint(-2, 2)
            seen["offset"] += offset != 0
            indices.append(var(rng.choice(stmt.iter_names)) + offset)
    used = {n for idx in indices for n in idx.coeffs}
    seen["broadcast"] += len(used) < len(stmt.iter_names)
    return TensorAccess(tensor, indices)


def _pair(rng, seen):
    """``(src, dst, src access, dst access)``: two statements, or one."""
    tensor = Tensor("X", (8,) * rng.randint(1, 3), "fp32")
    src = _statement(rng, "S0", tensor, seen)
    dst = src if rng.random() < 0.4 else _statement(rng, "S1", tensor, seen)
    seen["self" if src is dst else "pair"] += 1
    seen["unequal_rank"] += len(src.iter_names) != len(dst.iter_names)
    return src, dst, _access(rng, src, tensor, seen), _access(rng, dst, tensor, seen)


def _ilp_bounds(relation, src_dim, dst_dim):
    problem = IlpProblem(relation.constraints)
    delta = var(dst_dim) - var(src_dim)
    lo, hi = problem.minimize(delta), problem.maximize(delta)
    assert IlpStatus.OPTIMAL is lo.status is hi.status  # every dim is boxed
    return lo.value, hi.value


def _ilp_determined(relation, src_dims, s_dim):
    """``Dependence.src_dim_determined`` as the ILP answers it."""
    copy = {d: f"{d}__c" for d in src_dims}
    constraints = list(relation.constraints)
    problem = IlpProblem(constraints + [c.rename(copy) for c in constraints])
    result = problem.maximize(var(s_dim) - var(copy[s_dim]))
    return result.status is IlpStatus.OPTIMAL and result.value == 0


def test_the_closed_form_equals_the_ilp_on_random_separable_pairs():
    rng = random.Random(20261017)
    seen = Counter()
    for _ in range(1200):
        src, dst, src_acc, dst_acc = _pair(rng, seen)
        rename = {d: f"{d}__dst" for d in dst.iter_names}
        levels = list(range(len(src.iter_names))) if src is dst else [None]
        forms = deps_module._separable(src, dst, src_acc, dst_acc, levels, rename)
        assert forms is not None  # every subscript is separable
        found = dict(forms)
        relations = deps_module._relations(src, dst, src_acc, dst_acc, levels, rename)
        for level, relation in zip(levels, relations):
            feasible = IlpProblem(relation.constraints).is_feasible()
            assert (level in found) == feasible, (src_acc.indices, dst_acc.indices, level)
            seen["level", level is not None, feasible] += 1
            if not feasible:
                continue
            form = found[level]
            for s_dim in src.iter_names:
                for d_dim in dst.iter_names:
                    want = _ilp_bounds(relation, s_dim, rename[d_dim])
                    assert form.distance(rename[d_dim], s_dim) == want
                    seen["bounds"] += 1
                determined = form.determined(s_dim, set(rename.values()))
                assert determined == _ilp_determined(relation, src.iter_names, s_dim)
                seen["determined", determined] += 1
    # The corpus is only evidence if it reaches what it was built for.
    for path in (
        "constant", "offset", "broadcast", "unit_extent", "unequal_rank", "self", "pair",
    ):
        assert seen[path] >= 30, (path, seen)
    for self_pair in (True, False):
        for feasible in (True, False):
            assert seen["level", self_pair, feasible] >= 30, seen
    assert seen["determined", True] >= 30 and seen["determined", False] >= 30, seen
    assert seen["bounds"] >= 2000, seen
    # Its cost is a count, not a host-speed time-box: the systems the ILP
    # oracle was asked (7,222 on this corpus; a table hit is still asked).
    ilp = solver_cache_stats()["ilp"]
    assert ilp["hits"] + ilp["misses"] <= 7500, ilp


def _bench_kernels():
    """Every golden kernel and the unique subgraphs of the network the
    benchmark compiles; the benchmark's other rows (and its tuner sweeps)
    compile golden kernels."""
    from repro.graph import network
    from repro.graph.pipeline import partition

    kernels = {name: (lambda n=name: lower(GOLDEN[n][0](), n)) for name in GOLDEN}
    for k, spec in enumerate(partition(network("mobilenetv2_tiny")).unique.values()):
        kernels[f"mobilenetv2_tiny[{k}]"] = (
            lambda s=spec: lower(list(s.canonical_outputs), s.name)
        )
    return kernels


def _everything(deps):
    """Edges, kinds, renames, relations and distance bounds, aligned or
    over the data dims of statements of unequal rank."""
    out = []
    for d in deps:
        out.append((
            d.kind, d.src.stmt_id, d.dst.stmt_id, d.tensor_name,
            list(d.rename.items()),
            [(c.is_equality, list(c.expr.coeffs.items()), c.expr.const)
             for c in d.relation.constraints],
            d.distance_bounds(),
            d.bounds_between(d.src.data_iters, d.dst.data_iters),
            [d.src_dim_determined(s) for s in d.src.iter_names],
        ))
    return out


@pytest.mark.parametrize("name", sorted(_bench_kernels()))
def test_every_bench_kernel_equals_the_oracle(name):
    kernel = _bench_kernels()[name]()
    assert _everything(compute_dependences(kernel)) == _everything(
        compute_dependences(kernel, prune=False)
    )
