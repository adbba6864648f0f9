"""The shrink rule's tile dependence against composition.

``repro.tiling.policy.move_tile_dependence`` asks which tile dims each
tensor's footprint depends on, and reads the answer off a link graph of
each statement's instance relation.  Composing every access with its
relation through Fourier-Motzkin
(``tests.tiling._reference_footprint.tile_dependence``) is the oracle:

- on arbitrary random relations the graph answers at least what
  composition does: every row FM derives for a tensor dim combines rows
  joined through the eliminated dims;
- on relations of the shapes tiling builds -- live-out relations over
  random boxes with identity, shifted and skewed band rows and random
  sizes, and producer relations through random window reads ``a*x + b*k
  + c`` -- the two are equal;
- so they are on every call a cold build of the golden kernels (Table 1
  among them) and of five full-size networks' unique subgraphs makes.

The answer only feeds the shrink rule's traffic estimate: a mismatch
would move a tile choice, never make a program wrong.
"""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core import diskcache
from repro.core.compiler import build
from repro.ir import lower, ops
from repro.ir.expr import FloatImm
from repro.ir.lower import PolyStatement, TensorAccess
from repro.ir.tensor import Tensor, compute, placeholder, reduce_axis, te_sum
from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.cache import clear_solver_caches
from repro.poly.maps import BasicMap
from repro.poly.sets import Space
from repro.sched.deps import compute_dependences
from repro.tiling import policy
from repro.tiling.policy import move_tile_dependence
from repro.tiling.reverse import liveout_instance_relation

from tests.core.test_golden_programs import GOLDEN
from tests.tiling._reference_footprint import producer_tile_relation, tile_dependence


def _group(tile_dims, statements, relations):
    return SimpleNamespace(
        tile_dims=list(tile_dims),
        statements=statements,
        instance_relations=relations,
    )


# -- arbitrary relations: the graph answers at least what composition does ---


def _random_expr(rng, names, max_terms):
    coeffs = {}
    for name in rng.sample(names, rng.randint(1, min(max_terms, len(names)))):
        coeffs[name] = rng.choice((-2, -1, 1, 2))
    return AffineExpr(coeffs, rng.randint(-4, 4))


def _random_group(rng):
    """One statement over 1-4 instance dims and a parameter ``n``, under
    1-7 random constraints over those and 1-3 tile dims; 1-3 accesses,
    some non-affine."""
    tiles = [f"o{k}" for k in range(rng.randint(1, 3))]
    iters = [f"i{k}" for k in range(rng.randint(1, 4))]
    names = tiles + iters + ["n"]
    cons = []
    for _ in range(rng.randint(1, 7)):
        expr = _random_expr(rng, names, 3)
        cons.append(Constraint(expr, rng.random() < 0.2))
    relation = BasicMap(Space("T", tiles), Space("S", iters), cons)
    accesses = []
    for k in range(rng.randint(1, 3)):
        tensor = Tensor(f"X{k}", (8,) * rng.randint(1, 3), "fp32")
        if rng.random() < 0.1:
            accesses.append(TensorAccess(tensor, None))
            continue
        indices = [
            _random_expr(rng, iters, 2) if rng.random() < 0.8
            else AffineExpr.constant(rng.randint(0, 3))
            for _ in tensor.shape
        ]
        accesses.append(TensorAccess(tensor, indices))
    stmt = SimpleNamespace(
        stmt_id="S0", space=relation.out_space, write=accesses[0], reads=accesses[1:]
    )
    return _group(tiles, [stmt], {"S0": relation})


def test_the_graph_answers_at_least_what_composition_does():
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(400):
        group = _random_group(rng)
        graph = move_tile_dependence(group)
        composed = tile_dependence(group)
        assert graph.keys() == composed.keys()
        for name, tiles in composed.items():
            assert tiles <= graph[name], (group.instance_relations, name)
            seen["equal" if tiles == graph[name] else "strict"] += 1
            seen["linked"] += bool(tiles)
    # Both outcomes occur: the property is not vacuous either way.
    assert seen["equal"] >= 200 and seen["strict"] >= 50, seen
    assert seen["linked"] >= 100, seen


# -- the shapes tiling builds: the two are equal -------------------------------


def _statement(extents, reads):
    tensor = Tensor("OUT", tuple(extents), "fp32")
    iters = [f"i{k}" for k in range(len(extents))]
    return PolyStatement(
        stmt_id="S0",
        tensor=tensor,
        iter_names=iters,
        iter_extents=list(extents),
        data_rank=len(extents),
        write=TensorAccess(tensor, [var(i) for i in iters]),
        reads=reads,
        expr=FloatImm(0.0),
        kind="compute",
    )


def _band_row(rng, iters, k, seen):
    """Identity, shifted or skewed row ``k`` of a band over ``iters``,
    as a function of the statement's dims (the band's statements share
    the shape, each over its own dims)."""
    shape = rng.choice(("identity", "shifted", "skewed"))
    if shape == "skewed" and len(iters) < 2:
        shape = "identity"
    seen[shape] += 1
    if shape == "skewed":
        other = rng.choice([j for j in range(len(iters)) if j != k])
        factor = rng.choice((1, 2))
        return shape, lambda names: var(names[k]) + var(names[other]) * factor
    offset = rng.randint(-3, 3) if shape == "shifted" else 0
    return shape, lambda names: var(names[k]) + offset


def _read(rng, iters, seen):
    """Identity, shifted, broadcast, transposed or constant subscripts."""
    subscripts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("identity", "shifted", "constant", "sum"))
        seen["read_" + kind] += 1
        if kind == "constant":
            subscripts.append(AffineExpr.constant(rng.randint(0, 2)))
        elif kind == "sum" and len(iters) > 1:
            a, b = rng.sample(iters, 2)
            subscripts.append(var(a) + var(b))
        else:
            subscripts.append(var(rng.choice(iters)) + (kind == "shifted") * rng.randint(1, 2))
    return TensorAccess(Tensor(f"R{seen['reads']}", (16,) * len(subscripts), "fp32"), subscripts)


def test_liveout_relations_give_the_same_answer():
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(300):
        extents = [rng.randint(1, 12) for _ in range(rng.randint(1, 3))]
        iters = [f"i{k}" for k in range(len(extents))]
        reads = []
        for _ in range(rng.randint(0, 3)):
            seen["reads"] += 1
            reads.append(_read(rng, iters, seen))
        stmt = _statement(extents, reads)
        n_rows = rng.randint(1, len(extents))
        rows = [_band_row(rng, iters, k, seen)[1](iters) for k in range(n_rows)]
        sizes = [rng.choice((1, 2, 3, 4, 8, 16)) for _ in rows]
        tiles = [f"o{k}" for k in range(n_rows)]
        origins = [rng.randint(-2, 2) for _ in rows] if rng.random() < 0.3 else None
        relation = liveout_instance_relation(stmt, rows, sizes, tiles, origins)
        group = _group(tiles, [stmt], {"S0": relation})
        graph = move_tile_dependence(group)
        assert graph == tile_dependence(group), (relation, reads)
        seen["partial"] += any(len(t) < n_rows for t in graph.values())
    for shape in ("identity", "shifted", "skewed"):
        assert seen[shape] >= 50, seen
    for kind in ("identity", "shifted", "constant", "sum"):
        assert seen["read_" + kind] >= 50, seen
    assert seen["partial"] >= 50, seen


def _window_kernel(rng):
    """``C[y, z] = sum_k P[a*y + b*k + c]`` over a pointwise producer
    ``P``: the consumer's statements and ``P``'s, and the dependences."""
    a, b, c = rng.choice((1, 2)), rng.choice((0, 1, 2)), rng.randint(0, 2)
    ys, zs, ks = rng.randint(1, 8), rng.randint(1, 4), rng.randint(1, 4)
    source = placeholder((a * (ys - 1) + b * (ks - 1) + c + 1,), name="A")
    producer = ops.relu(source, name="P")
    k = reduce_axis((0, ks), "k")
    out = compute(
        (ys, zs),
        lambda y, z: te_sum(producer[y * a + k * b + c], axis=k),
        name="C",
    )
    kernel = lower(out)
    return kernel, compute_dependences(kernel)


def test_producer_relations_through_window_reads_give_the_same_answer():
    rng = random.Random(20261021)
    seen = Counter()
    for _ in range(120):
        kernel, deps = _window_kernel(rng)
        producer, init, update = kernel.statements
        tiles = ["o0", "o1"]
        sizes = [rng.choice((1, 2, 4, 8)) for _ in tiles]
        shapes, rows = zip(
            *[_band_row(rng, update.iter_names[:2], k, seen) for k in range(2)]
        )
        relations = {}
        consumers = {}
        for stmt in (init, update):
            band = [row(stmt.iter_names) for row in rows]
            relation = liveout_instance_relation(stmt, band, sizes, tiles)
            relations[stmt.stmt_id] = relation
            consumers[stmt.stmt_id] = (stmt, relation)
        relation = producer_tile_relation(producer, consumers, deps, tiles)
        assert relation is not None
        relations[producer.stmt_id] = relation
        group = _group(tiles, [producer, init, update], relations)
        graph = move_tile_dependence(group)
        assert graph == tile_dependence(group), (relation, update.reads)
        if "skewed" not in shapes:
            # ``P`` is read along ``y`` alone: the tile of ``z`` never moves it.
            assert graph["P"] <= {"o0"}, (rows, graph)
            seen["unskewed", frozenset(graph["P"])] += 1
    assert seen["skewed"] >= 50, seen
    assert seen["unskewed", frozenset({"o0"})] >= 30, seen


# -- every call a cold build makes ---------------------------------------------


@pytest.fixture
def asked(monkeypatch):
    """Cold builds, every ``move_tile_dependence`` answer checked against
    composition; yields the list of groups asked."""
    groups = []

    def checked(group):
        graph = move_tile_dependence(group)
        assert graph == tile_dependence(group), group
        groups.append(group)
        return graph

    monkeypatch.setattr(policy, "move_tile_dependence", checked)
    diskcache.set_disk_cache_enabled(False)
    yield groups
    clear_solver_caches()


def test_every_golden_call_gives_the_same_answer(asked):
    for name in sorted(GOLDEN):
        clear_solver_caches()
        build(GOLDEN[name][0](), name)
    # subgraph1 and subgraph4 reach the shrink rule: 18 calls.
    assert len(asked) >= 15, len(asked)


def test_every_network_call_gives_the_same_answer(asked):
    from repro.graph import network
    from repro.graph.pipeline import partition

    for name in ("resnet50", "mobilenetv2", "ssd300", "alexnet", "bert21128"):
        for spec in partition(network(name)).unique.values():
            clear_solver_caches()
            build(list(spec.canonical_outputs), spec.name)
    # 199 calls, bert21128's 81 the most.
    assert len(asked) >= 190, len(asked)
