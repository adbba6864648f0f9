"""A pickled front-end or result answers as the cold build it came from.

Entries keep what a cold build keeps -- a tiled group's live-out band
rows and fused producer ids, a dependence's access pair and level, the
tree root's statement dims -- and rebuild the windows, spans and
relations derived from them on first read, through the path a cold build
takes.  So after ``pickle.loads(pickle.dumps(x))`` every tile window,
per-tile extent, instance relation, dependence relation and distance
bound equals the cold build's, separable dependences are answered in
closed form again, replays are equal, and the restored object pickles to
the very bytes it came from.
"""

import pickle

import numpy as np
import pytest

from repro.core import diskcache
from repro.core.compiler import AkgOptions, backend_build, build
from repro.core.frontend import run_frontend
from repro.fusion.posttile import TiledGroup
from repro.graph import compile_network, network
from repro.poly.cache import clear_solver_caches
from repro.runtime.reference import numpy_dtype
from tests.core.test_golden_programs import GOLDEN

#: Golden kernels cheap enough to replay here (subgraphs 1-3 take 10-30 s
#: each; their replays read nothing the relations compared below do not).
REPLAYED = (
    "add_relu_128x512", "conv2d_16x32", "matmul_256", "softmax_32x64",
    "subgraph4", "subgraph5",
)


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


def _unset(obj, slot):
    """Whether ``slot`` holds nothing, read past any ``__getattr__``."""
    try:
        type(obj).__dict__[slot].__get__(obj)
    except AttributeError:
        return True
    return False


def _feed(kernel, seed=0):
    rng = np.random.default_rng(seed)
    return {
        t.name: (0.25 * rng.standard_normal(t.shape)).astype(numpy_dtype(t.dtype))
        for t in kernel.inputs
    }


def _group_answers(group):
    return (
        repr(group),
        group.windows,
        {s.stmt_id: group.instance_extents(s.stmt_id) for s in group.statements},
        repr(group.instance_relations),
    )


def _assert_groups_equal(cold, restored):
    assert len(cold.groups) == len(restored.groups)
    for c, r in zip(cold.groups, restored.groups):
        # Nothing derived from the rows came through the pickle ...
        assert set(r.__dict__) == set(TiledGroup._STATE)
        assert set(r.band_rows) == set(r.liveout_ids)
        # ... and the rebuilt answers are the cold ones.
        assert _group_answers(r) == _group_answers(c)


@pytest.fixture(scope="module")
def builds():
    out = {}
    with diskcache.disabled():
        for name in sorted(GOLDEN):
            clear_solver_caches()
            frontend = run_frontend(GOLDEN[name][0](), name)
            result = backend_build(frontend, AkgOptions(emit_trace=True))
            out[name] = (frontend, result)
    clear_solver_caches()
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_restored_result_answers_as_the_cold_build(builds, name):
    _frontend, cold = builds[name]
    restored = _round_trip(cold)
    assert restored.program.dump() == cold.program.dump()
    assert restored.tree.render() == cold.tree.render()
    _assert_groups_equal(cold, restored)
    if name in REPLAYED:
        feed = _feed(cold.kernel)
        want = cold.execute(feed)
        got = restored.execute(feed)
        assert set(got) == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_restored_front_end_answers_as_the_cold_build(builds, name):
    cold, _result = builds[name]
    restored = _round_trip(cold)
    assert restored.master_tree.render() == cold.master_tree.render()
    assert len(restored.deps) == len(cold.deps)
    for c, r in zip(cold.deps, restored.deps):
        assert not hasattr(r, "_relation")  # built only when read
        assert _unset(r, "_system")  # solved only when asked
        assert r.distance_bounds() == c.distance_bounds()
        assert repr(r.relation) == repr(c.relation)
    # Separable pairs have their closed form again; coupled pairs have none.
    closed = [d._system.form is not None for d in cold.deps]
    assert [d._system.form is not None for d in restored.deps] == closed


def test_separable_golden_dependences_are_closed_form_after_a_reload(builds):
    closed = total = 0
    for name in sorted(GOLDEN):
        for dep in _round_trip(builds[name][0]).deps:
            total += 1
            closed += dep._system.form is not None
    # Only subgraph1's and subgraph5's coupled subscripts have none.
    assert (closed, total) == (122, 124)


def test_a_pickled_result_holds_no_live_out_relation(builds):
    """Nor a fused producer's: a group pickles its ``_STATE`` alone."""
    for name in sorted(GOLDEN):
        _frontend, cold = builds[name]
        for group in cold.groups:
            group.instance_relations  # built on the cold side: stays out
            assert list(group.__getstate__()) == list(TiledGroup._STATE)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_restored_entry_pickles_to_the_same_bytes(builds, name):
    """Entries stay pure when a hit is stored again: a restored front-end
    or result keeps its attribute names and their order, so its pickle
    shares strings where the cold one did."""
    frontend, result = builds[name]
    with diskcache.disabled():
        clear_solver_caches()
        plain = build(GOLDEN[name][0](), name)  # what an entry holds
    for value in (frontend, result, plain):
        once = pickle.dumps(value)
        assert pickle.dumps(pickle.loads(once)) == once


def test_a_restored_mobilenet_plan_replays_as_the_cold_one():
    with diskcache.disabled():
        clear_solver_caches()
        plan = compile_network(network("mobilenetv2_tiny")).plan
    restored = _round_trip(plan)
    for digest, cold in plan.programs.items():
        _assert_groups_equal(cold, restored.programs[digest])
    rng = np.random.default_rng(3)
    feeds = [
        {
            info.key: (0.25 * rng.standard_normal(info.shape)).astype(
                numpy_dtype(info.dtype)
            )
            for info in plan.inputs
        }
    ]
    want = plan.replay(feeds)
    got = restored.replay(feeds)
    for g, w in zip(got, want):
        assert set(g) == set(w)
        for key in w:
            assert np.array_equal(g[key], w[key]), key
