"""The verifier must pass every artifact the real pipeline produces.

Zero false positives is the verifier's contract: a checker that cries
wolf on healthy schedules trains everyone to ignore it.  These tests
sweep the demo-kernel catalog (concrete and symbolic-batch), a whole
network plan, and the cache/wire surfaces that carry the
``verified_clean`` flag.
"""

import numpy as np
import pytest

from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.graph import compile_network, network
from repro.ir import ops
from repro.ir.tensor import compute, placeholder
from repro.runtime.reference import evaluate_tensors
from repro.service.wire import demo_kernel
from repro.verify import verify_network_plan, verify_result

CATALOG = [
    ("relu", [8, 32], {}),
    ("add", [8, 32], {}),
    ("softmax", [8, 32], {}),
    ("matmul", [16, 16, 16], {}),
    ("conv2d", [1, 4, 10, 10], {}),
]


@pytest.mark.parametrize("op,shape,kwargs", CATALOG)
def test_catalog_kernel_verifies_clean(op, shape, kwargs):
    result = build(demo_kernel(op, shape, **kwargs), f"verify_{op}")
    ran = verify_result(result)
    assert ran == {"schedule": True, "bounds": True, "sync": True}


def _two_offsets():
    """``C[h, w] = P[h, w] + P[h, w + 1]`` with ``P = relu(X)``, X 64x33:
    one fused producer read at two offsets along a dim whose last tile is
    partial."""
    x = placeholder((64, 33), name="X")
    p = ops.relu(x, name="P")
    return compute((64, 32), lambda h, w: p[h, w] + p[h, w + 1], name="C")


@pytest.mark.parametrize("sizes", [None, [8, 8], [16, 4]])
def test_a_producer_read_at_two_offsets_verifies_clean(sizes):
    """Its tile relation, read off its span, keeps the upper bound along
    ``w`` that a union of the two reads' preimages dropped: the bounds
    check once read index +inf past extent 33 here."""
    options = AkgOptions(tile_sizes=sizes, emit_trace=True)
    with diskcache.disabled():
        result = build(_two_offsets(), "two_offsets", options=options)
    [group] = [g for g in result.groups if g.fused_producer_ids]
    assert verify_result(result) == {"schedule": True, "bounds": True, "sync": True}
    feed = {"X": np.random.default_rng(0).standard_normal((64, 33)).astype(np.float16)}
    want = evaluate_tensors([_two_offsets()], feed)["C"]
    for engine in ("scalar", "vectorized"):
        assert np.array_equal(result.execute(feed, engine=engine)["C"], want), engine


@pytest.mark.parametrize(
    "op,shape,bmax",
    [("relu", [8, 32], 8), ("matmul", [16, 16, 16], 16), ("conv2d", [1, 4, 10, 10], 4)],
)
def test_symbolic_batch_kernel_verifies_clean(op, shape, bmax):
    result = build(
        demo_kernel(op, shape, batch_max=bmax), f"verify_sym_{op}"
    )
    assert result.kernel.shape_generic
    ran = verify_result(result)
    assert ran == {"schedule": True, "bounds": True, "sync": True}


def test_network_plan_verifies_clean():
    compiled = compile_network(network("alexnet_tiny"))
    ran = verify_network_plan(compiled.plan)
    assert ran == {"arena": True, "subgraphs": True}
    assert compiled.plan.unique_subgraphs() >= 1


def test_build_with_verify_marks_result_and_cache_entry():
    opts = AkgOptions(verify=True)
    result = build(demo_kernel("relu", [8, 32]), "verify_flag", options=opts)
    assert result.verified_clean
    # A warm hit returns the already-verified entry without re-storing.
    diskcache.reset_disk_cache_stats()
    again = build(demo_kernel("relu", [8, 32]), "verify_flag", options=opts)
    assert again.verified_clean
    stats = diskcache.disk_cache_stats()
    assert stats["hits"] == 1 and stats["stores"] == 0


def test_verify_flag_does_not_change_the_cache_key():
    build(demo_kernel("relu", [8, 32]), "verify_keyshare")
    diskcache.reset_disk_cache_stats()
    # Same program, verify on: must *hit* the unverified entry (the
    # fingerprint excludes ``verify``), verify it, and re-store it with
    # the flag so later verified requests are free.
    result = build(
        demo_kernel("relu", [8, 32]),
        "verify_keyshare",
        options=AkgOptions(verify=True),
    )
    stats = diskcache.disk_cache_stats()
    assert stats["hits"] == 1 and stats["stores"] == 1
    assert result.verified_clean
