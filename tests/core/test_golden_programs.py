"""Golden programs: what a cold ``build()`` emits is pinned, byte for byte.

Every refactor of the tile-size policy, the retile ladder or the solver
caches promises "every program the compiler emits stays byte-identical";
this table is that promise as a test.  Each row pins the sha256 prefix of
``program.dump()``, the simulated cycles and the chosen tile sizes of one
kernel the repo benchmark also compiles.  The values do not depend on
``PYTHONHASHSEED``.  subgraph1/subgraph2 start from sizes the exact plan
rejects (the capacity-shrink and conv spatial-first variants run and are
measured against each other); subgraph5 fuses a stencil producer (the
split variant is measured too).

A row that moves means emitted code changed: say so in the PR and
re-pin, never edit a value to make a refactor pass.
"""

import hashlib

import pytest

from repro.core import diskcache
from repro.core.compiler import build
from repro.graph.subgraphs import paper_subgraphs
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.poly.cache import clear_solver_caches


def _conv2d_16x32():
    d = placeholder((1, 16, 32, 32), "fp16", name="D")
    w = placeholder((16, 16, 3, 3), "fp16", name="W")
    return ops.conv2d(d, w, stride=(1, 1), padding=(1, 1), name="out")


def _softmax_32x64():
    x = placeholder((32, 64), "fp16", name="X")
    return ops.softmax_last_axis(x, name="out")


def _matmul_256():
    a = placeholder((256, 256), "fp16", name="A")
    b = placeholder((256, 256), "fp16", name="B")
    return ops.matmul(a, b, name="out")


def _add_relu_128x512():
    x = placeholder((128, 512), "fp16", name="X")
    y = placeholder((128, 512), "fp16", name="Y")
    return ops.relu(ops.add(x, y, name="s"), name="out")


def _subgraph(index):
    return next(s for s in paper_subgraphs() if s.index == index).build


# name -> (builder, dump sha256[:16], cycles, tile sizes)
GOLDEN = {
    "conv2d_16x32": (_conv2d_16x32, "7487a7f4295e4e24", 2734, [1, 16, 32, 32]),
    "softmax_32x64": (_softmax_32x64, "334d5c5594a3af15", 1047, [16, 32]),
    "matmul_256": (_matmul_256, "37094ffd47c4eb19", 9066, [128, 128]),
    "add_relu_128x512": (_add_relu_128x512, "bfe233839b5d1274", 2775, [32, 512]),
    "subgraph1": (_subgraph(1), "0105270e752a3d92", 4326228, [1, 8, 2, 512]),
    "subgraph2": (_subgraph(2), "27a422e773737af7", 3490659, [8, 8, 8, 16]),
    "subgraph3": (_subgraph(3), "d7bb65505ad31444", 4670661, [4, 1024]),
    "subgraph4": (_subgraph(4), "ec1b6fb994b9f598", 131273, [4, 1024]),
    "subgraph5": (_subgraph(5), "7c3f24c284141739", 7764, [1, 1, 16, 16]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cold_build_emits_the_pinned_program(name):
    builder, sha, cycles, tile_sizes = GOLDEN[name]
    diskcache.set_disk_cache_enabled(False)
    clear_solver_caches()
    result = build(builder(), name)
    digest = hashlib.sha256(result.program.dump().encode()).hexdigest()[:16]
    assert (digest, result.cycles(), result.tile_sizes) == (sha, cycles, tile_sizes)
    assert not result.resilience.degraded
