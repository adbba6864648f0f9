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

``EMITTED`` pins what every reader of the instruction stream makes of
the same programs -- the CCE text, both instruction counts, the whole
``SimReport`` and the race checker's verdict -- and ``CALLS`` what the
simulator, the dump and the CCE emitter cost in Python-level calls
(``BUILD_CALLS`` and ``WARM_CALLS``: a cold and a disk-hit ``build()``).
``BASELINES`` pins the TVM, expert-CCE and naive-CCE programs (Fig. 9/12)
built through the same instruction classes.

A row that moves means emitted code changed: say so in the PR and
re-pin, never edit a value to make a refactor pass.
"""

import hashlib

import pytest

import repro.codegen.cce  # noqa: F401 -- cce_code() imports it; not in CALLS
from repro.cce import cce_expert_build, cce_naive_build
from repro.core import diskcache
from repro.core.compiler import build
from repro.graph.subgraphs import paper_subgraphs
from repro.hw.isa import Pipe
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.poly.cache import clear_solver_caches
from repro.tvmbaseline.compiler import tvm_build
from repro.verify.syncs import check_program_sync


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

# name -> (cce_code() sha256[:16], static_count, flat_count, SimReport:
# busy cycles of S, V, M, MTE1, MTE2, MTE3, sync_count, dma_bytes,
# instr_counts).  The race checker passes every row.
EMITTED = {
    "add_relu_128x512": (
        "7bb783e094df37ad", 17, 56, (0, 576, 0, 0, 2304, 1152), 36, 393216,
        {"DmaInstr": 12, "SetFlag": 20, "VectorInstr": 8, "WaitFlag": 16},
    ),
    "conv2d_16x32": (
        "ee1034fb01ef2efc", 15, 15, (0, 264, 592, 1210, 356, 288), 8, 140288,
        {"CubeInstr": 1, "DmaInstr": 5, "Img2ColInstr": 1, "SetFlag": 4,
         "WaitFlag": 4},
    ),
    "matmul_256": (
        "a610f465b78afa85", 23, 80, (0, 1056, 4160, 2112, 6392, 2168), 52,
        1441792, {"CubeInstr": 4, "DmaInstr": 24, "SetFlag": 28, "WaitFlag": 24},
    ),
    "softmax_32x64": (
        "047053aea0ddc562", 46, 82, (0, 154, 0, 0, 632, 408), 51, 24896,
        {"Barrier": 3, "DmaInstr": 19, "SetFlag": 26, "VectorInstr": 12,
         "WaitFlag": 22},
    ),
    "subgraph1": (
        "14aa5ffe6514b5b2", 33, 237572,
        (0, 3014656, 655360, 2506752, 2744320, 1425408), 131076, 944898048,
        {"CubeInstr": 8192, "DmaInstr": 49152, "Img2ColInstr": 8192,
         "SetFlag": 65540, "VectorInstr": 40960, "WaitFlag": 65536},
    ),
    "subgraph2": (
        "2e60d83bf67526eb", 36, 131076, (0, 3440640, 0, 0, 2342912, 1171456),
        32772, 201326592,
        {"DmaInstr": 12288, "SetFlag": 16388, "VectorInstr": 86016,
         "WaitFlag": 16384},
    ),
    "subgraph3": (
        "d97bf03279e6fed2", 30, 198410, (0, 4578600, 0, 0, 2441920, 1220960),
        61052, 375078912,
        {"DmaInstr": 22893, "SetFlag": 30528, "VectorInstr": 114465,
         "WaitFlag": 30524},
    ),
    "subgraph4": (
        "63cb08fe59c78559", 104, 5567, (0, 66784, 0, 0, 127424, 45440), 3116,
        16846848,
        {"Barrier": 8, "DmaInstr": 1293, "SetFlag": 1560, "VectorInstr": 1158,
         "WaitFlag": 1548},
    ),
    "subgraph5": (
        "bf87a97f6e51a0a9", 36, 2052, (0, 5376, 1088, 3456, 4352, 2304), 1028,
        197760,
        {"CubeInstr": 64, "DmaInstr": 384, "Img2ColInstr": 64, "SetFlag": 516,
         "VectorInstr": 512, "WaitFlag": 512},
    ),
}

# name -> Python-level calls of simulate(), program.dump() and cce_code(),
# in that order, right after the cold build.  cce_code() reads the
# reference AST's loop bounds off each statement's iteration box (608, 776,
# 432, 854, 1287, 1507, 819, 1420, 1424 while it solved them as ILPs and
# counted on the solver caches' state).
CALLS = {
    "add_relu_128x512": (397, 74, 146),
    "conv2d_16x32": (128, 59, 300),
    "matmul_256": (525, 102, 220),
    "softmax_32x64": (569, 165, 362),
    "subgraph1": (1004, 128, 579),
    "subgraph2": (1345, 93, 1043),
    "subgraph3": (1093, 87, 619),
    "subgraph4": (1996, 391, 704),
    "subgraph5": (1130, 131, 716),
}

# name -> Python-level calls of a cold build(), the second of that kernel
# in the process: the first also fills process-wide tables no solver-cache
# reset empties (interned names, per-kernel lowering state), and its count
# depends on what ran before it.  conv2d_16x32 and subgraph5 are rows of
# the benchmark's compile_sched workload, softmax_32x64 and subgraph2 of
# its compile_tile workload; subgraph1 and subgraph4 are the two rows
# whose exact fit shrinks their start sizes (capacity_shrink asks which
# tile dims each footprint depends on at every step).  1445 / 4380 /
# 13315 / 16374, and subgraph1 74243, subgraph4 21800, while that question
# composed every access with its instance relation through
# Fourier-Motzkin and dim sinking walked every band.  1448 / 4383 /
# 13318 / 16379 while the scheduler options took part in every front-end
# key and each emission built a ``CodegenOptions``.  1936 / 4511 / 17007
# / 16364 while the scheduler built every statement's domain set for the
# tree's root (a build without a fused producer now builds none) and
# counted tiles over
# one statement's rows; subgraph5 rises by the range of every live-out
# statement's band rows, read once per band: a band is tiled from one
# origin per row, its least value over all of the band's statements.  3275 / 6107 / 20464 / 18510 while every
# live-out statement's per-tile extents and footprints were solved by
# Fourier-Motzkin rather than read off its tile window; 9535 / 9112 /
# 28466 / 26729 while separable
# dependence pairs were posed to the ILP and every dependence built its
# relation; 12455 / 9741 / 28854 / 29354 while constant objectives
# re-solved their fold's feasibility, dependences sharing a problem each
# asked its distance bounds, and band row extents were ILPs.
BUILD_CALLS = {
    "conv2d_16x32": 1351,
    "softmax_32x64": 4135,
    "subgraph1": 31910,
    "subgraph2": 12719,
    "subgraph4": 11069,
    "subgraph5": 15915,
}

# name -> Python-level calls of a warm build(), one disk-cache hit: the
# graph walk behind the key, one read and one unpickle (the rows of the
# benchmark's cache_warm workload).  311 / 159 / 236 / 1142 / 733 while
# the front-end key rendered the scheduler options; 389 / 197 / 310 /
# 1816 / 1031 while entries pickled the live-out relations and the tree root's domain sets
# (each constraint unpickled is a ``Constraint.__setstate__`` call).
WARM_CALLS = {
    "conv2d_16x32": 294,
    "matmul_256": 142,
    "softmax_32x64": 219,
    "subgraph2": 1125,
    "subgraph5": 716,
}

# (baseline, golden row) -> (dump sha256[:16], cycles)
BASELINES = {
    ("cce_expert", "conv2d_16x32"): ("cd7ef7af1327ee77", 2698),
    ("cce_expert", "matmul_256"): ("04c6086b7d89a209", 8978),
    ("cce_naive", "conv2d_16x32"): ("7be9e545db9eef6d", 5345),
    ("cce_naive", "matmul_256"): ("6e5b13a1f6f2349c", 31137),
    ("tvm", "conv2d_16x32"): ("18719d6556ae0c6a", 2746),
    ("tvm", "matmul_256"): ("58ed78c7dbe75547", 8336),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cold_build(name):
    diskcache.set_disk_cache_enabled(False)
    clear_solver_caches()
    return build(GOLDEN[name][0](), name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cold_build_emits_the_pinned_program(name):
    _builder, sha, cycles, tile_sizes = GOLDEN[name]
    result = _cold_build(name)
    digest = _sha(result.program.dump())
    assert (digest, result.cycles(), result.tile_sizes) == (sha, cycles, tile_sizes)
    assert not result.resilience.degraded


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_reader_of_the_program_is_pinned(name, python_calls):
    result = _cold_build(name)
    program = result.program
    calls = tuple(
        python_calls(fn) for fn in (result.simulate, program.dump, result.cce_code)
    )
    report = result.simulate()
    emitted = (
        _sha(result.cce_code()),
        program.static_count(),
        program.flat_count(),
        tuple(report.busy_cycles[p] for p in Pipe),
        report.sync_count,
        report.dma_bytes,
        report.instr_counts,
    )
    assert emitted == EMITTED[name]
    assert report.total_cycles == GOLDEN[name][2]
    check_program_sync(program.instructions)
    assert all(c <= pin for c, pin in zip(calls, CALLS[name])), calls


@pytest.mark.parametrize("name", sorted(BUILD_CALLS))
def test_cold_build_calls_are_pinned(name, python_calls):
    _cold_build(name)
    clear_solver_caches()
    graph = GOLDEN[name][0]()
    calls = python_calls(lambda: build(graph, name))
    assert calls <= BUILD_CALLS[name], calls


@pytest.mark.parametrize("name", sorted(WARM_CALLS))
def test_warm_build_calls_are_pinned(name, python_calls):
    clear_solver_caches()
    build(GOLDEN[name][0](), name)
    graph = GOLDEN[name][0]()
    diskcache.reset_disk_cache_stats()
    calls = python_calls(lambda: build(graph, name))
    assert diskcache.disk_cache_stats()["hits"] == 1
    assert calls <= WARM_CALLS[name], calls


@pytest.mark.parametrize("baseline, name", sorted(BASELINES))
def test_baseline_programs_are_pinned(baseline, name):
    compile_fn = {
        "cce_expert": cce_expert_build,
        "cce_naive": cce_naive_build,
        "tvm": tvm_build,
    }[baseline]
    diskcache.set_disk_cache_enabled(False)
    clear_solver_caches()
    result = compile_fn(GOLDEN[name][0](), name)
    assert (_sha(result.program.dump()), result.cycles()) == BASELINES[(baseline, name)]
