"""Regression tests: the staged pipeline must equal the monolithic one.

``build`` is now the composition of :func:`repro.core.frontend.run_frontend`
and :func:`repro.core.compiler.backend_build`.  These tests pin the
contract that made the split safe:

- reusing one ``FrontEnd`` across many backend builds yields the same
  ``Program`` text and cycle count as a fresh monolithic ``build`` at the
  same tile sizes (for representative kernel shapes: elementwise chain,
  GEMM, conv, and a reduction);
- the serial and parallel auto-tuner return identical best sizes *and*
  identical histories for a fixed seed;
- a ``FrontEnd`` survives pickling (the parallel tuner's transport).
"""

import pickle

import pytest

from repro.core import diskcache
from repro.core.compiler import AkgOptions, backend_build, build
from repro.core.frontend import run_frontend
from repro.ir import ops
from repro.ir.tensor import placeholder


def _elementwise_chain():
    x = placeholder((32, 128), "fp16", name="X")
    y = placeholder((32, 128), "fp16", name="Y")
    return ops.relu(ops.add(x, y, name="s"), name="out")


def _gemm():
    a = placeholder((64, 64), "fp16", name="A")
    b = placeholder((64, 64), "fp16", name="B")
    return ops.matmul(a, b, name="out")


def _conv():
    d = placeholder((1, 8, 16, 16), "fp16", name="D")
    w = placeholder((8, 8, 3, 3), "fp16", name="W")
    return ops.conv2d(d, w, stride=(1, 1), padding=(1, 1), name="out")


def _softmax():
    x = placeholder((16, 64), "fp16", name="X")
    return ops.softmax_last_axis(x, name="out")


KERNELS = {
    "elementwise": (_elementwise_chain, [[8, 64], [16, 128], [32, 32]]),
    "gemm": (_gemm, [[16, 64], [32, 32], [64, 16]]),
    "conv": (_conv, [[1, 8, 8, 16], [1, 4, 16, 16]]),
    "softmax": (_softmax, [[8, 64], [16, 32]]),
}


class TestStagedEqualsMonolithic:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_same_program_and_cycles_at_fixed_sizes(self, name):
        builder, size_lists = KERNELS[name]
        frontend = run_frontend(builder(), name)
        for sizes in size_lists:
            staged = backend_build(frontend, AkgOptions(tile_sizes=sizes))
            mono = build(builder(), name, options=AkgOptions(tile_sizes=sizes))
            assert staged.program.dump() == mono.program.dump()
            assert staged.cycles() == mono.cycles()
            assert staged.tile_sizes == mono.tile_sizes

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_auto_tiling_path_matches(self, name):
        """Default options (Auto Tiling) through both entry points."""
        builder, _ = KERNELS[name]
        frontend = run_frontend(builder(), name)
        staged = backend_build(frontend)
        mono = build(builder(), name)
        assert staged.tile_sizes == mono.tile_sizes
        assert staged.program.dump() == mono.program.dump()
        assert staged.cycles() == mono.cycles()

    def test_frontend_reuse_is_stateless(self):
        """Backend builds must not corrupt the shared front-end."""
        frontend = run_frontend(_gemm(), "gemm")
        first = backend_build(frontend, AkgOptions(tile_sizes=[16, 64]))
        for sizes in ([64, 16], [8, 8], [32, 64]):
            backend_build(frontend, AkgOptions(tile_sizes=sizes))
        again = backend_build(frontend, AkgOptions(tile_sizes=[16, 64]))
        assert again.program.dump() == first.program.dump()

    def test_frontend_is_picklable(self):
        frontend = run_frontend(_conv(), "conv")
        clone = pickle.loads(pickle.dumps(frontend))
        sizes = [1, 4, 16, 16]
        a = backend_build(frontend, AkgOptions(tile_sizes=sizes))
        b = backend_build(clone, AkgOptions(tile_sizes=sizes))
        assert a.program.dump() == b.program.dump()


class TestTunerEquivalence:
    def test_serial_and_parallel_tuner_agree(self):
        from repro.autotune.tuner import tune_tile_sizes

        kwargs = dict(seed=3, first_round=6, round_size=3, max_rounds=2)
        best_s, hist_s = tune_tile_sizes(_gemm(), "gemm", **kwargs)
        # With the cache on, the parallel run would read every candidate's
        # cycles back from the serial run's entries and never use its pool.
        with diskcache.disabled():
            best_p, hist_p = tune_tile_sizes(
                _gemm(), "gemm", parallel=True, workers=2, **kwargs
            )
        assert best_s == best_p
        assert [(r.sizes, r.cycles) for r in hist_s] == [
            (r.sizes, r.cycles) for r in hist_p
        ]

    def test_tuned_best_reproduces_through_plain_build(self):
        """The tuner's winning sizes give the same cycles via plain build."""
        from repro.autotune.tuner import tune_tile_sizes

        best, history = tune_tile_sizes(
            _elementwise_chain(), "ew", seed=1,
            first_round=6, round_size=3, max_rounds=1,
        )
        best_cycles = min(r.cycles for r in history)
        rebuilt = build(
            _elementwise_chain(), "ew", options=AkgOptions(tile_sizes=best)
        )
        assert float(rebuilt.cycles()) == best_cycles
