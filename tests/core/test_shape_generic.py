"""Shape-generic compilation: symbolic dims end to end.

One compile per *shape class* (op graph + symbolic leading dim with a
declared max) serves every batch size in ``[1, max]``: lowering records
the symbolic identity, the parametric legality proof decides
shape-generic vs concretize-at-upper-bound, the disk-cache fingerprint
buckets all batch sizes of a class together, and replay binds the
concrete dim from the input arrays and clamps the tile boxes.
"""

import numpy as np
import pytest

from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.core.context import counters
from repro.hw.spec import HardwareSpec
from repro.ir import ops
from repro.ir.lower import lower
from repro.ir.tensor import SymDim, placeholder, reduce_axis
from repro.runtime.reference import evaluate_kernel, infer_bindings
from repro.service import CompileService, ServiceRequest
from repro.service.wire import demo_kernel
from repro.tiling.auto import AutoTiler


def _shapeclass():
    """The shape-class probe counters, both keys present."""
    return {"hits": 0, "misses": 0, **counters("shapeclass.")}


def _sym_relu(batch_max=8, cols=24):
    x = placeholder((SymDim("N", batch_max), cols), "fp16", name="X")
    return ops.relu(x, name="out")


def _concrete_relu(batch, cols=24):
    x = placeholder((batch, cols), "fp16", name="X")
    return ops.relu(x, name="out")


class TestLowering:
    def test_sym_dims_recorded_on_kernel(self):
        kernel = lower(_sym_relu(batch_max=8), "sym_lower")
        assert kernel.sym_dims == {"N": 8}
        x = next(t for t in kernel.inputs if t.name == "X")
        assert x.shape[0] == 8  # concrete view is the declared max
        assert x.sym_axes[0].name == "N"

    def test_reduce_axis_rejects_symbolic_bounds(self):
        with pytest.raises(ValueError):
            reduce_axis((0, SymDim("K", 16)))

    def test_symdim_validates(self):
        with pytest.raises(ValueError):
            SymDim("N", 0)
        with pytest.raises(ValueError):
            SymDim("", 4)


class TestLegality:
    def test_batch_pointwise_proves_generic(self):
        res = build(_sym_relu(), "sg_legal", options=AkgOptions(emit_trace=True))
        assert res.kernel.shape_generic
        assert not any(
            e["stage"] == "frontend.shape_generic" for e in res.resilience.events
        )

    def test_reduction_over_sym_dim_concretizes(self):
        # batch_norm_reduce reduces *over* the leading dim: the structural
        # gate must refuse and fall back to concretize-at-upper-bound,
        # with an explaining event that does not mark the build degraded.
        x = placeholder((SymDim("N", 8), 4, 3, 3), "fp16", name="X")
        mean, var = ops.batch_norm_reduce(x)
        res = build([mean, var], "sg_bn", options=AkgOptions(emit_trace=True))
        assert not res.kernel.shape_generic
        events = [
            e for e in res.resilience.events
            if e["stage"] == "frontend.shape_generic"
        ]
        assert len(events) == 1
        assert events[0]["kind"] == "concretized"
        assert not res.resilience.degraded


class TestFingerprintBucketing:
    def test_same_class_same_fingerprint(self):
        # Two graphs of the same shape class fingerprint identically —
        # that IS the cache bucketing (graph shape doesn't depend on the
        # requested batch, only on the class).
        fp1 = diskcache.ir_fingerprint(_sym_relu(batch_max=8))
        fp2 = diskcache.ir_fingerprint(_sym_relu(batch_max=8))
        assert fp1 == fp2

    def test_different_max_different_class(self):
        fp8 = diskcache.ir_fingerprint(_sym_relu(batch_max=8))
        fp16 = diskcache.ir_fingerprint(_sym_relu(batch_max=16))
        assert fp8 != fp16

    def test_symbolic_differs_from_concrete_at_max(self):
        # A symbolic kernel replays differently from its concrete-max
        # twin (runtime clamping), so they must not share a cache slot.
        sym = diskcache.ir_fingerprint(_sym_relu(batch_max=8))
        conc = diskcache.ir_fingerprint(_concrete_relu(8))
        assert sym != conc

    def test_second_batch_size_is_a_shapeclass_hit(self):
        opts = AkgOptions()
        build(demo_kernel("relu", [8, 32], batch_max=8), "sg_hit", options=opts)
        # Cold: the program probe misses, then the front-end probe.
        assert _shapeclass() == {"hits": 0, "misses": 2}
        build(demo_kernel("relu", [3, 32], batch_max=8), "sg_hit", options=opts)
        # Another batch size of the class: one read, the program entry.
        assert _shapeclass() == {"hits": 1, "misses": 2}


class TestReplayBinding:
    def test_bit_identical_across_bindings_and_engines(self):
        res = build(
            _sym_relu(batch_max=8), "sg_replay",
            options=AkgOptions(emit_trace=True),
        )
        rng = np.random.default_rng(7)
        for b in (1, 3, 8):
            x = rng.standard_normal((b, 24)).astype(np.float16)
            oracle = lower(_concrete_relu(b), "sg_oracle")
            want = evaluate_kernel(oracle, {"X": x}, engine="scalar")["out"]
            for engine in ("scalar", "vectorized"):
                got = res.execute({"X": x}, engine=engine)["out"]
                assert got.shape == (b, 24)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (b, engine)

    def test_partial_tiles_clamp(self):
        # matmul over a symbolic M exercises real (non-unit) tile boxes:
        # the clamped schedule must drop/trim tiles past the binding.
        bmax = 16
        a = placeholder((SymDim("M", bmax), 24), "fp16", name="A")
        b_ = placeholder((24, 40), "fp16", name="B")
        res = build(
            ops.matmul(a, b_, name="out"), "sg_mm",
            options=AkgOptions(emit_trace=True),
        )
        assert res.kernel.shape_generic
        rng = np.random.default_rng(11)
        bv = rng.standard_normal((24, 40)).astype(np.float16)
        for m in (1, 5, 16):
            av = rng.standard_normal((m, 24)).astype(np.float16)
            ap = placeholder((m, 24), "fp16", name="A")
            bp = placeholder((24, 40), "fp16", name="B")
            oracle = lower(ops.matmul(ap, bp, name="out"), "sg_mm_oracle")
            want = evaluate_kernel(
                oracle, {"A": av, "B": bv}, engine="scalar"
            )["out"]
            got = res.execute({"A": av, "B": bv})["out"]
            assert got.shape == (m, 40)
            assert np.array_equal(got, want), m

    def test_full_max_shape_inputs_still_accepted(self):
        # Arrays padded to the declared max bind to the max (no slicing
        # surprise): behaviour is the concrete-max kernel's.
        res = build(
            _sym_relu(batch_max=8), "sg_max",
            options=AkgOptions(emit_trace=True),
        )
        x = np.random.default_rng(0).standard_normal((8, 24)).astype(np.float16)
        got = res.execute({"X": x})["out"]
        assert got.shape == (8, 24)

    def test_concretized_kernel_rejects_below_max_binding(self):
        x = placeholder((SymDim("N", 8), 4, 3, 3), "fp16", name="X")
        mean, var = ops.batch_norm_reduce(x)
        res = build(
            [mean, var], "sg_bn_replay", options=AkgOptions(emit_trace=True)
        )
        assert not res.kernel.shape_generic
        small = np.zeros((3, 4, 3, 3), np.float16)
        with pytest.raises(ValueError, match="concretized"):
            res.execute({"X": small})

    def test_inconsistent_bindings_rejected(self):
        lead = SymDim("N", 8)
        a = placeholder((lead, 6), "fp16", name="A")
        b = placeholder((lead, 6), "fp16", name="B")
        kernel = lower(ops.add(a, b, name="out"), "sg_incons")
        with pytest.raises(ValueError, match="inconsistent"):
            infer_bindings(
                kernel,
                {"A": np.zeros((3, 6)), "B": np.zeros((5, 6))},
            )

    def test_out_of_range_binding_rejected(self):
        kernel = lower(_sym_relu(batch_max=8), "sg_range")
        with pytest.raises(ValueError, match=r"\[1, 8\]"):
            infer_bindings(kernel, {"X": np.zeros((9, 24))})


class TestServiceCoalescing:
    def test_batch_sizes_of_one_class_coalesce(self):
        """4 batch sizes, 1 shape class → one backend build."""
        with CompileService(workers=4, autostart=False) as svc:
            tickets = [
                svc.submit(ServiceRequest(
                    "compile",
                    demo_kernel("relu", [b, 32], batch_max=8),
                    name="sg_svc",
                ))
                for b in (1, 3, 5, 8)
            ]
            stats = svc.stats()
            assert stats["inflight"] == 1
            assert stats["coalesced"] == 3
            svc.start()
            results = [t.result(timeout=300) for t in tickets]
        assert all(r.ok for r in results)
        dumps = {r.value["result"].program.dump() for r in results}
        assert len(dumps) == 1

    def test_replay_digests_distinct_per_binding(self):
        r1 = ServiceRequest(
            "replay", demo_kernel("relu", [3, 32], batch_max=8),
            name="sg_rp", seed=2, bindings={"N": 3},
        )
        r2 = ServiceRequest(
            "replay", demo_kernel("relu", [8, 32], batch_max=8),
            name="sg_rp", seed=2, bindings={"N": 8},
        )
        assert r1.coalescing_key() != r2.coalescing_key()

    def test_replay_outputs_bound_shape(self):
        with CompileService(workers=2) as svc:
            served = svc.run(
                ServiceRequest(
                    "replay", demo_kernel("relu", [3, 32], batch_max=8),
                    name="sg_rp_out", seed=5, bindings={"N": 3},
                ),
                timeout=300,
            )
        assert served.ok
        assert served.value["outputs"]["out"].shape == (3, 32)

    def test_stats_expose_shapeclass_counters(self):
        with CompileService(workers=1) as svc:
            svc.run(
                ServiceRequest(
                    "compile", demo_kernel("relu", [4, 16], batch_max=4),
                    name="sg_stats",
                ),
                timeout=300,
            )
            snap = svc.stats()
        assert "shapeclass" in snap
        assert snap["shapeclass"]["misses"] >= 1


class TestAutoTilerPinning:
    def _evaluator(self, extents):
        from repro.tiling.auto import LinearFootprintEvaluator

        factors = [(d, 1.0, 0.0) for d in range(len(extents))]
        terms = [("UB", 2, list(factors), True) for _ in range(3)]
        return LinearFootprintEvaluator(terms)

    def test_fixed_dim_stays_pinned(self):
        extents = [64, 48]
        tiler = AutoTiler(
            HardwareSpec(), self._evaluator(extents), extents,
            fixed_sizes={0: 1},
        )
        sizes = tiler.search()
        assert sizes[0] == 1  # the pinned (symbolic) dim never moves
        assert sizes[1] >= 1

    def test_fixed_size_clamped_to_extent(self):
        extents = [2, 48]
        tiler = AutoTiler(
            HardwareSpec(), self._evaluator(extents), extents,
            fixed_sizes={0: 4},
        )
        assert tiler.search()[0] == 2
