"""The chaos sweep: every single-fault compile ends ok-and-identical or typed.

One test per (scenario, kernel) cell: build with one fault site injected
persistently, then replay the compiled program on both engines.  A cell
passes in exactly two ways — the build succeeds (possibly through
recorded degradation-ladder rungs) and the vectorized replay is
bit-identical to the scalar-oracle replay, or a typed
:class:`~repro.core.errors.ReproError` comes out.  An untyped exception
or an output mismatch fails the test by itself.

Marked ``chaos`` (deselected by default).  ``pytest -m chaos`` runs the
whole matrix; the larger kernels and the whole-network cells are also
``slow``, so ``pytest -m "chaos and not slow"`` is the quick matrix
``scripts/check.sh`` runs.  The service-level sites are driven by
``tests/service/test_chaos_serve.py``.
"""

import numpy as np
import pytest

from repro.core.compiler import AkgOptions, build
from repro.core.context import counters
from repro.core.errors import ReproError
from repro.core.resilience import StageBudget
from repro.graph import compile_network, network
from repro.ir import ops
from repro.ir.lower import lower
from repro.ir.tensor import placeholder
from repro.poly.cache import clear_solver_caches
from repro.service.core import CompileService, ServiceRequest
from repro.service.handlers import _seeded_inputs
from repro.service.wire import demo_kernel
from repro.tools import faultinject
from tests.graph.test_network_plan import _feeds
from tests.service.test_chaos_serve import SERVICE_FAULTS

pytestmark = pytest.mark.chaos

#: Every scenario injects one fault site persistently (no #limit), which
#: is the harshest setting: retry-shaped code cannot out-wait the fault,
#: it must degrade or fail typed.
CHAOS_SCENARIOS = (
    "ilp.solve:error",
    "ilp.solve:error@frontend.schedule",
    "ilp.solve:delay",
    "fm.eliminate:error",
    "sched.pluto_row:error",
    "tiling.auto_search:error",
    "fusion.posttile:error",
    "storage.promote:error",
    "diskcache.read:corrupt",
    "exec.vectorized:error",
    "verify.schedule:error",
    "verify.sync:error",
)

#: Faults aimed at the whole-network pipeline.  ``tiling.auto_search``
#: only fires for non-contraction subgraphs (the pool — a mid-network
#: compile), exercising the plan-level degradation roll-up; the
#: ``#skip=2`` storage fault lets the first subgraphs build cleanly and
#: aborts a later one, exercising the typed mid-network failure path.
NETWORK_CHAOS_SCENARIOS = (
    "tiling.auto_search:error",
    "storage.promote:error#skip=2",
    "exec.vectorized:error",
    "diskcache.read:corrupt",
)


def _add_relu():
    x = placeholder((16, 16), "fp16", name="X")
    y = placeholder((16, 16), "fp16", name="Y")
    return ops.relu(ops.add(x, y, name="s"), name="out")


#: Small kernels: the scalar replay runs once per cell.
KERNELS = {
    "relu": lambda: demo_kernel("relu", [16, 24]),
    "matmul": lambda: demo_kernel("matmul", [12, 10, 8], dtype="fp32"),
    "add_relu": _add_relu,
    "conv2d": lambda: demo_kernel("conv2d", [1, 4, 8, 8]),
}
_SLOW_KERNELS = ("add_relu", "conv2d")

CELLS = [
    pytest.param(
        spec,
        kernel,
        id=f"{spec}-{kernel}",
        marks=[pytest.mark.slow] if kernel in _SLOW_KERNELS else [],
    )
    for spec in CHAOS_SCENARIOS
    for kernel in KERNELS
]


@pytest.fixture(autouse=True)
def _cold_solver_caches():
    # A memoized solve would let a build skip the very call the fault
    # sits on, and the cell would pass without the fault ever firing.
    clear_solver_caches()


def assert_identical(got, ref):
    assert set(got) == set(ref)
    for key in ref:
        assert np.array_equal(got[key], ref[key]), f"replay != oracle at {key}"


def chaos_cell(kernel, spec):
    """Run one cell; the build result, or None when it failed typed."""
    builder, name = KERNELS[kernel], f"chaos_{kernel}"
    inputs = _seeded_inputs(lower(builder(), name), seed=0)
    # A generous deadline exists so ``delay`` faults (which backdate it)
    # have something to trip; healthy stages never come near it.  The
    # ``verify.*`` sites only fire inside the static verifier.
    options = AkgOptions(
        emit_trace=True,
        verify=spec.startswith("verify."),
        budget=StageBudget(stage_seconds=120.0),
    )
    if spec.startswith("diskcache.read"):
        # Read corruption needs entries to corrupt.
        build(builder(), name, options=options)
        clear_solver_caches()
    try:
        with faultinject.inject(spec):
            result = build(builder(), name, options=options)
            got = result.execute(inputs, engine="auto")
            ref = result.execute(inputs, engine="scalar")
    except ReproError:
        return None
    assert_identical(got, ref)
    return result


@pytest.mark.parametrize("spec,kernel", CELLS)
def test_cell_is_identical_or_typed(spec, kernel):
    chaos_cell(kernel, spec)


def test_ladder_actually_fires_somewhere():
    # The sweep must not pass vacuously (every cell failing typed): this
    # cell recovers through a recorded degradation rung.
    result = chaos_cell("relu", "tiling.auto_search:error")
    assert result is not None and result.resilience.degraded
    assert result.resilience.events


def test_sweep_covers_every_registered_fault_site():
    swept = {spec.split(":")[0] for spec in CHAOS_SCENARIOS}
    served = {spec.split(":")[0] for spec in SERVICE_FAULTS}
    service_sites = {s for s in faultinject.SITES if s.startswith("service.")}
    assert served == service_sites
    # autotune.worker is the tune-through-the-service cell below.
    assert swept == set(faultinject.SITES) - {"autotune.worker"} - service_sites


# -- negative controls: the cell check must bite ------------------------------


def test_untyped_exception_from_build_fails_the_cell(monkeypatch):
    def untyped(message, stage=None):
        return KeyError(message)

    monkeypatch.setitem(faultinject.SITES, "storage.promote", untyped)
    with pytest.raises(KeyError):
        chaos_cell("relu", "storage.promote:error")


def test_one_perturbed_element_fails_the_cell(monkeypatch):
    from repro.core.compiler import CompileResult

    execute = CompileResult.execute

    def perturbed(self, inputs, engine="auto"):
        outputs = execute(self, inputs, engine=engine)
        if engine == "auto":
            outputs["out"].flat[0] += 1
        return outputs

    monkeypatch.setattr(CompileResult, "execute", perturbed)
    with pytest.raises(AssertionError, match="replay != oracle"):
        chaos_cell("relu", "tiling.auto_search:error")


# -- worker-crash chaos through the compile service ---------------------------


def test_service_survives_tuner_worker_crash(monkeypatch):
    """``REPRO_FAULT_SPEC`` (the environment — the tuner's pool children
    must inherit it) kills every measurement worker with ``os._exit(1)``.
    The pool retry also crashes, measurement degrades sticky-serial and
    the tune ends ok or typed, while compile requests on sibling worker
    threads finish untouched and the queue keeps serving.  Every wait is
    bounded: a wedged queue raises out of ``result(timeout=)``.
    """
    serial_before = counters("resilience.").get("autotune.pool.fallback:serial", 0)
    monkeypatch.setenv("REPRO_FAULT_SPEC", "autotune.worker:crash")
    with CompileService(workers=2) as service:
        tune = service.submit(
            ServiceRequest(
                "tune",
                demo_kernel("relu", [16, 24]),
                name="chaos_serve_tune",
                tune_params={
                    "parallel": True,
                    "workers": 2,
                    "first_round": 4,
                    "round_size": 2,
                    "max_rounds": 1,
                    "seed": 0,
                },
            )
        )
        healthy = [
            service.submit(
                ServiceRequest(
                    "compile", demo_kernel("add", [16, 16]), name="chaos_serve_add"
                )
            )
            for _ in range(3)
        ]
        tuned = tune.result(timeout=300)
        assert tuned.ok or isinstance(tuned.error_exc, ReproError), tuned.error
        assert all(t.result(timeout=300).ok for t in healthy)
        post = ServiceRequest(
            "compile", demo_kernel("relu", [8, 8]), name="chaos_serve_post"
        )
        assert service.run(post, timeout=300).ok, "queue dead after the crash"
    assert (
        counters("resilience.").get("autotune.pool.fallback:serial", 0) > serial_before
    )


# -- whole-network cells ------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("spec", NETWORK_CHAOS_SCENARIOS)
def test_network_cell_is_identical_or_typed(spec):
    if spec.startswith("diskcache.read"):
        compile_network(network("alexnet_tiny"))
        clear_solver_caches()
    try:
        with faultinject.inject(spec):
            plan = compile_network(network("alexnet_tiny")).plan
            feeds = _feeds(plan, seed=0, batch=1)
            got = plan.replay(feeds)
            ref = plan.oracle(feeds)
    except ReproError:
        return
    assert_identical(got[0], ref[0])
