import argparse

import numpy as np

import repro.core  # noqa: F401  (before repro.graph: import cycle)
from repro.ir.lower import lower

from akgbench import rows
from akgbench.worker import Context
from akgbench.workloads import serve_mix


def _ctx(seed):
    return Context(
        argparse.Namespace(
            workload="serve_mix", seed=seed, seconds=1.0, scratch="", trace=0
        )
    )


def test_same_seed_same_tensors_other_seed_other_tensors():
    kernel = lower(rows.conv2d(4, 8), "seeded")
    a = rows.kernel_inputs(kernel, 7)
    b = rows.kernel_inputs(kernel, 7)
    c = rows.kernel_inputs(kernel, 8)
    assert set(a) == {"D", "W"}
    for name in a:
        assert a[name].dtype == np.float16
        assert np.array_equal(a[name], b[name])
        assert not np.array_equal(a[name], c[name])
        assert np.isfinite(a[name]).all()
        assert np.abs(a[name]).max() < 4 * rows.INPUT_SCALE * 2


def test_same_seed_same_request_order():
    first, again, other = _ctx(3), _ctx(3), _ctx(4)
    order = serve_mix._cold_order(first)
    assert order == serve_mix._cold_order(again)
    assert order != serve_mix._cold_order(other)
    assert sorted(order) == sorted(
        i for i in range(len(serve_mix.PAYLOADS)) for _ in range(serve_mix.COLD_DUPLICATES)
    )
    # The warm draw continues the same stream.
    assert [first.rng.randrange(10) for _ in range(50)] == [
        again.rng.randrange(10) for _ in range(50)
    ]


def test_outputs_match_requires_finite_values_before_equality():
    inf = {"out": np.full((2, 2), np.inf, dtype=np.float16)}
    assert "non-finite" in rows.outputs_match(inf, inf)
    ok = {"out": np.ones((2, 2), dtype=np.float16)}
    assert rows.outputs_match(ok, ok) == ""
    assert "differs" in rows.outputs_match(ok, {"out": np.zeros((2, 2), dtype=np.float16)})
    assert "names" in rows.outputs_match(ok, {"other": ok["out"]})


def test_a_runtime_warning_is_a_failed_check():
    from akgbench.harness import Tally

    tally = Tally()
    checker = rows.Checker(tally, seed=0)
    ok = {"out": np.ones(3, dtype=np.float32)}

    def overflowing():
        np.float16(1e6) if False else np.array([1e6]).astype(np.float16)
        return ok

    assert checker.compare("clean", lambda: ok, lambda: ok)
    assert not checker.compare("overflow", overflowing, lambda: ok)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "RuntimeWarning" in tally.notes[0]
