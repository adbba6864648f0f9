"""The in-process compile service: coalescing, memo, failure isolation."""

import threading

import pytest

from repro.core.compiler import AkgOptions, build
from repro.core.errors import ServiceError
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.service import CompileService, ServiceRequest
from repro.tools import perf


def _matmul(m=24):
    a = placeholder((m, m), "fp16", name="A")
    b = placeholder((m, m), "fp16", name="B")
    return ops.matmul(a, b, name="out")


def _relu(shape=(16, 24)):
    x = placeholder(shape, "fp16", name="X")
    return ops.relu(x, name="out")


class TestCoalescing:
    def test_concurrent_duplicates_build_once(self):
        """N same-digest requests → one backend build, N shared results."""
        perf.reset()
        with CompileService(workers=4, autostart=False) as svc:
            tickets = [
                svc.submit(ServiceRequest("compile", _matmul(), name="dup"))
                for _ in range(8)
            ]
            stats = svc.stats()
            assert stats["inflight"] == 1
            assert stats["coalesced"] == 7
            svc.start()
            results = [t.result(timeout=300) for t in tickets]
        assert all(r.ok for r in results)
        # Exactly one backend pipeline ran: the tile-selection stage is
        # entered once per backend build, never per coalesced ticket.
        stages = perf.report()["stages"]
        assert stages["backend.tile_select"]["calls"] == 1
        # Bit-identical: every ticket sees the same compiled program.
        dumps = {r.value["result"].program.dump() for r in results}
        assert len(dumps) == 1
        flags = [r.coalesced for r in results]
        assert flags.count(True) == 7

    def test_coalesced_result_matches_direct_build(self):
        with CompileService(workers=2) as svc:
            served = svc.run(
                ServiceRequest("compile", _matmul(), name="vs_direct"),
                timeout=300,
            )
        direct = build(_matmul(), "vs_direct")
        assert served.value["result"].program.dump() == direct.program.dump()

    def test_memo_answers_repeats_without_requeue(self):
        with CompileService(workers=2) as svc:
            first = svc.run(
                ServiceRequest("compile", _relu(), name="memo"), timeout=300
            )
            again = svc.submit(ServiceRequest("compile", _relu(), name="memo"))
            assert again.done()
            res = again.result(timeout=1)
            stats = svc.stats()
        assert first.ok and res.ok and res.cached
        assert stats["memo_hits"] == 1
        assert (
            res.value["result"].program.dump()
            == first.value["result"].program.dump()
        )

    def test_different_options_do_not_coalesce(self):
        a = ServiceRequest("compile", _relu(), name="opts")
        b = ServiceRequest(
            "compile", _relu(), name="opts", options=AkgOptions(double_buffer=False)
        )
        assert a.coalescing_key() != b.coalescing_key()

    def test_fault_requests_never_coalesce(self):
        req = ServiceRequest(
            "compile", _relu(), name="f", fault_spec="ilp.solve:error"
        )
        assert req.coalescing_key() is None


#: The repo benchmark's ``serve_mix`` payload kernels, plus one tune and
#: one replay request.
KEYED_PAYLOADS = [
    {"kind": "compile", "op": op, "shape": shape}
    for op, shape in (
        ("relu", [64, 128]),
        ("relu", [48, 96]),
        ("add", [64, 128]),
        ("add", [48, 96]),
        ("softmax", [32, 64]),
        ("softmax", [16, 48]),
        ("matmul", [32, 32, 32]),
        ("matmul", [48, 32, 64]),
        ("conv2d", [1, 4, 12, 12]),
        ("conv2d", [1, 8, 8, 8]),
    )
] + [
    {"kind": "tune", "op": "matmul", "shape": [16, 16, 16], "tune": {"max_rounds": 1}},
    {"kind": "replay", "op": "relu", "shape": [8, 12], "seed": 3, "engine": "scalar"},
]


class TestKeyStability:
    """The memo, coalescing and quarantine tables key on these digests:
    however the request renders them, they must equal the composition of
    the public ``diskcache`` fingerprints."""

    @pytest.mark.parametrize(
        "payload", KEYED_PAYLOADS, ids=lambda p: f"{p['kind']}-{p['op']}{p['shape']}"
    )
    def test_keys_equal_the_public_fingerprint_composition(self, payload):
        from repro.core import diskcache
        from repro.hw.spec import HardwareSpec
        from repro.service.request import DEFAULT_TUNE_PARAMS
        from repro.service.wire import request_from_json

        req = request_from_json(payload)
        ir = diskcache.ir_fingerprint(req.outputs)
        hw = diskcache.hw_fingerprint(HardwareSpec())
        parts = [
            "service",
            req.kind,
            ir,
            req.name,
            hw,
            diskcache.options_fingerprint(req.options),
        ]
        if req.kind == "tune":
            merged = dict(DEFAULT_TUNE_PARAMS, **req.tune_params)
            parts.append(repr(sorted(merged.items())))
        elif req.kind == "replay":
            parts += [f"engine={req.engine}", f"seed={req.seed}"]
        assert req.coalescing_key() == diskcache.digest(*parts)
        assert req.quarantine_key() == diskcache.digest("poison", ir, hw)
        # Either key may be asked for first.
        again = request_from_json(payload)
        assert again.quarantine_key() == req.quarantine_key()
        assert again.coalescing_key() == req.coalescing_key()

    def test_mutated_hw_object_changes_both_keys(self):
        from repro.hw.spec import HardwareSpec

        hw = HardwareSpec()
        before = ServiceRequest("compile", _relu(), name="hw", hw=hw)
        default = ServiceRequest("compile", _relu(), name="hw")
        assert before.coalescing_key() == default.coalescing_key()
        assert before.quarantine_key() == default.quarantine_key()
        hw.sync_cycles += 1
        after = ServiceRequest("compile", _relu(), name="hw", hw=hw)
        assert after.coalescing_key() != before.coalescing_key()
        assert after.quarantine_key() != before.quarantine_key()
        # ... and the default hardware's fingerprint did not move with it.
        fresh = ServiceRequest("compile", _relu(), name="hw")
        assert fresh.coalescing_key() == default.coalescing_key()

    def test_unfingerprintable_ir_has_no_keys(self):
        req = ServiceRequest("compile", object(), name="opaque")
        assert req.coalescing_key() is None
        assert req.quarantine_key() is None

    def test_memo_hit_reports_the_programs_sha256(self):
        import hashlib

        from repro.service.wire import result_to_json

        with CompileService(workers=1) as svc:
            first = svc.run(ServiceRequest("compile", _relu(), name="sha"), timeout=300)
            hit = svc.run(ServiceRequest("compile", _relu(), name="sha"), timeout=300)
        assert hit.cached and not first.cached
        dump = hit.value["result"].program.dump()
        expected = hashlib.sha256(dump.encode()).hexdigest()
        assert result_to_json(hit)["program_sha256"] == expected
        assert result_to_json(first)["program_sha256"] == expected


class TestFailureIsolation:
    def test_typed_error_is_per_request(self):
        """A faulted request fails typed; concurrent healthy ones finish."""
        with CompileService(workers=2) as svc:
            bad = svc.submit(
                ServiceRequest(
                    "compile",
                    _relu((16, 16)),
                    name="bad",
                    fault_spec="storage.promote:error",
                )
            )
            good = [
                svc.submit(
                    ServiceRequest("compile", _relu((16, 16)), name="good")
                )
                for _ in range(3)
            ]
            bad_res = bad.result(timeout=300)
            good_res = [t.result(timeout=300) for t in good]
            alive = svc.run(
                ServiceRequest("compile", _matmul(16), name="after"),
                timeout=300,
            )
        assert not bad_res.ok
        assert bad_res.error["type"] == "CodegenError"
        assert bad_res.error["exit_code"] == 8
        assert all(r.ok for r in good_res)
        dumps = {r.value["result"].program.dump() for r in good_res}
        assert len(dumps) == 1
        assert alive.ok

    def test_raise_for_error_rethrows_original(self):
        from repro.core.errors import CodegenError

        with CompileService(workers=1) as svc:
            res = svc.run(
                ServiceRequest(
                    "compile",
                    _relu(),
                    name="rethrow",
                    fault_spec="storage.promote:error",
                ),
                timeout=300,
            )
        with pytest.raises(CodegenError):
            res.raise_for_error()

    def test_failed_results_are_not_memoized(self):
        with CompileService(workers=1) as svc:
            svc.run(
                ServiceRequest(
                    "compile",
                    _relu(),
                    name="nomemo",
                    fault_spec="storage.promote:error",
                ),
                timeout=300,
            )
            assert svc.stats()["memo_entries"] == 0

    def test_untyped_failure_is_logged_a_typed_one_is_not(self, caplog, monkeypatch):
        """The action line "see the daemon log" points at a real record:
        the traceback of an untyped failure, and of nothing else."""
        from repro.service import handlers

        def crash(request, options):
            raise RuntimeError("boom")

        monkeypatch.setitem(handlers.HANDLERS, "tune", crash)
        with CompileService(workers=1) as svc:
            typed = svc.run(
                ServiceRequest(
                    "compile",
                    _relu(),
                    name="typed",
                    fault_spec="service.dispatch:error",
                ),
                timeout=60,
            )
            untyped = svc.run(ServiceRequest("tune", _relu(), name="crash"), timeout=60)
        assert typed.error["exit_code"] == 12
        assert untyped.error["exit_code"] == 1
        assert untyped.error["action"] == "unexpected failure; see the daemon log"
        (record,) = [r for r in caplog.records if r.name == "repro.service"]
        assert record.levelname == "ERROR"
        assert record.exc_info[0] is RuntimeError
        message = record.getMessage()
        assert f"#{untyped.request_id}" in message
        assert "tune" in message and "crash" in message

    def test_queue_full_raises_service_error(self):
        with CompileService(workers=1, queue_size=1, autostart=False) as svc:
            svc.submit(ServiceRequest("compile", _relu(), name="q0"))
            with pytest.raises(ServiceError):
                svc.submit(ServiceRequest("compile", _matmul(), name="q1"))
            svc.start()

    def test_closed_service_rejects_submissions(self):
        svc = CompileService(workers=1)
        svc.close()
        with pytest.raises(ServiceError):
            svc.submit(ServiceRequest("compile", _relu(), name="late"))


class TestRequestKinds:
    def test_replay_matches_direct_execution(self):
        import numpy as np

        from repro.service.handlers import _seeded_inputs

        with CompileService(workers=2) as svc:
            res = svc.run(
                ServiceRequest("replay", _relu((8, 12)), name="rp", seed=7),
                timeout=300,
            )
        assert res.ok
        direct = build(
            _relu((8, 12)), "rp", options=AkgOptions(emit_trace=True)
        )
        expected = direct.execute(_seeded_inputs(direct.kernel, 7))
        for name, array in expected.items():
            assert np.array_equal(res.value["outputs"][name], array)

    def test_tune_matches_direct_tuner(self):
        from repro.autotune.tuner import tune_tile_sizes

        params = {"first_round": 4, "round_size": 2, "max_rounds": 1}
        with CompileService(workers=2) as svc:
            res = svc.run(
                ServiceRequest(
                    "tune", _relu((16, 24)), name="tn", tune_params=params
                ),
                timeout=300,
            )
        assert res.ok
        best, _ = tune_tile_sizes(_relu((16, 24)), "tn", **params)
        assert res.value["best_sizes"] == list(best)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError):
            ServiceRequest("nonsense", _relu())

    def test_default_budget_applied_without_clobbering_request(self):
        from repro.service.handlers import effective_options

        opts = AkgOptions()
        eff = effective_options(ServiceRequest("compile", _relu(), options=opts), 42.0)
        assert eff.budget.stage_seconds == 42.0
        assert opts.budget.stage_seconds is None  # caller's untouched
        explicit = AkgOptions()
        explicit.budget.stage_seconds = 7.0
        eff2 = effective_options(
            ServiceRequest("compile", _relu(), options=explicit), 42.0
        )
        assert eff2.budget.stage_seconds == 7.0


@pytest.mark.slow
class TestServiceLoad:
    def test_sixteen_clients_mixed_workload(self):
        """16 closed-loop clients, duplicate-heavy mix, zero losses."""
        kernels = {
            "relu": lambda: _relu((24, 32)),
            "mm": lambda: _matmul(20),
        }
        stream = [
            (name, fn()) for _ in range(12) for name, fn in kernels.items()
        ]
        results = [None] * len(stream)
        counter = iter(range(len(stream)))
        lock = threading.Lock()

        with CompileService(workers=4) as svc:
            def client():
                while True:
                    with lock:
                        i = next(counter, None)
                    if i is None:
                        return
                    name, outputs = stream[i]
                    results[i] = svc.run(
                        ServiceRequest("compile", outputs, name=name),
                        timeout=300,
                    )

            threads = [threading.Thread(target=client) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats()

        assert all(r is not None and r.ok for r in results)
        assert stats["completed"] + stats["failed"] <= len(stream)
        assert stats["coalesced"] + stats["memo_hits"] > 0
        by_name = {}
        for (name, _), res in zip(stream, results):
            by_name.setdefault(name, set()).add(
                res.value["result"].program.dump()
            )
        assert all(len(dumps) == 1 for dumps in by_name.values())
