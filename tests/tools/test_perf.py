"""Tests for the perf instrumentation."""

from repro.core.context import stage
from repro.tools import perf


class TestPerf:
    def test_stage_accumulates(self):
        perf.reset()
        with stage("unit_test_stage"):
            pass
        with stage("unit_test_stage"):
            pass
        data = perf.report()
        row = data["stages"]["unit_test_stage"]
        assert row["calls"] == 2
        assert row["seconds"] >= 0.0
        assert "solver_cache" in data
        perf.reset()
        assert perf.report()["stages"] == {}

    def test_format_report_renders(self):
        perf.reset()
        with stage("render_me"):
            pass
        text = perf.format_report()
        assert "render_me" in text
        assert "solver cache [ilp]" in text
        # The simplex's work rides on the ilp line, and only there.
        (ilp_line,) = [l for l in text.splitlines() if "[ilp]" in l]
        assert " pivots over " in ilp_line and " tableau rows" in ilp_line
        assert text.count(" pivots over ") == 1
        perf.reset()

    def test_build_populates_stage_timings(self):
        from repro.core.compiler import build
        from repro.ir import ops
        from repro.ir.tensor import placeholder

        perf.reset()
        x = placeholder((16, 64), "fp16", name="X")
        build(ops.relu(x, name="out"), "k")
        stages = perf.report()["stages"]
        for expected in (
            "frontend.lower",
            "frontend.deps",
            "frontend.schedule",
            "backend.tile_fit",
            "backend.codegen",
        ):
            assert expected in stages, expected
        perf.reset()

    def test_gemm_pipeline_has_nonzero_solver_cache_hit_rate(self):
        """The solver cache serves a repeated GEMM compile: a second build
        with the disk cache off asks the ILP again and every answer is a
        memo hit.  (A cold build asks no question twice.)  The GEMM is
        built beside its mirrored copy, whose dependence poses the ILP: a
        plain GEMM's dependences are answered in closed form."""
        from repro.core import diskcache
        from repro.core.compiler import build
        from repro.ir import ops
        from repro.ir.tensor import placeholder
        from repro.poly.cache import clear_solver_caches, solver_cache_stats

        from tests.sched.test_scheduler import mirrored

        diskcache.set_disk_cache_enabled(False)
        clear_solver_caches()
        a = placeholder((64, 64), "fp16", name="A")
        b = placeholder((64, 64), "fp16", name="B")
        build(mirrored(ops.matmul(a, b, name="out")), "gemm")
        cold = solver_cache_stats()["ilp"]
        build(mirrored(ops.matmul(a, b, name="out")), "gemm")
        warm = solver_cache_stats()["ilp"]
        assert warm["hits"] > cold["hits"]
        assert warm["misses"] == cold["misses"]
        clear_solver_caches()

    def test_every_solver_table_shows_in_akgc_perf(self, capsys):
        """Each memo table reaches ``akgc --perf`` and ``perf.report()``
        through ``solver_cache_stats``, with no flag of its own: the ILP and
        FM tables, and no other (per-tile extents and footprints are read
        off tile windows)."""
        import re

        from repro.poly.cache import clear_solver_caches
        from repro.tools.akgc import main

        clear_solver_caches()
        code = main(["--network", "alexnet_tiny", "--perf", "--no-disk-cache"])
        assert code == 0
        lines = re.findall(
            r"solver cache \[(\w+)\]: (\d+) hits / (\d+) misses",
            capsys.readouterr().out,
        )
        report = perf.report()["solver_cache"]
        assert [name for name, _, _ in lines] == list(report) == ["ilp", "fm"]
        for name, hits, misses in lines:
            assert (report[name]["hits"], report[name]["misses"]) == (int(hits), int(misses))
        assert int(lines[0][2]) > 0  # alexnet_tiny's coupled pair poses the ILP
        clear_solver_caches()
        perf.reset()
