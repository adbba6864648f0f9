"""The per-thread compile context: what an idle primitive costs, what a
fresh thread sees, and that the names written in ``src/`` are the names
the registries know."""

import ast
import threading
from pathlib import Path

import pytest

import repro
from repro.core import resilience
from repro.core.context import CTX, stage
from repro.core.resilience import StageBudget
from repro.tools import faultinject

SRC = Path(repro.__file__).parent


@pytest.fixture()
def calls(python_calls):
    """Python-level calls ``fn`` makes, not counting the call to ``fn``."""
    return lambda fn: python_calls(fn) - 1


class TestIdleCost:
    """The benchmark's 0.5% ``kcalls`` gate as unit tests: no clock, so
    no flake.  Every site below is on a hot path (solver loops, the warm
    request, the replay loop) — count here before adding a call to one."""

    def test_idle_fault_site(self, calls):
        assert CTX.faults is None and not CTX.frames
        # fire + os.environ.get (Mapping.get, __getitem__, encode): the
        # floor while the env spec is re-read when its value changes.
        assert calls(lambda: faultinject.fire("ilp.solve")) <= 4
        assert calls(lambda: faultinject.directive("diskcache.read")) <= 4

    def test_idle_readers(self, calls):
        assert calls(lambda: resilience.check_deadline()) == 1
        assert calls(lambda: resilience.active_stage()) == 1
        assert calls(lambda: resilience.solver_node_budget(7)) == 1
        assert calls(lambda: resilience.fm_constraint_budget(7)) == 1

    def test_readers_under_a_live_deadline(self, calls):
        with stage("outer", StageBudget(stage_seconds=60.0, solver_nodes=3)):
            with stage("inner"):
                assert calls(lambda: resilience.check_deadline()) == 1
                assert calls(lambda: resilience.active_stage()) == 1
                assert calls(lambda: resilience.solver_node_budget(7)) == 1
                assert calls(lambda: resilience.fm_constraint_budget(7)) == 1
                assert resilience.solver_node_budget(7) == 3

    def test_stage_entry(self, calls):
        def plain():
            with stage("pin.plain"):
                pass

        def budgeted():
            with stage("pin.budgeted", budget):
                pass

        budget = StageBudget(stage_seconds=60.0)
        assert calls(plain) <= 3
        with stage("pin.outer", budget):
            assert calls(budgeted) <= 3
            assert calls(plain) <= 3

    def test_collect(self, calls):
        def collecting():
            with resilience.collect():
                pass

        assert calls(collecting) <= 7


class TestThreadIsolation:
    def test_fresh_thread_sees_an_empty_context(self):
        """Parent: three stages deep, budgeted, backdated, collecting,
        a spec injected.  Child: nothing, and what it opens stays its own."""
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def child():
            barrier.wait()  # the parent is fully set up
            seen["first"] = (
                list(CTX.frames), CTX.report, CTX.faults, CTX.fault_spec,
                resilience.remaining_deadline(), resilience.solver_node_budget(7),
            )
            with stage("child.stage"), resilience.collect() as report:
                faultinject.set_spec("fm.eliminate:error")
                resilience.note_event("child.stage", "recovered")
                seen["report"] = report
                barrier.wait()  # the parent looks while this is open
                barrier.wait()

        thread = threading.Thread(target=child)
        thread.start()
        budget = StageBudget(stage_seconds=60.0, solver_nodes=3)
        with resilience.collect() as report, faultinject.inject("ilp.solve:error"):
            with stage("a", budget), stage("b"), stage("c"):
                assert resilience.backdate_deadline()
                barrier.wait()
                barrier.wait()
                assert [f.name for f in CTX.frames] == ["a", "b", "c"]
                assert CTX.report is report and report.events == []
                assert faultinject.current_spec() == "ilp.solve:error"
                assert resilience.remaining_deadline() < 0
                barrier.wait()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen["first"] == ([], None, None, None, None, 7)
        assert seen["report"].events == [{"stage": "child.stage", "kind": "recovered"}]

    def test_a_thread_that_dies_mid_stage_leaves_nothing_behind(self):
        def dies():
            faultinject.set_spec("ilp.solve:error")
            resilience.collect().__enter__()
            stage("doomed", StageBudget(stage_seconds=0.0)).__enter__()
            # ... and the thread ends here, every scope still open.

        def after():
            state.append((list(CTX.frames), CTX.report, CTX.faults))
            resilience.check_deadline()
            faultinject.fire("ilp.solve")

        state = []
        for target in (dies, after):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert state == [([], None, None)]
        assert not CTX.frames and CTX.report is None and CTX.faults is None


def _calls_to(tree, names):
    """``(call node, first string-literal argument or None)`` per call of
    a function spelled ``name(...)`` or ``module.name(...)``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        spelled = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if spelled in names and node.args:
            arg = node.args[0]
            literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            yield node, arg.value if literal else None


class TestRegistryAndSourcesAgree:
    """A typo'd site (``fire("ilp.slove")``) is a silent no-op until a
    spec names it; here it is a test failure."""

    @pytest.fixture(scope="class")
    def trees(self):
        return {
            path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))
        }

    def test_every_fired_site_is_registered_and_every_site_is_fired(self, trees):
        fired = set()
        for path, tree in trees.items():
            for node, site in _calls_to(tree, {"fire", "directive"}):
                assert site is not None, f"{path}:{node.lineno}: computed fault site"
                assert site in faultinject.SITES, f"{path}:{node.lineno}: {site!r}"
                fired.add(site)
        assert fired == set(faultinject.SITES)

    def test_a_with_statement_spells_each_stage_name_once(self, trees):
        names = []
        for path, tree in trees.items():
            for node in ast.walk(tree):
                if not isinstance(node, ast.With):
                    continue
                here = [
                    name
                    for item in node.items
                    for _, name in _calls_to(item.context_expr, {"stage"})
                ]
                assert len(here) == len(set(here)), f"{path}:{node.lineno}: {here}"
                names += here
        # The three the benchmark reads by key from perf.report()["stages"].
        assert {"backend.tile_select", "backend.tile_fit", "backend.codegen"} <= set(names)

    def test_one_stage_and_one_thread_local(self, trees):
        defs = [
            path.name
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "stage"
        ]
        assert defs == ["context.py"]
        local = [
            path.name
            for path in trees
            if path.parent.name in ("core", "tools")
            and "threading.local" in path.read_text()
        ]
        assert local == ["context.py"]

