"""The per-thread compile context: what an idle primitive costs, what a
fresh thread sees, and that the names written in ``src/`` are the names
the registries know."""

import ast
import threading
from pathlib import Path

import pytest

import repro
from repro.core import diskcache, resilience
from repro.core.context import CTX, stage
from repro.core.resilience import StageBudget
from repro.hw.spec import HardwareSpec
from repro.poly.cache import ILP_CACHE, clear_solver_caches
from repro.runtime import vectorized
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

    # The counter table's hot sites, pinned at the counts the seven silos
    # had (11, 1, 5 and 2 calls); the table bumps inline, so each is at or
    # under its silo's count.

    def test_disk_cache_hit(self, calls, tmp_path):
        cache = diskcache.DiskCache(str(tmp_path / "c"))
        key = diskcache.digest("pin", "hit")
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}
        assert calls(lambda: cache.get(key)) <= 11

    def test_solver_lookup(self, calls):
        key = ("pin", "lookup")
        assert calls(lambda: ILP_CACHE.lookup(key)) == 1  # a miss
        ILP_CACHE.store(key, 1)
        assert calls(lambda: ILP_CACHE.lookup(key)) == 1  # a hit
        clear_solver_caches()

    def test_clear_solver_caches(self, calls):
        assert calls(lambda: clear_solver_caches()) <= 5

    def test_statement_credit(self, calls):
        assert calls(lambda: vectorized.note_vectorized(0.0)) <= 2

    def test_default_machine(self, calls):
        # A copy of the parsed ASCEND_910, taken without a helper call.
        assert calls(lambda: HardwareSpec()) == 1


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



def _is_lock(call):
    """``threading.Lock()`` / ``Lock()`` (and the ``RLock`` spellings)."""
    func = call.func
    spelled = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return spelled in ("Lock", "RLock")


def _counts_from_zero(value):
    """A dict that starts as integer counts: ``defaultdict(int)``,
    ``Counter()``, ``dict.fromkeys(keys, 0)`` or a display of zeros."""
    if isinstance(value, ast.Dict):
        return bool(value.values) and all(
            isinstance(v, ast.Constant) and v.value == 0 for v in value.values
        )
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    spelled = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if spelled == "defaultdict":
        return bool(value.args) and getattr(value.args[0], "id", None) == "int"
    if spelled == "fromkeys":
        return len(value.args) == 2 and getattr(value.args[1], "value", None) == 0
    return spelled == "Counter"


def _bumped(tree, name):
    """Whether the module adds to ``name[...]`` (``+=``, or
    ``name[k] = name.get(k, 0) + n``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            targets, value = [node.target], None
        elif isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            continue
        for target in targets:
            if not (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == name
            ):
                continue
            if value is None or (
                isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)
            ):
                return True
    return False


class TestOneCounterTable:
    """Every process-wide counter is a label of ``context.COUNTERS``: a new
    silo (its own dict, its own lock, its own reset) fails here."""

    #: Locks that guard something other than counts.
    OTHER_LOCKS = {
        ("core/diskcache.py", "_cache_lock"),  # the rebind of the cache handle
        ("service/core.py", "_lock"),  # queue, memo and per-service counters
        ("service/server.py", "_connections_lock"),  # live connections
        ("service/client.py", "_idle_lock"),  # the keep-alive pool
        ("autotune/parallel.py", "_lock"),  # the worker pool
    }
    #: The table's own reset, and the views the benchmark reads.
    VIEWS = {
        ("core/context.py", "reset_counters"),
        ("tools/perf.py", "reset"),
        ("core/diskcache.py", "disk_cache_stats"),
        ("core/diskcache.py", "reset_disk_cache_stats"),
        ("runtime/vectorized.py", "exec_stats"),
        ("runtime/vectorized.py", "reset_exec_stats"),
        ("poly/cache.py", "solver_cache_stats"),
    }

    @pytest.fixture(scope="class")
    def trees(self):
        return {
            path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
            for path in sorted(SRC.rglob("*.py"))
        }

    def test_one_counter_dict(self, trees):
        tables = []
        for where, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                for target in targets:
                    name = getattr(target, "id", None)
                    if name is None:
                        continue
                    empty = isinstance(value, ast.Dict) and not value.keys
                    if _counts_from_zero(value) or (empty and _bumped(tree, name)):
                        tables.append((where, name))
        assert tables == [("core/context.py", "COUNTERS")]

    def test_one_counter_lock(self, trees):
        locks = set()
        for where, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    if _is_lock(node.value):
                        target = node.targets[0]
                        name = getattr(target, "id", None) or target.attr
                        locks.add((where, name))
        assert locks == self.OTHER_LOCKS | {("core/context.py", "LOCK")}

    def test_no_library_module_imports_perf(self, trees):
        importers = []
        for where, tree in trees.items():
            if where.startswith("tools/"):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = {f"{node.module}.{alias.name}" for alias in node.names}
                    names.add(node.module)
                elif isinstance(node, ast.Import):
                    names = {alias.name for alias in node.names}
                else:
                    continue
                if "repro.tools.perf" in names:
                    importers.append(f"{where}:{node.lineno}")
        assert importers == []

    def test_resets_and_stats_are_the_table_and_its_views(self, trees):
        found = {
            (where, node.name)
            for where, tree in trees.items()
            for node in tree.body  # module level: process-wide, not per-object
            if isinstance(node, ast.FunctionDef)
            and (node.name.startswith("reset") or node.name.endswith("_stats"))
        }
        assert found == self.VIEWS
