"""The repo-specific rules of ``repro.tools.lint``: D001 (module-level
code nothing names) and C001 (the service's clock stays injected).

Run on a throwaway tree shaped like this repo (``src/`` beside
``tests/``), so the rule's corpus is what the test wrote and nothing else.
"""

from repro.tools.lint import lint_paths


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _d001(root):
    return sorted(
        message.split("'")[1]
        for _path, _line, _col, code, message in lint_paths([str(root / "src")])
        if code == "D001"
    )


def test_unreferenced_module_level_defs_are_reported(tmp_path):
    _write(
        tmp_path,
        "src/pkg/mod.py",
        "def used():\n    return 1\n\n\n"
        "def dead():\n    return 2\n\n\n"
        "def helper():\n    return 3\n\n\n"
        "class Orphan:\n    def method_names_do_not_count(self):\n        return helper()\n\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n",
    )
    _write(tmp_path, "tests/test_mod.py", "from pkg.mod import used\n")
    # dead and Orphan occur nowhere else; used is imported by a test,
    # helper is called inside the module, dunders are exempt, methods are
    # not module-level.
    assert _d001(tmp_path) == ["Orphan", "dead"]


def test_own_all_counts_only_when_the_module_is_imported(tmp_path):
    exported = '__all__ = ["api"]\n\n\ndef api():\n    return 1\n'
    _write(tmp_path, "src/pkg/lonely.py", exported)
    _write(tmp_path, "src/pkg/public.py", exported.replace("api", "entry"))
    _write(tmp_path, "examples/demo.py", "import pkg.public\n")
    assert _d001(tmp_path) == ["api"]


def test_the_rule_only_runs_on_a_src_directory(tmp_path):
    _write(tmp_path, "lib/mod.py", "def dead():\n    return 2\n")
    assert lint_paths([str(tmp_path / "lib")]) == []


def _c001(root, rel, text):
    _write(root, rel, text)
    return [
        (line, message.split(" — ")[0])
        for _path, line, _col, code, message in lint_paths([str(root / rel)])
        if code == "C001"
    ]


def test_service_core_reads_time_only_through_its_clock_default(tmp_path):
    core = (
        "import time\n\n\n"
        "class Service:\n"
        "    def __init__(self, clock=time.monotonic):\n"
        "        self.clock = clock\n"
        "        self.started = time.perf_counter()\n\n"
        "    def loop(self):\n"
        "        time.sleep(0.05)\n"
        "        return time.monotonic() > self.clock()\n"
    )
    assert _c001(tmp_path, "src/repro/service/core.py", core) == [
        (10, "time.sleep outside a parameter default"),
        (11, "time.monotonic outside a parameter default"),
    ]
    # The rule names two modules of one package: the client's backoff
    # sleeps, and a core.py elsewhere, are not its business.
    assert _c001(tmp_path, "src/repro/service/client.py", core) == []
    assert _c001(tmp_path, "src/repro/other/core.py", core) == []


def test_service_policies_import_neither_time_nor_threading(tmp_path):
    policies = "import threading\nfrom time import monotonic\nimport collections\n"
    assert _c001(tmp_path, "src/repro/service/policies.py", policies) == [
        (1, "a service policy imports 'threading'"),
        (2, "a service policy imports 'time.monotonic'"),
    ]
