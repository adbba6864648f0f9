"""``scripts/reachability.py`` keeps two identical functions in two files
apart: code objects compare equal across files when their name, first
line and bytecode match, so a tracer keyed by code object would credit
one file's calls to the other.  Its report counts as production only
what a run not labelled ``tests`` called."""

import importlib.util
import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "..", "scripts", "reachability.py")


def _reachability():
    spec = importlib.util.spec_from_file_location("reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identical_functions_in_two_files_are_two_callees(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    body = "def _fail(message):\n    raise ValueError(message)\n"
    for name in ("bounds", "schedule"):
        (src / f"{name}.py").write_text(body)
    site, out = tmp_path / "site", tmp_path / "out"
    site.mkdir()
    out.mkdir()
    (site / "sitecustomize.py").write_text(_reachability().SITECUSTOMIZE)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(site), str(src)]),
        REACH_ROOT=str(tmp_path) + os.sep,
        REACH_OUT=str(out),
        REACH_LABEL="probe",
    )
    call = "import bounds, schedule\nfor m in (bounds, schedule):\n" \
        "    try:\n        m._fail('x')\n    except ValueError:\n        pass\n"
    subprocess.run([sys.executable, "-c", call], env=env, check=True)
    [dump] = list(out.iterdir())
    callees = {tuple(callee) for _, callee in json.loads(dump.read_text())}
    assert ("src/repro/bounds.py", 1, "_fail") in callees
    assert ("src/repro/schedule.py", 1, "_fail") in callees


def _groups(text):
    """``{title: [function names]}`` of a printed report."""
    groups = {}
    for line in text.splitlines():
        if line.startswith("== "):
            title = line[3:].split(":")[0]
            groups[title] = []
        else:
            groups[title].append(line.split()[1])
    return groups


def test_report_tells_test_triggered_paths_from_test_only_code(
    tmp_path, monkeypatch, capsys
):
    module = _reachability()
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    names = ("api", "error_path", "test_helper", "helper_of_helper", "dead")
    (src / "m.py").write_text("".join(f"def {n}():\n    pass\n" for n in names))
    key = {n: ["src/repro/m.py", 2 * i + 1, n] for i, n in enumerate(names)}
    out = tmp_path / "out"
    out.mkdir()
    (out / "bench-1-1.json").write_text(json.dumps([["ROOT:bench", key["api"]]]))
    (out / "tests-2-2.json").write_text(json.dumps([
        ["TEST", key["api"]],
        [key["api"], key["error_path"]],
        ["TEST", key["test_helper"]],
        [key["test_helper"], key["helper_of_helper"]],
    ]))
    monkeypatch.setattr(module, "ROOT", str(tmp_path) + os.sep)
    module.report(str(out))
    assert _groups(capsys.readouterr().out) == {
        "never reached": ["dead"],
        "reached only from tests, through a production function": ["error_path"],
        "reached only from tests, test-only code": ["test_helper", "helper_of_helper"],
    }
