import json
import os
import re

from akgbench import metrics

from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_generated_from_the_metric_table():
    spec = _spec()
    assert spec == metrics.benchmark_json(
        spec["command"], spec["paths"], spec["run_seconds"]
    )
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }


def test_names_and_units_fit_the_contract():
    spec = _spec()
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60


def test_setup_s_is_present_with_the_largest_bound():
    e2e = {m["name"]: m for m in _spec()["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_paths_are_new_directories_and_the_command_stays_inside_them():
    spec = _spec()
    assert spec["paths"] == ["bench"]
    for arg in spec["command"][1:]:
        assert arg.startswith("bench/") and ".." not in arg
    for path in spec["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))


def test_every_workload_names_what_fills_each_generic_metric():
    workloads = {name for name, _why in metrics.WORKLOADS}
    assert set(metrics.ALIASES) == workloads
    generic = {name for name, *_ in metrics.END_TO_END}
    for workload, aliases in metrics.ALIASES.items():
        assert set(aliases) == {"op_cpu_ms", "aux_cpu_ms", "kcalls"}, workload
        assert set(aliases) <= generic
        for own in aliases.values():
            assert NAME.match(own)
    for name in metrics.UNGATED_UNITS:
        assert NAME.match(name)


def test_each_workload_module_has_the_five_entry_points():
    import importlib

    import repro.core  # noqa: F401  (before repro.graph: import cycle)

    for name, _why in metrics.WORKLOADS:
        module = importlib.import_module(f"akgbench.workloads.{name}")
        for entry in ("setup", "teardown", "measure", "layers", "check"):
            assert callable(getattr(module, entry)), (name, entry)
