"""Disk-cache entries of format 4: pure, and without dependences.

- An entry's bytes are a function of its key alone.  The nine golden
  rows, built in fresh interpreters under two hash seeds and in two
  compile orders, each twice per process, write byte-identical entry
  files (a ``set`` pickled in hash order, or a name string shared with
  an earlier graph, would each break this).
- A ``CompileResult`` entry holds no ``Dependence``.  ``result.deps`` on a
  hit is recomputed from the kernel and equals the cold build's list, and
  the verifier passes the hit.
"""

import hashlib
import io
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core import diskcache
from repro.core.compiler import AkgOptions, CompileResult, build
from repro.hw.spec import HardwareSpec
from repro.verify import verify_result
from tests.core.test_diskcache import _parent_keys
from tests.core.test_golden_programs import GOLDEN

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Builds every golden row in ``argv[1]`` order ("sorted"/"reversed"),
#: twice, each into its own empty cache directory under ``argv[2]``.
BUILD_ROWS = """
import os, sys
from repro.core import diskcache
from repro.core.compiler import build
from repro.poly.cache import clear_solver_caches
from tests.core.test_golden_programs import GOLDEN

order, root = sys.argv[1], sys.argv[2]
for compile_round in ("first", "second"):
    for name in sorted(GOLDEN, reverse=order == "reversed"):
        diskcache.set_cache_dir(os.path.join(root, compile_round, name))
        clear_solver_caches()
        build(GOLDEN[name][0](), name)
"""


def _entry_shas(root):
    """``{compile round: {row: {entry file: sha256}}}`` under ``root``."""
    shas = {}
    for compile_round in sorted(os.listdir(root)):
        for name in sorted(os.listdir(os.path.join(root, compile_round))):
            row = shas.setdefault(compile_round, {}).setdefault(name, {})
            for folder, _dirs, files in os.walk(os.path.join(root, compile_round, name)):
                for f in files:
                    with open(os.path.join(folder, f), "rb") as fh:
                        row[f] = hashlib.sha256(fh.read()).hexdigest()
    return shas


def test_entries_are_pure(tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    runs = {}
    for seed, order in (("0", "sorted"), ("1", "reversed")):
        root = tmp_path / f"seed{seed}"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, REPO]), PYTHONHASHSEED=seed)
        env.pop("REPRO_NO_DISK_CACHE", None)
        proc = subprocess.run(
            [sys.executable, "-c", BUILD_ROWS, order, str(root)],
            env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs[(seed, order)] = _entry_shas(root)
    first = runs[("0", "sorted")]["first"]
    assert sorted(first) == sorted(GOLDEN)
    # A front-end entry and a program entry per row.
    assert all(len(entries) == 2 for entries in first.values())
    for run in runs.values():
        assert run == {"first": first, "second": first}


class _ClassRecorder(pickle.Unpickler):
    """Unpickles while recording every class the stream names."""

    def __init__(self, payload):
        super().__init__(io.BytesIO(payload))
        self.classes = set()

    def find_class(self, module, name):
        self.classes.add((module, name))
        return super().find_class(module, name)


def _program_entry_classes(name):
    """Classes named by the payload of the stored ``CompileResult`` entry."""
    _, key = _parent_keys(GOLDEN[name][0](), name, HardwareSpec(), AkgOptions())
    with open(diskcache.get_cache()._path(key), "rb") as fh:
        payload = fh.read()[diskcache._HEADER_LEN:]
    recorder = _ClassRecorder(payload)
    assert isinstance(recorder.load(), CompileResult)
    return recorder.classes


def _dep_record(dep):
    return (
        dep.src.stmt_id,
        dep.dst.stmt_id,
        dep.kind,
        dep.tensor_name,
        dep.rename,
        dep.relation.constraints,
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_hit_recomputes_what_the_entry_leaves_out(name):
    cold = build(GOLDEN[name][0](), name)
    assert ("repro.sched.deps", "Dependence") not in _program_entry_classes(name)
    diskcache.reset_disk_cache_stats()
    warm = build(GOLDEN[name][0](), name)
    assert diskcache.disk_cache_stats()["hits"] == 1
    assert "deps" not in warm.__dict__
    assert [_dep_record(d) for d in warm.deps] == [_dep_record(d) for d in cold.deps]
    assert warm.deps is warm.deps  # computed once, then kept
    assert verify_result(warm) == {"schedule": True, "bounds": True, "sync": True}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_what_runs_on_a_front_end_leaves_its_bytes(name):
    """A dependence's posed problem and distance bounds are a memo: the
    front-end pickles alike before and after its distances are asked, its
    split variant is scheduled and a backend build runs on it."""
    from repro.core.compiler import backend_build
    from repro.core.frontend import run_frontend

    with diskcache.disabled():
        frontend = run_frontend(GOLDEN[name][0](), name)
        before = pickle.dumps(frontend)
        for dep in frontend.deps:
            dep.distance_vector()
            assert dep.is_uniform in (True, False)
        frontend.split_variant()
        backend_build(frontend, AkgOptions())
        assert pickle.dumps(frontend) == before
