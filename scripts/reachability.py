#!/usr/bin/env python3
"""Which functions under ``src/repro`` does anything reach, and from where?

    python scripts/reachability.py run OUT --label tests -- python -m pytest -q
    python scripts/reachability.py run OUT --label examples -- python examples/quickstart.py
    python scripts/reachability.py report OUT

``run`` puts a generated ``sitecustomize.py`` first on ``PYTHONPATH``, so
the command and every Python process it starts record each call into
``src/repro`` as an edge from the nearest repo frame above it (a
``src/repro`` function, ``TEST`` for ``tests/``, ``ROOT:<dir>`` for
``bench/``, ``benchmarks/``, ``examples/`` ...) and write the edges to
``OUT`` at exit.  Label the test-suite runs ``tests``; every other label
is a production surface.

``report`` diffs the edges against the ``ast`` list of functions and
prints two lists: functions nothing reached, and functions reached only
from tests -- no edge from a production run, from ``bench/``,
``benchmarks/`` or ``examples/``, or from a function those reach.

Two traps: pytest-benchmark pauses tracing while it times, so run
``benchmarks/`` with ``--benchmark-disable``; ``bench/run.py`` replaces
``PYTHONPATH``, so start ``python -m akgbench.worker`` directly (with
``bench`` on the path).  Tracing costs ~3x: tier-1 takes ~6 minutes.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep

SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_ROOT = os.environ["REACH_ROOT"]
_SRC = _ROOT + "src/repro/"
_keys, _edges = {}, set()


def _key(code):
    try:
        return _keys[code]
    except KeyError:
        name = code.co_filename
        if name.startswith(_SRC):
            key = (name[len(_ROOT):], code.co_firstlineno, code.co_name)
        elif name.startswith(_ROOT + "tests/"):
            key = "TEST"
        elif name.startswith(_ROOT):
            key = "ROOT:" + name[len(_ROOT):].split("/")[0]
        else:
            key = None
        _keys[code] = key
        return key


def _tracer(frame, event, arg):
    callee = _key(frame.f_code)
    if type(callee) is tuple:
        caller, back = None, frame.f_back
        while back is not None and caller is None:
            caller, back = _key(back.f_code), back.f_back
        _edges.add((caller or "EXT", callee))


def _dump():
    if _edges:
        path = os.path.join(os.environ["REACH_OUT"], "%s-%d-%d.json" % (
            os.environ["REACH_LABEL"], os.getpid(), id(_edges)))
        with open(path, "w") as fh:
            json.dump(sorted(_edges, key=repr), fh)


sys.settrace(_tracer)
threading.settrace(_tracer)
atexit.register(_dump)
os.register_at_fork(after_in_child=_edges.clear)

import multiprocessing.process as _mp  # noqa: E402

_bootstrap = _mp.BaseProcess._bootstrap


def _traced_bootstrap(self, *args, **kwargs):
    try:
        return _bootstrap(self, *args, **kwargs)
    finally:
        _dump()  # children leave through os._exit, skipping atexit


_mp.BaseProcess._bootstrap = _traced_bootstrap
'''


def run(out: str, label: str, command: list) -> int:
    site = os.path.join(out, "_site")
    os.makedirs(site, exist_ok=True)
    with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE)
    env = dict(os.environ, REACH_ROOT=ROOT, REACH_OUT=os.path.abspath(out), REACH_LABEL=label)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (site, os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.call(command, env=env, cwd=ROOT)


def functions() -> dict:
    """``(path, first line, name) -> (qualified name, line count)`` of every
    function under ``src/repro``; the first line is the first decorator's,
    as in ``co_firstlineno``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, first, child.name)] = (
                    prefix + child.name, child.end_lineno - first + 1
                )
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(glob.glob(ROOT + "src/repro/**/*.py", recursive=True)):
        with open(path) as fh:
            visit(ast.parse(fh.read()), path[len(ROOT):], "")
    return found


def report(out: str) -> None:
    edges, production = set(), set()
    for path in glob.glob(os.path.join(out, "*.json")):
        label = os.path.basename(path).split("-")[0]
        with open(path) as fh:
            for caller, callee in json.load(fh):
                caller = caller if isinstance(caller, str) else tuple(caller)
                edges.add((caller, tuple(callee)))
                if label != "tests" or (isinstance(caller, str) and caller != "TEST"):
                    production.add(tuple(callee))
    callees = defaultdict(set)
    for caller, callee in edges:
        callees[caller].add(callee)
    work = list(production)
    while work:
        for callee in callees[work.pop()]:
            if callee not in production:
                production.add(callee)
                work.append(callee)
    reached = {callee for _, callee in edges}
    defs = functions()
    for title, keys in (
        ("never reached", [k for k in defs if k not in reached]),
        ("reached only from tests", [k for k in defs if k in reached - production]),
    ):
        print(f"== {title}: {len(keys)} functions, {sum(defs[k][1] for k in keys)} lines")
        for path, line, _ in sorted(keys):
            name, size = defs[(path, line, _)]
            print(f"  {path}:{line} {name} ({size} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    run_p = sub.add_parser("run", help="run the command after -- with call recording")
    run_p.add_argument("out")
    run_p.add_argument("--label", default="tests")
    report_p = sub.add_parser("report", help="diff recorded calls against src/")
    report_p.add_argument("out")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    if args.verb == "run":
        return run(args.out, args.label, argv[split + 1 :])
    report(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
