"""A dependency-free linter for the checks this repo actually gates on.

This is the linter ``scripts/check.sh`` runs.  It implements the small
rule set the gate relies on, with ruff-compatible codes:

- **F401** — imported name never used.  Usage is counted by word
  occurrence outside the import's own line, so names referenced only in
  string annotations (``from __future__ import annotations`` files,
  ``TYPE_CHECKING`` imports) are correctly treated as used; the rule
  errs toward silence, never toward a false report.
- **F541** — f-string without any placeholder (a plain string that
  pretends to interpolate).
- **A001** — module/class/function binding that shadows a builtin.
- **A002** — function argument that shadows a builtin.
- **E722/S110** — bare ``except:`` and silent ``except ...: pass``,
  enforced only under ``repro/service/``: the daemon's whole fault
  model rests on every failure becoming a *typed* response, so a
  swallowed exception there is a correctness bug, not a style nit.
- **C001** — the service's clock stays injected.  Under
  ``repro/service/``, ``policies.py`` may not import ``time`` or
  ``threading`` (a policy is handed ``now`` and runs under its caller's
  lock), and ``core.py`` may mention ``time.monotonic``/``time.sleep``
  only as a parameter default (``clock=time.monotonic``) — otherwise its
  tests go back to waiting on the wall clock.  ``time.perf_counter``
  measures durations and is not policy.
- **D001** — module-level ``def``/``class`` under a linted ``src/``
  directory whose name occurs nowhere else in the repo's Python
  (``src tests bench benchmarks examples`` beside it): code nothing can
  reach.  Occurrence is by word, as for F401, so a mention in a comment
  or docstring silences it; dunder names are exempt, and a module's own
  ``__all__`` entry counts only when another file imports that module.

Usage::

    python -m repro.tools.lint src tests     # exit 1 on any finding
"""

from __future__ import annotations

import ast
import builtins
import os
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, List, Tuple

__all__ = ["lint_file", "lint_paths", "main"]

Finding = Tuple[str, int, int, str, str]  # path, line, col, code, message

#: Builtin names whose shadowing A001/A002 reports.  Dunders and the
#: capitalised singletons/exceptions are excluded — ``True`` or
#: ``ValueError`` cannot be rebound accidentally the way ``list`` can.
_BUILTINS = frozenset(
    name
    for name in dir(builtins)
    if not name.startswith("_") and name[0].islower()
)


def _iter_imports(tree: ast.Module) -> Iterable[Tuple[ast.AST, str, str]]:
    """Yield ``(node, bound_name, described_target)`` per import binding."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield node, bound, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue  # compiler directives, not bindings
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                yield node, bound, f"{node.module or ''}.{alias.name}"


def _check_unused_imports(
    path: str, tree: ast.Module, source: str
) -> List[Finding]:
    lines = source.splitlines()
    findings: List[Finding] = []
    for node, bound, target in _iter_imports(tree):
        if bound == "_" or bound.startswith("__"):
            continue
        span = set(range(node.lineno, (node.end_lineno or node.lineno) + 1))
        pattern = re.compile(rf"\b{re.escape(bound)}\b")
        used = any(
            pattern.search(text)
            for i, text in enumerate(lines, start=1)
            if i not in span
        )
        if not used:
            findings.append(
                (
                    path,
                    node.lineno,
                    node.col_offset,
                    "F401",
                    f"{target!r} imported but unused",
                )
            )
    return findings


def _check_fstrings(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    # Format specs parse as nested JoinedStr nodes (``{x:>8}`` holds a
    # JoinedStr('>8')); those are not f-strings the author wrote.
    spec_ids = {
        id(node.format_spec)
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue)
        and node.format_spec is not None
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.JoinedStr)
            and id(node) not in spec_ids
            and not any(
                isinstance(part, ast.FormattedValue) for part in node.values
            )
        ):
            findings.append(
                (
                    path,
                    node.lineno,
                    node.col_offset,
                    "F541",
                    "f-string without any placeholders",
                )
            )
    return findings


def _check_shadowed_builtins(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []

    def shadow(name: str, node: ast.AST, code: str, what: str) -> None:
        if name in _BUILTINS:
            findings.append(
                (
                    path,
                    node.lineno,
                    node.col_offset,
                    code,
                    f"{what} {name!r} shadows a builtin",
                )
            )

    # Methods and class attributes shadow builtins as *attributes* (ruff
    # A003, conventionally off); only flag names bound in non-class scope.
    method_ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    method_ids.add(id(child))

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if id(node) not in method_ids:
                shadow(node.name, node, "A001", "function name")
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
            ):
                shadow(arg.arg, arg, "A002", "argument")
            for arg in (args.vararg, args.kwarg):
                if arg is not None:
                    shadow(arg.arg, arg, "A002", "argument")
        elif isinstance(node, ast.ClassDef):
            shadow(node.name, node, "A001", "class name")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and isinstance(
                        leaf.ctx, ast.Store
                    ):
                        shadow(leaf.id, leaf, "A001", "assignment to")
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                shadow(node.target.id, node.target, "A001", "assignment to")
    return findings


#: Path fragment under which E722/S110 (the daemon's typed fault model
#: makes swallowed exceptions correctness bugs there) and C001 apply.
_SERVICE_FRAGMENT = os.path.join("repro", "service") + os.sep


def _check_silent_excepts(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(
                (
                    path,
                    node.lineno,
                    node.col_offset,
                    "E722",
                    "bare 'except:' forbidden in service code — catch a "
                    "typed class and answer with a typed response",
                )
            )
        body_is_silent = all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            for stmt in node.body
        )
        broad = node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )
        if body_is_silent and broad:
            findings.append(
                (
                    path,
                    node.lineno,
                    node.col_offset,
                    "S110",
                    "silently swallowed broad except in service code — "
                    "every failure must become a typed response",
                )
            )
    return findings


def _check_injected_clock(path: Path, tree: ast.Module) -> List[Finding]:
    """C001, for the two service modules it names."""
    culprits: List[Tuple[ast.AST, str]] = []
    if path.name == "policies.py":
        culprits = [
            (node, f"a service policy imports {target!r}")
            for node, _bound, target in _iter_imports(tree)
            if target.split(".")[0] in ("time", "threading")
        ]
    elif path.name == "core.py":
        defaults = {
            id(default)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for default in fn.args.defaults + fn.args.kw_defaults
        }
        culprits = [
            (node, f"time.{node.attr} outside a parameter default")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("monotonic", "sleep")
            and getattr(node.value, "id", None) == "time"
            and id(node) not in defaults
        ]
    return [
        (
            str(path),
            node.lineno,
            node.col_offset,
            "C001",
            f"{why} — service time comes from CompileService(clock=...)",
        )
        for node, why in culprits
    ]


#: Directories beside a linted ``src/`` whose Python counts as "the repo"
#: for D001.
_REPO_PYTHON_DIRS = ("src", "tests", "bench", "benchmarks", "examples")

_WORD = re.compile(r"[A-Za-z_]\w*")


def _check_unreferenced_defs(src_root: Path) -> List[Finding]:
    """D001 over every module under ``src_root`` (a directory named src)."""
    sources = {
        f: f.read_text()
        for d in _REPO_PYTHON_DIRS
        for f in sorted((src_root.parent / d).rglob("*.py"))
    }
    words = Counter(w for text in sources.values() for w in _WORD.findall(text))
    findings: List[Finding] = []
    for path, source in sources.items():
        if src_root not in path.parents:
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue  # lint_file reports it as E999
        lines = source.splitlines()
        # Mentions that are not references: a name's own def line, and the
        # module's own __all__ unless another file imports the module.
        own_all = [
            i
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for i in range(node.lineno, (node.end_lineno or node.lineno) + 1)
        ]
        if own_all:
            parts = path.relative_to(src_root).with_suffix("").parts
            dotted = ".".join(p for p in parts if p != "__init__")
            parent, _, leaf = dotted.rpartition(".")
            pattern = rf"\b{re.escape(dotted)}\b"
            if parent:
                pattern += rf"|\bfrom\s+{re.escape(parent)}\s+import\s[^)]*?\b{leaf}\b"
            imported = re.compile(pattern)
            if any(imported.search(t) for f, t in sources.items() if f != path):
                own_all = []
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            own = sum(
                _WORD.findall(lines[i - 1]).count(node.name)
                for i in [node.lineno] + own_all
            )
            if words[node.name] <= own:
                findings.append(
                    (
                        str(path),
                        node.lineno,
                        node.col_offset,
                        "D001",
                        f"{node.name!r} is defined but its name occurs nowhere "
                        "else in the repo's Python",
                    )
                )
    return findings


def lint_file(path: Path) -> List[Finding]:
    """All findings for one Python source file."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [(str(path), exc.lineno or 0, 0, "E999", f"syntax error: {exc.msg}")]
    name = str(path)
    findings = (
        _check_unused_imports(name, tree, source)
        + _check_fstrings(name, tree)
        + _check_shadowed_builtins(name, tree)
    )
    if _SERVICE_FRAGMENT in str(path.resolve()):
        findings += _check_silent_excepts(name, tree)
        findings += _check_injected_clock(path, tree)
    return findings


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Findings across files and directories (``.py``, sorted order)."""
    findings: List[Finding] = []
    for raw in paths:
        root = Path(raw)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for f in files:
            findings.extend(lint_file(f))
        if root.is_dir() and root.resolve().name == "src":
            findings.extend(_check_unreferenced_defs(root.resolve()))
    return findings


def main(argv: List[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro.tools.lint PATH [PATH ...]", file=sys.stderr)
        return 2
    findings = lint_paths(argv)
    for path, line, col, code, message in findings:
        print(f"{path}:{line}:{col}: {code} {message}")
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
