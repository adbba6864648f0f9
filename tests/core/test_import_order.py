"""Every ``repro.*`` subpackage must be importable *first*.

``poly``, ``codegen``, ``storage`` ... import ``repro.core.resilience`` /
``repro.core.errors``; when ``repro/core/__init__.py`` eagerly imported
the compiler driver, whichever layer a fresh interpreter touched first
was re-entered half initialised ("cannot import name ... from partially
initialized module").  Each case runs in its own interpreter because the
failure only shows on a cold ``sys.modules``.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
) + ["repro.autotune.tuner", "repro.tiling.policy"]


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_in_a_fresh_interpreter(module):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_core_reexports_resolve_lazily():
    import repro.core as core
    from repro.core import AkgOptions, build
    from repro.core.compiler import AkgOptions as real_options
    from repro.core.compiler import build as real_build

    assert build is real_build and AkgOptions is real_options
    for name in core.__all__:
        assert getattr(core, name) is not None
    with pytest.raises(AttributeError):
        core.no_such_name
