"""The AKG compiler driver: the paper's primary contribution, end to end.

``repro.core.compiler.build`` runs the full Fig. 2 pipeline:

    te DSL -> lowering -> dependences -> clustering -> polyhedral
    scheduling -> auto/manual tiling -> post-tiling fusion -> intra-tile
    fusion -> conv img2col/fractal -> storage promotion -> code generation
    (vectorisation, DAE sync, double buffering) -> program

The result bundles the compiled program with every intermediate artefact
(schedule tree, dependences, tiling, storage plans) plus convenience
methods ``simulate()`` and ``execute()``.
"""

from importlib import import_module

# Re-exported lazily (PEP 562): ``poly``, ``codegen``, ``storage`` and the
# rest import ``repro.core.resilience`` / ``repro.core.errors``, which runs
# this file; importing the driver here would pull every layer back in
# while the first of them is still half initialised.
_EXPORTS = {
    "AkgOptions": "repro.core.compiler",
    "CompileResult": "repro.core.compiler",
    "backend_build": "repro.core.compiler",
    "build": "repro.core.compiler",
    "FrontEnd": "repro.core.frontend",
    "run_frontend": "repro.core.frontend",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
