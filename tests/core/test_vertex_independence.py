"""Nothing downstream depends on *which* optimal point an LP returns.

``repro.poly.ilp`` pins the status and the optimal value of a solve; the
point is a certificate, and a different simplex -- another column layout,
another pivot rule -- is free to return another one.  That freedom is only
real if no schedule, tile size or emitted instruction hangs on the
vertex, so here the compiler runs with a *different vertex chooser* in the
solver's place (the ``Fraction`` reference of
``tests/poly/_reference_simplex.py``: one row per bound, one artificial
per row, a different walk) and must emit what production emits.
"""

import pytest

from repro.core import diskcache
from repro.core.compiler import build
from repro.poly import ilp
from repro.poly.cache import clear_solver_caches
from repro.sched.deps import compute_dependences
from repro.sched.scheduler import PolyScheduler

from tests.core.test_golden_programs import GOLDEN
from tests.poly import _reference_simplex as reference
from tests.sched.test_scheduler import jacobi_kernel


def _both_ways(monkeypatch, compile_it):
    """``compile_it()`` cold under production's simplex, then the reference's."""
    diskcache.set_disk_cache_enabled(False)
    clear_solver_caches()
    production = compile_it()
    solves = []

    def other_vertex(lo, hi, rows, objective, names):
        solves.append(len(rows))
        return reference.solve_folded(lo, hi, rows, objective, names)

    with monkeypatch.context() as patched:
        patched.setattr(ilp, "_simplex_solve", other_vertex)
        clear_solver_caches()
        swapped = compile_it()
    clear_solver_caches()  # entries the reference filled must not outlive it
    return production, swapped, len(solves)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_programs_do_not_depend_on_the_vertex(name, monkeypatch):
    builder = GOLDEN[name][0]
    ours, theirs, solves = _both_ways(monkeypatch, lambda: build(builder(), name))
    assert theirs.tree.render() == ours.tree.render()
    assert theirs.program.dump() == ours.program.dump()
    assert (theirs.cycles(), theirs.tile_sizes) == (ours.cycles(), ours.tile_sizes)
    # Kernels whose systems have no coupling row never reach a simplex,
    # nor do those whose every dependence is separable (answered in closed
    # form); the others must have, or the swap proved nothing.
    assert (solves == 0) == (name not in {"subgraph1", "subgraph5"})


def test_the_skewed_row_does_not_depend_on_the_vertex(monkeypatch):
    """The one place an LP's point becomes a schedule row
    (``PolyScheduler._pluto_row``) states its own optimum."""

    def schedule():
        kernel = jacobi_kernel()
        deps = compute_dependences(kernel)
        return PolyScheduler().schedule_kernel(kernel, deps)

    ours, theirs, solves = _both_ways(monkeypatch, schedule)
    assert solves > 0
    assert theirs.render() == ours.render()
