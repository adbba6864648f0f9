"""Polyhedral substrate: integer sets, affine maps and exact ILP.

This package is a from-scratch, pure-Python replacement for the parts of
`isl` (the Integer Set Library) that AKG relies on:

- :mod:`repro.poly.affine`    -- affine expressions over named dimensions.
- :mod:`repro.poly.ilp`       -- rational simplex + branch-and-bound ILP.
- :mod:`repro.poly.sets`      -- basic sets (conjunctions of constraints).
- :mod:`repro.poly.maps`      -- basic maps (relations).
- :mod:`repro.poly.fm`        -- Fourier-Motzkin projection.

Design notes
------------
Dimensions are identified by *name* (a plain string); a set lives in a
:class:`~repro.poly.sets.Space` that fixes the dimension order.  Constraints
are affine inequalities ``e >= 0`` or equalities ``e == 0`` with integer
coefficients.  Emptiness, sampling, lexmin and per-dimension bounds are
decided exactly with the branch-and-bound ILP; projections use rational
Fourier-Motzkin elimination, which over-approximates integer projection --
every user in this code base either needs only an over-approximation
(memory footprints, loop bounds) or re-checks integrality through the ILP.
"""

from repro.poly.affine import AffineExpr, aff, var
from repro.poly.sets import BasicSet, Space
from repro.poly.maps import BasicMap
from repro.poly.ilp import IlpProblem, IlpStatus
from repro.poly.cache import clear_solver_caches, solver_cache_stats

__all__ = [
    "AffineExpr",
    "aff",
    "var",
    "BasicSet",
    "Space",
    "BasicMap",
    "IlpProblem",
    "IlpStatus",
    "solver_cache_stats",
    "clear_solver_caches",
]
