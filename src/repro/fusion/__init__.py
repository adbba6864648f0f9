"""Fusion: post-tiling fusion (offloading) and intra-tile fusion (forking).

- :mod:`repro.fusion.posttile`  -- the extension-node fusion of Sec. 4.3
  ("fusion when offloading data"): producers recomputed per live-out tile,
  with overlapped tiles derived by the reverse strategy.
- :mod:`repro.fusion.intratile` -- Sec. 4.3 "fusion when forking data":
  ``local_UB`` isolation and loop distribution.
"""

from repro.fusion.posttile import TiledGroup, apply_post_tiling_fusion
from repro.fusion.intratile import UnitAssignment, assign_compute_units, is_cube_statement

__all__ = [
    "TiledGroup",
    "apply_post_tiling_fusion",
    "UnitAssignment",
    "assign_compute_units",
    "is_cube_statement",
]
