"""Tiling: tile shapes, the reverse strategy, and tile-size selection.

- :mod:`repro.tiling.tile`    -- rectangular band tiling (quasi-affine rows).
- :mod:`repro.tiling.reverse` -- the reverse strategy of [70]: derive
  producer (intermediate-space) tile shapes from live-out iteration tiles,
  enabling overlapped tiling and post-tiling fusion.
- :mod:`repro.tiling.spec`    -- the tile-size specification language (Fig. 4).
- :mod:`repro.tiling.auto`    -- Auto Tiling: greedy data-movement-minimising
  tile-size search under double-buffered capacity constraints.
"""

from repro.tiling.tile import tile_band
from repro.tiling.reverse import liveout_instance_relation, producer_tile_relation
from repro.tiling.spec import StatementSpec, TileSpec, TilingPolicy, parse_tiling_policy
from repro.tiling.auto import AutoTiler

__all__ = [
    "tile_band",
    "liveout_instance_relation",
    "producer_tile_relation",
    "TilingPolicy",
    "StatementSpec",
    "TileSpec",
    "parse_tiling_policy",
    "AutoTiler",
]
