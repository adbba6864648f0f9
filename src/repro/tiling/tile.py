"""Rectangular band tiling.

``tile_band`` splits a permutable band into a *tile band* (iterating
between tiles) above a *point band* (iterating within tiles), mirroring the
quasi-affine rewrite of Sec. 4.2::

    { S2(h, w, kh, kw) -> (h/32, w/32, h, w, kh, kw) }

The tile band reuses the affine rows of the point band and carries
``tile_sizes``; the AST generator materialises the ``floor(expr/size)``
semantics when scanning the tree, and the legality checker understands the
representation directly (see :mod:`repro.sched.scheduler`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sched.tree import BandNode


def tile_band(
    band: BandNode,
    sizes: Sequence[int],
    require_permutable: bool = True,
) -> BandNode:
    """Tile ``band`` with ``sizes``; returns the new tile band.

    The returned node has the same rows as ``band`` plus ``tile_sizes``,
    and ``band`` (the point loops) becomes its child.  Rows whose size
    entry is ``None`` (or >= the full extent) are effectively untiled --
    pass the loop extent to keep a dimension untouched.

    Tiling is unconditionally legal only for permutable bands; pass
    ``require_permutable=False`` to tile a single-row band (1-D tiling of
    any legal band row is always legal).
    """
    if len(sizes) != band.n_rows:
        raise ValueError(
            f"expected {band.n_rows} tile sizes, got {len(sizes)}"
        )
    if any(s is not None and s <= 0 for s in sizes):
        raise ValueError(f"tile sizes must be positive: {sizes}")
    if require_permutable and band.n_rows > 1 and not band.permutable:
        raise ValueError("refusing to tile a non-permutable multi-row band")

    normalised: List[int] = [s if s is not None else _HUGE for s in sizes]
    tile = BandNode(
        {sid: list(rows) for sid, rows in band.schedules.items()},
        band,
        permutable=band.permutable,
        coincident=list(band.coincident),
        tile_sizes=normalised,
    )
    return tile


_HUGE = 1 << 30
