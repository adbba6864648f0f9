"""What the tile search asks per candidate that no tile size changes.

Auto Tiling (Sec. 4.2) probes a kernel at ``1 + rank`` size vectors, the
exact-fit loop re-tiles until the storage plan fits, and the tuner
(Sec. 5.3) repeats both per candidate.  Much of each round is the same
answer again: the extent of every band row, the whole-space tile nests of
unfused producers and their storage plans, which unit runs each statement
of a group and what role each tensor plays in it, and the own-band groups
refitted from sizes the candidate does not set.  A :class:`SizeInvariants`
computes each of them once per kernel and machine:
:meth:`repro.core.frontend.FrontEnd.invariants` makes one lazily, and the
passes of :mod:`repro.fusion.posttile`, :mod:`repro.storage.promote` and
:mod:`repro.tiling.policy` look their answers up in it.

Every table is keyed by what its answer is a function of, so a hit *is*
the fresh computation.  Values are never mutated once stored: tiled
groups are handed out as copies (:meth:`~repro.fusion.posttile.TiledGroup.refiltered`),
everything else is read only.  Two threads missing on one key may both
compute it; the first store wins and the answers are equal.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, TypeVar

__all__ = ["SizeInvariants"]

T = TypeVar("T")

_MISS = object()


class SizeInvariants:
    """Per-kernel memo tables of the tile search (see the module doc).

    ``hw`` is the machine the plans are made for; passes that plan no
    storage make a table without one.
    """

    def __init__(self, kernel, hw=None):
        self.kernel = kernel
        self.hw = hw
        self.stmt_by_id = {s.stmt_id: s for s in kernel.statements}
        self._tables: Dict[str, Dict[Hashable, object]] = {}

    def lookup(self, table: str, key: Hashable, compute: Callable[[], T]) -> T:
        """``table``'s answer for ``key``, computed on the first ask."""
        entries = self._tables.get(table)
        if entries is None:
            entries = self._tables.setdefault(table, {})
        value = entries.get(key, _MISS)
        if value is _MISS:
            value = entries.setdefault(key, compute())
        return value
