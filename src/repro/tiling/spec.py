"""The tile-size specification language of Fig. 4.

Grammar (verbatim from the paper)::

    stmt_id       :: "S_" integer        (we also accept "S" integer)
    tile_size     :: integer
    tile_spec     :: tile_size @ buffer
    tile_specs    :: tile_spec | tile_specs, tile_spec
    stmt_spec     :: stmt_id : tile_specs
    tiling_policy :: stmt_spec | tiling_policy stmt_spec

Example::

    S_0: 32@UB, 32@UB
    S_2: 16@L1, 16@L1, 512@L0A

A specification gives, per polyhedral statement, the tile size along each
loop dimension together with the buffer the data accessed by the statement
should be placed in.  The parser is intentionally strict: malformed
policies raise :class:`TilingSpecError` with a line/column diagnostic.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence

VALID_BUFFERS = ("GM", "L1", "UB", "L0A", "L0B", "L0C")


class TilingSpecError(ValueError):
    """Raised on malformed tiling policy text."""


class TileSpec:
    """One ``size @ buffer`` entry."""

    __slots__ = ("size", "buffer")

    def __init__(self, size: int, buffer: str):
        if size <= 0:
            raise TilingSpecError(f"tile size must be positive, got {size}")
        if buffer not in VALID_BUFFERS:
            raise TilingSpecError(
                f"unknown buffer {buffer!r}; expected one of {VALID_BUFFERS}"
            )
        self.size = size
        self.buffer = buffer

    def __eq__(self, other):
        if not isinstance(other, TileSpec):
            return NotImplemented
        return self.size == other.size and self.buffer == other.buffer

    def __repr__(self) -> str:
        return f"{self.size}@{self.buffer}"


class StatementSpec:
    """Tile specs for one statement, one per loop dimension."""

    __slots__ = ("stmt_id", "specs")

    def __init__(self, stmt_id: str, specs: Sequence[TileSpec]):
        self.stmt_id = stmt_id
        self.specs: List[TileSpec] = list(specs)

    @property
    def sizes(self) -> List[int]:
        """Just the tile sizes, in dimension order."""
        return [s.size for s in self.specs]

    def __repr__(self) -> str:
        return f"{self.stmt_id}: " + ", ".join(repr(s) for s in self.specs)


class TilingPolicy:
    """A full tiling policy: one :class:`StatementSpec` per statement."""

    def __init__(self, stmt_specs: Sequence[StatementSpec] = ()):
        self.stmt_specs: Dict[str, StatementSpec] = {}
        for spec in stmt_specs:
            if spec.stmt_id in self.stmt_specs:
                raise TilingSpecError(f"duplicate statement {spec.stmt_id}")
            self.stmt_specs[spec.stmt_id] = spec

    def spec_for(self, stmt_id: str) -> Optional[StatementSpec]:
        """Spec for a statement, or None when unspecified."""
        return self.stmt_specs.get(stmt_id)

    def sizes_for(self, stmt_id: str) -> Optional[List[int]]:
        """Tile sizes for a statement, or None."""
        spec = self.spec_for(stmt_id)
        return spec.sizes if spec else None

    def render(self) -> str:
        """Serialise back to the Fig. 4 syntax."""
        return "\n".join(repr(s) for s in self.stmt_specs.values())

    def __repr__(self) -> str:
        return f"TilingPolicy({list(self.stmt_specs)})"


_STMT_RE = re.compile(r"^S_?(\d+)$")
_SPEC_RE = re.compile(r"^(\d+)\s*@\s*([A-Za-z0-9]+)$")


def parse_tiling_policy(text: str) -> TilingPolicy:
    """Parse policy text in the Fig. 4 grammar."""
    specs: List[StatementSpec] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise TilingSpecError(f"line {line_no}: expected 'S_k: ...', got {raw!r}")
        head, _, tail = line.partition(":")
        m = _STMT_RE.match(head.strip())
        if not m:
            raise TilingSpecError(
                f"line {line_no}: bad statement id {head.strip()!r}"
            )
        stmt_id = f"S{m.group(1)}"
        entries = [e.strip() for e in tail.split(",")]
        if not entries or entries == [""]:
            raise TilingSpecError(f"line {line_no}: empty tile_specs")
        tile_specs: List[TileSpec] = []
        for entry in entries:
            sm = _SPEC_RE.match(entry)
            if not sm:
                raise TilingSpecError(
                    f"line {line_no}: bad tile_spec {entry!r} "
                    "(expected 'size@BUFFER')"
                )
            tile_specs.append(TileSpec(int(sm.group(1)), sm.group(2).upper()))
        specs.append(StatementSpec(stmt_id, tile_specs))
    return TilingPolicy(specs)
