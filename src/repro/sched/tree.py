"""Schedule trees: the polyhedral IR of AKG.

The node vocabulary follows isl schedule trees [Grosser et al. 2015] with
the extensions the paper relies on (Sec. 4):

- ``DomainNode``    -- the statements and their iteration dims (root).
- ``BandNode``      -- a multi-dimensional piece of schedule: one list of
  affine functions per statement, aligned across statements.  A band
  carries ``permutable`` / ``coincident`` flags computed by the scheduler
  and an optional ``tile_sizes`` attribute: when set, row ``i`` of the
  band enumerates *tiles* of size ``tile_sizes[i]`` (the value of the row
  is ``floor(expr_i / size_i)``), which is how AKG's tiling rewrites a
  band with quasi-affine functions.
- ``FilterNode``    -- restricts the subtree to a subset of statements.
- ``SequenceNode``  -- ordered children (each a filter).
- ``MarkNode``      -- attaches a string; AKG uses ``"local_UB"``,
  ``"local_L1"``, ``"skipped"``, ``"fractal_gemm"``, ``"realize_*"`` marks.
- ``ExtensionNode`` -- introduces statement instances not scheduled by the
  enclosing tree: the producers post-tiling fusion recomputes per tile
  (Sec. 4.3), named by id; their per-tile instances are the reverse
  strategy's, kept with the tiled group.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.poly.affine import AffineExpr


class ScheduleNode:
    """Base class of schedule-tree nodes."""

    def __init__(self, children: Optional[List["ScheduleNode"]] = None):
        self.children: List[ScheduleNode] = children or []

    @property
    def child(self) -> Optional["ScheduleNode"]:
        """The single child of nodes with at most one child."""
        return self.children[0] if self.children else None

    def set_child(self, node: "ScheduleNode") -> None:
        """Replace the single child."""
        self.children = [node]

    # -- traversal -------------------------------------------------------------

    def walk(self) -> Iterable["ScheduleNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find_all(self, node_type: type) -> List["ScheduleNode"]:
        """All descendants (including self) of the given type."""
        return [n for n in self.walk() if isinstance(n, node_type)]

    # -- printing ----------------------------------------------------------------

    def render(self, indent: int = 0) -> str:
        """Multi-line textual rendering mirroring Fig. 3 of the paper."""
        pad = "  " * indent
        lines = [pad + self._label()]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self.render()


class DomainNode(ScheduleNode):
    """Root node naming every statement's iteration dims; the domain sets
    are built only where a relation needs one, never held here."""

    def __init__(
        self, dims: Dict[str, Sequence[str]], child: Optional[ScheduleNode] = None
    ):
        super().__init__([child] if child else [])
        self.dims = dims

    def _label(self) -> str:
        parts = "; ".join(
            f"{sid}[{', '.join(names)}]" for sid, names in self.dims.items()
        )
        return f"Domain{{{parts}}}"


class BandNode(ScheduleNode):
    """A partial schedule: aligned affine rows per statement.

    ``schedules[sid]`` is the list of affine functions (rows) applied to the
    instances of statement ``sid``; all statements in a band have the same
    number of rows.  ``tile_sizes`` (when set) makes row ``i`` enumerate
    tiles of that size.
    """

    def __init__(
        self,
        schedules: Dict[str, List[AffineExpr]],
        child: Optional[ScheduleNode] = None,
        permutable: bool = False,
        coincident: Optional[List[bool]] = None,
        tile_sizes: Optional[List[int]] = None,
    ):
        super().__init__([child] if child else [])
        lengths = {len(rows) for rows in schedules.values()}
        if len(lengths) > 1:
            raise ValueError(f"misaligned band rows: {lengths}")
        self.schedules = schedules
        self.permutable = permutable
        self.n_rows = lengths.pop() if lengths else 0
        self.coincident = coincident or [False] * self.n_rows
        if tile_sizes is not None and len(tile_sizes) != self.n_rows:
            raise ValueError("one tile size per band row required")
        self.tile_sizes = tile_sizes

    def _label(self) -> str:
        parts = []
        for sid, rows in self.schedules.items():
            row_text = ", ".join(repr(r) for r in rows)
            parts.append(f"{sid}->({row_text})")
        extras = []
        if self.permutable:
            extras.append("permutable")
        if self.tile_sizes:
            extras.append(f"tiles={self.tile_sizes}")
        if any(self.coincident):
            extras.append(f"coincident={self.coincident}")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return f"Band{{{'; '.join(parts)}}}{suffix}"


class FilterNode(ScheduleNode):
    """Restricts the subtree to ``stmt_ids``."""

    def __init__(
        self, stmt_ids: Sequence[str], child: Optional[ScheduleNode] = None
    ):
        super().__init__([child] if child else [])
        self.stmt_ids: Tuple[str, ...] = tuple(stmt_ids)

    def _label(self) -> str:
        return f"Filter{{{'; '.join(self.stmt_ids)}}}"


class SequenceNode(ScheduleNode):
    """Ordered composition; children must be filter nodes."""

    def __init__(self, children: Sequence[FilterNode]):
        for c in children:
            if not isinstance(c, FilterNode):
                raise TypeError("Sequence children must be FilterNodes")
        super().__init__(list(children))

    def _label(self) -> str:
        return "Sequence"


class MarkNode(ScheduleNode):
    """Attaches an arbitrary string to the subtree."""

    def __init__(self, name: str, child: Optional[ScheduleNode] = None):
        super().__init__([child] if child else [])
        self.name = name

    def _label(self) -> str:
        return f'Mark{{"{self.name}"}}'


class ExtensionNode(ScheduleNode):
    """Introduces foreign statement instances below the current position.

    ``stmt_ids`` are the statements whose instances must additionally be
    executed at that point, per iteration of the outer band -- the
    mechanism AKG uses for post-tiling fusion (producers recomputed per
    consumer tile, Fig. 3e).  Which instances each tile runs is the
    statement's tile window and ``tile -> instances`` relation in its
    :class:`~repro.fusion.posttile.TiledGroup`: code generation reads the
    window, replay and the verifier the relation.
    """

    def __init__(
        self,
        stmt_ids: List[str],
        child: Optional[ScheduleNode] = None,
    ):
        super().__init__([child] if child else [])
        self.stmt_ids = stmt_ids

    def _label(self) -> str:
        return f"Extension{{{', '.join(self.stmt_ids)}}}"


class LeafNode(ScheduleNode):
    """Explicit leaf."""

    def _label(self) -> str:
        return "Leaf"


def clone_tree(node: ScheduleNode) -> ScheduleNode:
    """Structural deep copy (sets/maps/exprs shared -- they are immutable).

    Passes like post-tiling fusion mutate tree structure in place; cloning
    lets the driver reuse one scheduling result across tiling probes.
    """
    children = [clone_tree(c) for c in node.children]
    if isinstance(node, DomainNode):
        out: ScheduleNode = DomainNode(dict(node.dims))
    elif isinstance(node, BandNode):
        out = BandNode(
            {sid: list(rows) for sid, rows in node.schedules.items()},
            permutable=node.permutable,
            coincident=list(node.coincident),
            tile_sizes=list(node.tile_sizes) if node.tile_sizes else None,
        )
    elif isinstance(node, FilterNode):
        out = FilterNode(node.stmt_ids)
    elif isinstance(node, SequenceNode):
        out = SequenceNode([])
    elif isinstance(node, MarkNode):
        out = MarkNode(node.name)
    elif isinstance(node, ExtensionNode):
        out = ExtensionNode(list(node.stmt_ids))
    elif isinstance(node, LeafNode):
        out = LeafNode()
    else:  # pragma: no cover - unknown node type
        raise TypeError(f"cannot clone {type(node).__name__}")
    out.children = children
    return out
