"""TVM-style schedule primitives.

A :class:`Schedule` is created per output tensor; template authors apply
the classic primitives against named loop axes.  The object records the
resulting loop structure (tile sizes, axis order, annotations) which the
baseline compiler interprets.  The primitive set is intentionally the
*limited* one the paper contrasts with polyhedral scheduling: there is no
skewing, no shifting, no overlapped tiling and no post-tiling fusion --
``compute_at`` only attaches pointwise producers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.tensor import Tensor


class ScheduleError(ValueError):
    """Illegal use of a schedule primitive."""


class Axis:
    """A named loop axis with an extent (possibly a split part)."""

    __slots__ = ("name", "extent", "kind")

    def __init__(self, name: str, extent: int, kind: str = "data"):
        self.name = name
        self.extent = extent
        self.kind = kind  # "data" | "reduce"

    def __repr__(self) -> str:
        return f"Axis({self.name}<{self.extent}>)"


class StageSchedule:
    """Per-tensor scheduling state."""

    def __init__(self, tensor: Tensor):
        self.tensor = tensor
        axes = []
        if tensor.op is not None:
            for iv in tensor.op.axes:
                axes.append(Axis(iv.name, iv.extent, "data"))
            for iv in tensor.op.reduce_axes:
                axes.append(Axis(iv.name, iv.extent, "reduce"))
        self.axes: List[Axis] = axes
        self.vectorized: Optional[str] = None
        self.unrolled: List[str] = []
        self.double_buffered = False
        self.tensorized: Optional[str] = None
        self.compute_at: Optional[Tuple[Tensor, str]] = None
        self.tile_sizes: Dict[str, int] = {}

    def axis(self, name: str) -> Axis:
        for a in self.axes:
            if a.name == name:
                return a
        raise ScheduleError(f"{self.tensor.name}: no axis named {name!r}")


class Schedule:
    """A TVM-like schedule over a tensor DAG rooted at ``outputs``."""

    def __init__(self, outputs: Sequence[Tensor] | Tensor):
        if isinstance(outputs, Tensor):
            outputs = [outputs]
        self.outputs = list(outputs)
        self.stages: Dict[str, StageSchedule] = {}
        for out in self.outputs:
            for t in out.ancestors():
                if not t.is_placeholder and t.name not in self.stages:
                    self.stages[t.name] = StageSchedule(t)

    def __getitem__(self, tensor: Tensor) -> StageSchedule:
        try:
            return self.stages[tensor.name]
        except KeyError:
            raise ScheduleError(f"{tensor.name} is not a compute stage") from None

    # -- primitives ------------------------------------------------------------

    def split(self, tensor: Tensor, axis: str, factor: int) -> Tuple[str, str]:
        """Split an axis by ``factor``; returns (outer, inner) axis names."""
        stage = self[tensor]
        a = stage.axis(axis)
        if factor <= 0:
            raise ScheduleError("split factor must be positive")
        outer = Axis(f"{axis}.outer", -(-a.extent // factor), a.kind)
        inner = Axis(f"{axis}.inner", min(factor, a.extent), a.kind)
        idx = stage.axes.index(a)
        stage.axes[idx : idx + 1] = [outer, inner]
        stage.tile_sizes[axis] = factor
        return outer.name, inner.name

    def reorder(self, tensor: Tensor, order: Sequence[str]) -> None:
        """Permute the listed axes into the given relative order."""
        stage = self[tensor]
        chosen = [stage.axis(n) for n in order]
        positions = sorted(stage.axes.index(a) for a in chosen)
        for pos, a in zip(positions, chosen):
            stage.axes[pos] = a

    def fuse(self, tensor: Tensor, a: str, b: str) -> str:
        """Fuse two adjacent axes into one."""
        stage = self[tensor]
        ax_a, ax_b = stage.axis(a), stage.axis(b)
        ia, ib = stage.axes.index(ax_a), stage.axes.index(ax_b)
        if ib != ia + 1:
            raise ScheduleError("can only fuse adjacent axes")
        fused = Axis(f"{a}.{b}.fused", ax_a.extent * ax_b.extent, ax_a.kind)
        stage.axes[ia : ib + 1] = [fused]
        return fused.name

    def vectorize(self, tensor: Tensor, axis: str) -> None:
        """Mark the innermost axis for SIMD code generation."""
        stage = self[tensor]
        a = stage.axis(axis)
        if stage.axes[-1] is not a:
            raise ScheduleError("only the innermost axis can be vectorized")
        stage.vectorized = axis

    def unroll(self, tensor: Tensor, axis: str) -> None:
        """Mark an axis for unrolling."""
        stage = self[tensor]
        stage.axis(axis)
        stage.unrolled.append(axis)

    def double_buffer(self, tensor: Tensor) -> None:
        """Enable double buffering for the stage's input transfers."""
        self[tensor].double_buffered = True

    def tensorize(self, tensor: Tensor, axis: str) -> None:
        """Map the reduction at ``axis`` onto the Cube Unit MMAD intrinsic."""
        stage = self[tensor]
        a = stage.axis(axis)
        if a.kind != "reduce":
            raise ScheduleError("tensorize expects a reduction axis")
        stage.tensorized = axis

    def compute_at(self, tensor: Tensor, consumer: Tensor, axis: str) -> None:
        """Attach a *pointwise* producer at a consumer loop level.

        TVM's compute_at on this backend only supports producers whose
        elements map 1:1 onto the consumer tile (no halo/overlap) -- the
        limitation the paper's Sec. 4.3 contrasts with AKG's extension-node
        fusion.
        """
        self[consumer].axis(axis)
        self[tensor].compute_at = (consumer, axis)
