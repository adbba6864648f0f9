"""Architectural model of the DaVinci core (Ascend 910, Fig. 1).

All constants are per-core and expressed in bytes and cycles.  Buffer
capacities match the published DaVinci numbers (Liao et al., Hot Chips
2019); throughputs and latencies are calibrated so that the *relative*
behaviour of compiled kernels (tiling quality, fusion benefit, pipeline
overlap, sync overhead) mirrors the paper's measurements -- see
DESIGN.md "Substitutions".
"""

from __future__ import annotations

from typing import Dict, Tuple

KiB = 1024
MiB = 1024 * KiB

DTYPE_BYTES = {"fp16": 2, "fp32": 4, "int32": 4}


class HardwareSpec:
    """Parameters of one DaVinci AI core."""

    def __init__(
        self,
        buffer_capacity: Dict[str, int] | None = None,
        bandwidth: Dict[Tuple[str, str], float] | None = None,
        dma_latency: Dict[Tuple[str, str], int] | None = None,
        vector_bytes_per_cycle: int = 512,
        vector_issue_latency: int = 8,
        vector_unaligned_penalty: float = 2.0,
        cube_block: Tuple[int, int, int] = (16, 16, 16),
        cube_cycles_per_block: int = 1,
        cube_issue_latency: int = 16,
        scalar_cycles_per_op: int = 2,
        sync_cycles: int = 6,
        # Per-burst descriptor overhead of the 2-D strided DMA engine.
        noncontiguous_run_overhead: int = 2,
        img2col_bytes_per_cycle: int = 256,
        double_buffer_fraction: float = 0.5,
    ):
        self.buffer_capacity = buffer_capacity or {
            "GM": 1 << 60,  # off-chip: effectively unbounded
            "L1": 1 * MiB,
            "UB": 256 * KiB,
            "L0A": 64 * KiB,
            "L0B": 64 * KiB,
            "L0C": 256 * KiB,
        }
        # Bytes per cycle along each dataflow edge of Fig. 1.
        self.bandwidth = bandwidth or {
            ("GM", "L1"): 128.0,
            ("GM", "UB"): 128.0,
            ("L1", "UB"): 256.0,
            ("L1", "L0A"): 256.0,
            ("L1", "L0B"): 256.0,
            ("UB", "L0C"): 256.0,
            ("L0C", "UB"): 256.0,
            ("UB", "GM"): 128.0,
            ("UB", "L1"): 256.0,
        }
        # Fixed start-up overhead (cycles) per transfer along each edge.
        # The MTE queues descriptors, so per-transfer overhead is tens of
        # cycles, not a full memory round trip.
        self.dma_latency = dma_latency or {
            ("GM", "L1"): 32,
            ("GM", "UB"): 32,
            ("L1", "UB"): 8,
            ("L1", "L0A"): 8,
            ("L1", "L0B"): 8,
            ("UB", "L0C"): 8,
            ("L0C", "UB"): 8,
            ("UB", "GM"): 32,
            ("UB", "L1"): 8,
        }
        self.vector_bytes_per_cycle = vector_bytes_per_cycle
        self.vector_issue_latency = vector_issue_latency
        self.vector_unaligned_penalty = vector_unaligned_penalty
        self.cube_block = cube_block
        self.cube_cycles_per_block = cube_cycles_per_block
        self.cube_issue_latency = cube_issue_latency
        self.scalar_cycles_per_op = scalar_cycles_per_op
        self.sync_cycles = sync_cycles
        self.noncontiguous_run_overhead = noncontiguous_run_overhead
        self.img2col_bytes_per_cycle = img2col_bytes_per_cycle
        self.double_buffer_fraction = double_buffer_fraction

    # -- derived helpers --------------------------------------------------------

    def dtype_bytes(self, dtype: str) -> int:
        """Bytes per element for an IR dtype."""
        try:
            return DTYPE_BYTES[dtype]
        except KeyError:
            raise ValueError(f"unknown dtype {dtype!r}") from None

    def usable_capacity(self, buffer: str, double_buffered: bool = True) -> int:
        """Capacity available to one tile (half when double buffering)."""
        cap = self.buffer_capacity[buffer]
        if double_buffered and buffer != "GM":
            return int(cap * self.double_buffer_fraction)
        return cap

    def vector_lanes(self, dtype: str) -> int:
        """SIMD elements processed per cycle for a dtype."""
        return self.vector_bytes_per_cycle // self.dtype_bytes(dtype)

    def transfer_cycles(
        self,
        src: str,
        dst: str,
        nbytes: int,
        contiguous_runs: int = 1,
    ) -> int:
        """Cycles for one DMA transfer of ``nbytes`` along ``src -> dst``.

        ``contiguous_runs`` models strided transfers: each separate
        contiguous run pays a fixed engine-overhead (the paper's "weighted
        sum of the contiguous transfer count and the complete set of data
        movement").
        """
        key = (src, dst)
        if key not in self.bandwidth:
            raise ValueError(f"no dataflow path {src} -> {dst}")
        latency = self.dma_latency[key]
        stream = nbytes / self.bandwidth[key]
        runs = max(contiguous_runs, 1)
        return int(latency + stream + (runs - 1) * self.noncontiguous_run_overhead)

    def cube_cycles(self, m: int, k: int, n: int, dtype: str = "fp16") -> int:
        """Cycles for an MMAD of logical shape (m, k, n) on fractal blocks."""
        bm, bk, bn = self.cube_block
        blocks = -(-m // bm) * -(-k // bk) * -(-n // bn)
        return self.cube_issue_latency + blocks * self.cube_cycles_per_block

    def vector_cycles(self, elems: int, dtype: str, aligned: bool = True) -> int:
        """Cycles for one vector intrinsic over ``elems`` elements."""
        per_cycle = self.vector_lanes(dtype)
        body = -(-elems // per_cycle)
        if not aligned:
            body = int(body * self.vector_unaligned_penalty)
        return self.vector_issue_latency + body

    def scalar_cycles(self, count: int) -> int:
        """Cycles for ``count`` scalar operations."""
        return count * self.scalar_cycles_per_op
