"""Architectural model of the DaVinci core (Ascend 910, Fig. 1).

The core is written once, as Fig. 8 text (:data:`ASCEND_910`, in the
language of :mod:`repro.hw.spec_lang`), and ``HardwareSpec()`` is a fresh
copy of its parse, taken once at import.  All values are per-core bytes
and cycles.  Buffer capacities match the published DaVinci numbers (Liao
et al., Hot Chips 2019); throughputs and latencies are calibrated so that
the *relative* behaviour of compiled kernels (tiling quality, fusion
benefit, pipeline overlap, sync overhead) mirrors the paper's
measurements -- see DESIGN.md "Substitutions".
"""

from __future__ import annotations

from repro.hw.spec_lang import parse_npu_spec

DTYPE_BYTES = {"fp16": 2, "fp32": 4, "int32": 4}

#: The Ascend 910 AI core.  Line order is attribute order, which every
#: pickled ``HardwareSpec`` (each cache entry holds one) depends on.
ASCEND_910 = """
buf GM (1152921504606846976)  # 2**60: off-chip, effectively unbounded
buf L1 (1048576)
buf UB (262144)
buf L0A (65536)
buf L0B (65536)
buf L0C (262144)
# Bytes per cycle along each dataflow edge of Fig. 1, and the fixed
# start-up cycles per transfer: the MTE queues descriptors, so the
# overhead is tens of cycles, not a full memory round trip.
dataflow (GM -> L1, 128, 32) latency 32
dataflow (GM -> UB, 128, 32) latency 32
dataflow (L1 -> UB, 256, 32) latency 8
dataflow (L1 -> L0A, 256, 32) latency 8
dataflow (L1 -> L0B, 256, 32) latency 8
dataflow (UB -> L0C, 256, 32) latency 8
dataflow (L0C -> UB, 256, 32) latency 8
dataflow (UB -> GM, 128, 32) latency 32
dataflow (UB -> L1, 256, 32) latency 8
vector (UB -> UB, 512, 32) latency 8
const vector_unaligned_penalty (2.0)
cube (L0A L0B -> L0C, 4096, 16) latency 16
const scalar_cycles_per_op (2)
const sync_cycles (6)
# Per-burst descriptor overhead of the 2-D strided DMA engine.
const noncontiguous_run_overhead (2)
const img2col_bytes_per_cycle (256)
const double_buffer_fraction (0.5)
"""


class HardwareSpec:
    """Parameters of one DaVinci AI core, initially :data:`ASCEND_910`.

    A variant is a copy with fields set, or Fig. 8 text overlaid onto one:
    ``parse_npu_spec(text).to_hardware_spec(base)``.
    """

    def __init__(self) -> None:
        # One Python-level call: the dicts are copied by ``dict``.
        self.__dict__.update(_ASCEND_910_FIELDS)
        self.buffer_capacity = dict(self.buffer_capacity)
        self.bandwidth = dict(self.bandwidth)
        self.dma_latency = dict(self.dma_latency)

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


def _parse_ascend_910() -> dict:
    hw = object.__new__(HardwareSpec)
    hw.buffer_capacity, hw.bandwidth, hw.dma_latency = {}, {}, {}
    return vars(parse_npu_spec(ASCEND_910).apply(hw))


_ASCEND_910_FIELDS = _parse_ascend_910()
