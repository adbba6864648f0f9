"""The memory-hierarchy specification language of Fig. 8 (Sec. 4.6).

Grammar (Fig. 8, plus the two lines marked ``*``)::

    buffer       :: string
    buffer_size  :: integer
    buffer_spec  :: "buf" buffer ( buffer_size )
    compute_type :: string in a predefined set
    in_bufs      :: buffer | in_bufs buffer
    out_bufs     :: buffer | out_bufs buffer
    throughput   :: integer
    alignment    :: integer
  * latency      :: "latency" integer
    compute_unit :: compute_type ( in_bufs -> out_bufs, throughput, alignment ) [latency]
    dataflow     :: "dataflow" ( in_bufs -> out_bufs, throughput, alignment ) [latency]
  * constant     :: "const" name ( number )
    npu_stmt     :: compute_unit | buffer_spec | dataflow | constant
    npu_spec     :: npu_stmt | npu_stmts npu_stmt

The ``latency N`` suffix and the ``const NAME (value)`` line are beyond
the paper: Fig. 8 has no slot for latencies or for the machine's other
scalars.  :meth:`NpuSpec.apply` is what each line sets; a line without
``latency`` keeps the latency it overlays.  Parsed but driving nothing:
a dataflow's alignment, and the ``scalar`` and ``mte`` units.  The
vector line's alignment 32 is the constant
``codegen.vectorize.UB_BLOCK_BYTES``, which the vectoriser reads.

Every dataflow edge must be one of :data:`repro.hw.isa.EDGES` (no pipe
serves any other) and every buffer one of its scopes; these, an unknown
``const`` and any malformed line raise :class:`NpuSpecError` naming the
line.  The default machine is written in this language
(:data:`repro.hw.spec.ASCEND_910`); ``to_hardware_spec`` overlays text on
a copy of a machine, the fine-grained manual control the paper describes
for debugging.  Like the paper, the automatic flow never requires it.
"""

from __future__ import annotations

import copy
import re
import sys
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.hw.isa import EDGES

COMPUTE_TYPES = ("cube", "vector", "scalar", "mte")

#: The fields a ``const`` line may set: every one no other line sets.
CONSTS = (
    "vector_unaligned_penalty",
    "scalar_cycles_per_op",
    "sync_cycles",
    "noncontiguous_run_overhead",
    "img2col_bytes_per_cycle",
    "double_buffer_fraction",
)

#: The memory scopes the instruction set moves data between.
SCOPES = frozenset(scope for edge in EDGES for scope in edge)


class NpuSpecError(ValueError):
    """Raised on malformed Fig. 8 specification text."""


class Statement(NamedTuple):
    """One npu statement.  ``kind`` is ``"buf"``, ``"const"``,
    ``"dataflow"`` or a compute type; ``name`` the buffer or field of a
    ``buf``/``const`` line; ``value`` its size or value, or a throughput."""

    kind: str
    name: str
    in_bufs: Tuple[str, ...]
    out_bufs: Tuple[str, ...]
    value: Union[int, float]
    alignment: Optional[int]
    latency: Optional[int]

    def __str__(self) -> str:
        if not self.in_bufs:
            return f"{self.kind} {self.name} ({self.value})"
        text = (
            f"{self.kind} ({' '.join(self.in_bufs)} -> "
            f"{' '.join(self.out_bufs)}, {self.value}, {self.alignment})"
        )
        return text if self.latency is None else f"{text} latency {self.latency}"


class NpuSpec:
    """A parsed sequence of npu statements."""

    def __init__(self, statements: Sequence[Statement]):
        self.statements = list(statements)

    def of(self, *kinds: str) -> List[Statement]:
        """The statements of the given kinds, in order."""
        return [s for s in self.statements if s.kind in kinds]

    def apply(self, hw):
        """Set the fields each statement names on ``hw``; return ``hw``."""
        for s in self.statements:
            if s.kind == "buf":
                hw.buffer_capacity[s.name] = s.value
            elif s.kind == "const":
                setattr(hw, s.name, s.value)
            elif s.kind == "dataflow":
                for src in s.in_bufs:
                    for dst in s.out_bufs:
                        key = (src, dst)
                        hw.bandwidth[key] = float(s.value)
                        if s.latency is not None:
                            hw.dma_latency[key] = s.latency
            elif s.kind == "vector":
                hw.vector_bytes_per_cycle = s.value
                if s.latency is not None:
                    hw.vector_issue_latency = s.latency
            elif s.kind == "cube":
                # Throughput is MACs per cycle over (a, a, a) fractal blocks.
                side = s.alignment
                hw.cube_block = (side, side, side)
                hw.cube_cycles_per_block = max(side * side * side // s.value, 1)
                if s.latency is not None:
                    hw.cube_issue_latency = s.latency
        return hw

    def to_hardware_spec(self, base=None):
        """A copy of ``base`` (default ``HardwareSpec()``) with the
        statements applied; ``base`` itself is left as it was."""
        if base is None:
            from repro.hw.spec import HardwareSpec

            return self.apply(HardwareSpec())
        return self.apply(copy.deepcopy(base))

    def render(self) -> str:
        """Serialise back to Fig. 8 syntax."""
        return "\n".join(str(s) for s in self.statements)


_NAMED_RE = re.compile(r"^(buf|const)\s+(\w+)\s*\(\s*(\d+(?:\.\d+)?)\s*\)$")
_UNIT_RE = re.compile(
    r"^(\w+)\s*\(\s*([\w\s]+?)\s*->\s*([\w\s]+?)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)"
    r"(?:\s+latency\s+(\d+))?$"
)


def _buffers(text: str) -> Tuple[str, ...]:
    # Interned, so a pickled spec shares each name with the code's literals.
    names = tuple(sys.intern(name) for name in text.split())
    for name in names:
        if name not in SCOPES:
            raise NpuSpecError(f"unknown buffer {name!r}; expected one of {sorted(SCOPES)}")
    return names


def _statement(line: str) -> Statement:
    m = _NAMED_RE.match(line)
    if m:
        kind, name, number = m.groups()
        value = float(number) if "." in number else int(number)
        if kind == "const":
            if name not in CONSTS:
                raise NpuSpecError(f"unknown const {name!r}; expected one of {CONSTS}")
            return Statement(kind, sys.intern(name), (), (), value, None, None)
        if not isinstance(value, int) or value <= 0:
            raise NpuSpecError(f"buffer size must be a positive integer, got {number}")
        return Statement(kind, _buffers(name)[0], (), (), value, None, None)
    m = _UNIT_RE.match(line)
    if not m:
        raise NpuSpecError(f"cannot parse {line!r}")
    kind, ins, outs, throughput, alignment, latency = m.groups()
    if kind != "dataflow" and kind not in COMPUTE_TYPES:
        raise NpuSpecError(f"unknown compute type {kind!r}; expected {COMPUTE_TYPES}")
    if int(throughput) <= 0 or int(alignment) <= 0:
        raise NpuSpecError("throughput and alignment must be positive")
    in_bufs, out_bufs = _buffers(ins), _buffers(outs)
    missing = [f"{s} -> {d}" for s in in_bufs for d in out_bufs if (s, d) not in EDGES]
    if kind == "dataflow" and missing:
        raise NpuSpecError(f"no pipe serves the dataflow edge {missing[0]}")
    latency = None if latency is None else int(latency)
    return Statement(kind, "", in_bufs, out_bufs, int(throughput), int(alignment), latency)


def parse_npu_spec(text: str) -> NpuSpec:
    """Parse Fig. 8 specification text."""
    statements: List[Statement] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                statements.append(_statement(line))
            except NpuSpecError as exc:
                raise NpuSpecError(f"line {line_no}: {exc}") from None
    return NpuSpec(statements)
