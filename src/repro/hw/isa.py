"""The CCE-like virtual instruction set.

The code generator lowers a schedule tree to a linear instruction stream
over the six DaVinci pipelines (decoupled access-execute, Sec. 5.2):

====== ================================================================
Pipe   Role
====== ================================================================
S      scalar unit (also dispatches, executes scalar arithmetic)
V      vector unit (SIMD intrinsics over UB)
M      cube unit (fractal MMAD over L0A/L0B -> L0C)
MTE1   on-chip mover: L1 -> L0A/L0B (incl. img2col), L0C/UB moves
MTE2   inbound DMA: GM -> L1 / UB
MTE3   outbound DMA: UB -> GM
====== ================================================================

Synchronisation uses explicit ``set_flag`` / ``wait_flag`` pairs between
pipes, exactly as on the chip; the simulator honours them.  ``Loop`` nodes
keep the stream compact for large tile counts -- the simulator unrolls
small loops and extrapolates a steady state for large ones.

Each instruction kind is one class that carries its whole meaning, and
the simulator, the CCE emitter, the race checker and the mutation
harness read that record instead of testing the type:

- ``pipe``: the pipe that issues it;
- ``sync``: ``None``, or its cross-pipe effect ``"set"``, ``"wait"`` or
  ``"barrier"`` (a barrier orders every pipe, whatever its ``pipe``);
- ``dma``: its ``nbytes`` count as DMA traffic;
- ``accesses()``: the ``(memory scope, is_write)`` pairs it touches;
- ``cycles(spec)``: its busy time on ``pipe`` under a ``HardwareSpec``;
- ``cce()``: its CCE intrinsic line; ``describe()``: its dump line.

:func:`walk` is the one recursion over ``Loop`` bodies; only the
simulator's ``_run_loop`` keeps its own, because it steps a few
iterations and extrapolates the rest.  A new kind is one subclass here
plus the code that emits it.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.hw.spec import HardwareSpec


class Pipe(Enum):
    """Instruction pipelines of the DaVinci core."""

    S = "S"
    V = "V"
    M = "M"
    MTE1 = "MTE1"
    MTE2 = "MTE2"
    MTE3 = "MTE3"


#: Every dataflow edge of Fig. 1: the pipe that serves it, its intrinsic.
#: Fig. 8 text may name only these edges (``spec_lang`` rejects others),
#: so ``spec.ASCEND_910``'s dataflow lines are checked against this table.
EDGES = {
    ("GM", "L1"): (Pipe.MTE2, "copy_gm_to_cbuf"),
    ("GM", "UB"): (Pipe.MTE2, "copy_gm_to_ubuf"),
    ("L1", "UB"): (Pipe.MTE1, "copy_cbuf_to_ubuf"),
    ("L1", "L0A"): (Pipe.MTE1, "load_cbuf_to_ca"),
    ("L1", "L0B"): (Pipe.MTE1, "load_cbuf_to_cb"),
    # The accumulator drain (copy_matrix_cc_to_ubuf) is a Vector-pipe
    # instruction on DaVinci, so it does not serialise against the MTE1
    # loads of the next tile.
    ("UB", "L0C"): (Pipe.V, "copy_ubuf_to_cc"),
    ("L0C", "UB"): (Pipe.V, "copy_matrix_cc_to_ubuf"),
    ("UB", "L1"): (Pipe.MTE1, "copy_ubuf_to_cbuf"),
    ("UB", "GM"): (Pipe.MTE3, "copy_ubuf_to_gm"),
}

Access = Tuple[Tuple[str, bool], ...]
_UB_READ_WRITE: Access = (("UB", False), ("UB", True))


class Instr:
    """Base instruction: the record every consumer reads (module doc)."""

    pipe: Pipe = Pipe.S
    label: str = ""
    sync: Optional[str] = None
    dma: bool = False
    #: A ``Loop``'s instructions; ``None`` for every other kind.
    body: Optional[List["Instr"]] = None

    def accesses(self) -> Access:
        """``(memory scope, is_write)`` pairs, for the race checker."""
        return ()

    def cycles(self, spec: "HardwareSpec") -> float:
        """Busy cycles on ``pipe``."""
        raise TypeError(f"cannot time {type(self).__name__}")

    def describe(self) -> str:
        """One-line rendering for dumps and debugging."""
        return type(self).__name__

    def __repr__(self) -> str:
        return self.describe()


class DmaInstr(Instr):
    """One DMA transfer of ``nbytes`` along a dataflow edge."""

    dma = True

    def __init__(
        self,
        src: str,
        dst: str,
        nbytes: int,
        contiguous_runs: int = 1,
        label: str = "",
    ):
        key = (src, dst)
        if key not in EDGES:
            raise ValueError(f"no dataflow path {src} -> {dst}")
        self.src = src
        self.dst = dst
        self.nbytes = int(nbytes)
        self.contiguous_runs = max(int(contiguous_runs), 1)
        self.pipe = EDGES[key][0]
        self.label = label

    def accesses(self) -> Access:
        return ((self.src, False), (self.dst, True))

    def cycles(self, spec: "HardwareSpec") -> float:
        return spec.transfer_cycles(
            self.src, self.dst, self.nbytes, self.contiguous_runs
        )

    def cce(self) -> str:
        intrinsic = EDGES[(self.src, self.dst)][1]
        label = self.label or "buf"
        return f"{intrinsic}({label}, {self.nbytes}, {self.contiguous_runs});"

    def describe(self) -> str:
        return (
            f"{self.pipe.value}: dma {self.src}->{self.dst} "
            f"{self.nbytes}B ({self.contiguous_runs} runs) {self.label}"
        )


class VectorInstr(Instr):
    """One SIMD intrinsic over ``elems`` elements in UB."""

    pipe = Pipe.V

    def __init__(
        self, op: str, elems: int, dtype: str, aligned: bool = True, label: str = ""
    ):
        self.op = op
        self.elems = int(elems)
        self.dtype = dtype
        self.aligned = aligned
        self.label = label

    def accesses(self) -> Access:
        return _UB_READ_WRITE

    def cycles(self, spec: "HardwareSpec") -> float:
        return spec.vector_cycles(self.elems, self.dtype, self.aligned)

    def cce(self) -> str:
        return (
            f"v{self.op}({self.label or 'dst'}, repeat={-(-self.elems // 128)}, "
            f"mask=128);  // {self.elems} x {self.dtype}"
        )

    def describe(self) -> str:
        align = "" if self.aligned else " unaligned"
        return f"V: v{self.op} {self.elems}x{self.dtype}{align} {self.label}"


class CubeInstr(Instr):
    """One MMAD over a (m, k, n) region of fractal blocks."""

    pipe = Pipe.M

    def __init__(self, m: int, k: int, n: int, dtype: str = "fp16", label: str = ""):
        self.m, self.k, self.n = int(m), int(k), int(n)
        self.dtype = dtype
        self.label = label

    def accesses(self) -> Access:
        return (("L0A", False), ("L0B", False), ("L0C", True))

    def cycles(self, spec: "HardwareSpec") -> float:
        return spec.cube_cycles(self.m, self.k, self.n, self.dtype)

    def cce(self) -> str:
        return f"mad({self.label or 'Z'}, m={self.m}, k={self.k}, n={self.n});"

    def describe(self) -> str:
        return f"M: mmad {self.m}x{self.k}x{self.n} {self.dtype} {self.label}"


class ScalarInstr(Instr):
    """``count`` scalar operations on the Scalar unit."""

    pipe = Pipe.S

    def __init__(self, count: int, label: str = ""):
        self.count = int(count)
        self.label = label

    def accesses(self) -> Access:
        return _UB_READ_WRITE

    def cycles(self, spec: "HardwareSpec") -> float:
        return spec.scalar_cycles(self.count)

    def cce(self) -> str:
        return f"// scalar x{self.count}: {self.label}"

    def describe(self) -> str:
        return f"S: scalar x{self.count} {self.label}"


class Img2ColInstr(Instr):
    """img2col data-layout transform performed by the MTE (Sec. 4.5)."""

    pipe = Pipe.MTE1

    def __init__(self, nbytes: int, label: str = ""):
        self.nbytes = int(nbytes)
        self.label = label

    def accesses(self) -> Access:
        return (("L1", False), ("L0A", True))

    def cycles(self, spec: "HardwareSpec") -> float:
        # A float, unlike every other kind: pinned cube cycles depend on it.
        return self.nbytes / spec.img2col_bytes_per_cycle + 32

    def cce(self) -> str:
        return f"img2col_cbuf_to_ca({self.nbytes});"

    def describe(self) -> str:
        return f"MTE1: img2col {self.nbytes}B {self.label}"


class SetFlag(Instr):
    """Signal an event from ``src_pipe`` to ``dst_pipe``."""

    sync = "set"

    def __init__(self, src_pipe: Pipe, dst_pipe: Pipe, event: int):
        self.src_pipe = src_pipe
        self.dst_pipe = dst_pipe
        self.event = event
        self.pipe = src_pipe

    def cce(self) -> str:
        # ``_value_``: the ``value`` property costs two Python-level calls.
        return (
            f"set_flag(PIPE_{self.src_pipe._value_}, "
            f"PIPE_{self.dst_pipe._value_}, EVENT_ID{self.event % 8});"
        )

    def describe(self) -> str:
        return f"{self.src_pipe.value}: set_flag -> {self.dst_pipe.value} #{self.event}"


class WaitFlag(Instr):
    """Block ``dst_pipe`` until the matching ``SetFlag`` executed."""

    sync = "wait"

    def __init__(self, src_pipe: Pipe, dst_pipe: Pipe, event: int):
        self.src_pipe = src_pipe
        self.dst_pipe = dst_pipe
        self.event = event
        self.pipe = dst_pipe

    def cce(self) -> str:
        return (
            f"wait_flag(PIPE_{self.src_pipe._value_}, "
            f"PIPE_{self.dst_pipe._value_}, EVENT_ID{self.event % 8});"
        )

    def describe(self) -> str:
        return f"{self.dst_pipe.value}: wait_flag <- {self.src_pipe.value} #{self.event}"


class Barrier(Instr):
    """Full cross-pipe barrier (pipe_barrier ALL)."""

    sync = "barrier"

    def cce(self) -> str:
        return "pipe_barrier(PIPE_ALL);"

    def describe(self) -> str:
        return "barrier(ALL)"


class Loop(Instr):
    """``count`` repetitions of ``body`` (steady-state simulated)."""

    def __init__(self, count: int, body: Sequence[Instr], label: str = ""):
        if count < 0:
            raise ValueError("loop count must be non-negative")
        self.count = int(count)
        self.body: List[Instr] = list(body)
        self.label = label

    def describe(self) -> str:
        return f"loop x{self.count} [{len(self.body)} instrs] {self.label}"


#: A :func:`walk` row: ``(depth, scale, instr, owner, index)``.
Row = Tuple[int, int, Optional[Instr], List[Instr], int]


def walk(
    instrs: Sequence[Instr],
    loops: bool = False,
    depth: int = 0,
    scale: int = 1,
    out: Optional[List[Row]] = None,
) -> List[Row]:
    """Every instruction of a stream in program order, each loop body once.

    A row is ``(depth, scale, instr, owner, index)`` with
    ``owner[index] is instr`` and ``scale`` the product of the enclosing
    trip counts times the ``scale`` passed in -- 0 under a zero-trip
    loop, whose body is still walked.  With ``loops`` a ``Loop`` also has
    a row of its own before its body and one with ``instr`` ``None``
    after it, for renderers that open and close it.
    """
    if out is None:
        out = []
    for index, instr in enumerate(instrs):
        if isinstance(instr, Loop):
            if loops:
                out.append((depth, scale, instr, instrs, index))
            walk(instr.body, loops, depth + 1, scale * instr.count, out)
            if loops:
                out.append((depth, scale, None, instrs, index))
        else:
            out.append((depth, scale, instr, instrs, index))
    return out


class Program:
    """A compiled kernel: instruction stream + replay metadata.

    ``trace`` optionally carries the statement-instance execution order for
    the functional executor (see :mod:`repro.codegen.program_exec`);
    benchmark-only compilations omit it.
    """

    def __init__(
        self,
        name: str,
        instructions: Sequence[Instr],
        trace: Optional[List[Any]] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.instructions: List[Instr] = list(instructions)
        self.trace = trace
        self.metadata = metadata or {}

    def flat_count(self) -> int:
        """Total instruction count with loops expanded (for reporting)."""
        return sum([scale for _, scale, _, _, _ in walk(self.instructions)])

    def static_count(self) -> int:
        """Static instruction count (loops counted once)."""
        return len(walk(self.instructions))

    def dump(self) -> str:
        """Readable listing of the whole program."""
        lines = []
        for depth, _, instr, _, _ in walk(self.instructions, loops=True):
            pad = "  " * depth
            if instr is None:
                lines.append(pad + "}")
            elif instr.body is None:
                lines.append(pad + instr.describe())
            else:
                lines.append(f"{pad}loop x{instr.count} {{ {instr.label}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Program({self.name}, {self.static_count()} static instrs)"
