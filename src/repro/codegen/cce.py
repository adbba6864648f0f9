"""CCE code emission: the C-like kernel text of the Ascend toolchain.

Real CCE kernels are C functions that declare on-chip buffers and call
hardware intrinsics (``copy_gm_to_cbuf``, ``vadd``, ``mad``,
``set_flag``/``wait_flag``).  The emitter renders the compiled virtual
instruction stream in exactly that vocabulary, preceded by the buffer
declarations from the storage plan and (as a reference comment block) the
polyhedral AST of the schedule tree.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.hw.isa import (
    Barrier,
    CubeInstr,
    DmaInstr,
    Img2ColInstr,
    Instr,
    Loop,
    ScalarInstr,
    SetFlag,
    VectorInstr,
    WaitFlag,
)

_DMA_INTRINSIC = {
    ("GM", "L1"): "copy_gm_to_cbuf",
    ("GM", "UB"): "copy_gm_to_ubuf",
    ("L1", "L0A"): "load_cbuf_to_ca",
    ("L1", "L0B"): "load_cbuf_to_cb",
    ("L1", "UB"): "copy_cbuf_to_ubuf",
    ("UB", "L1"): "copy_ubuf_to_cbuf",
    ("L0C", "UB"): "copy_matrix_cc_to_ubuf",
    ("UB", "L0C"): "copy_ubuf_to_cc",
    ("UB", "GM"): "copy_ubuf_to_gm",
}


def emit_cce(result) -> str:
    """Render a :class:`~repro.core.compiler.CompileResult` as CCE text."""
    lines: List[str] = []
    kernel = result.kernel
    args = ", ".join(
        f"__gm__ half* {t.name}" for t in list(kernel.inputs) + list(kernel.outputs)
    )
    lines.append(f"// AKG generated kernel: {kernel.name}")
    lines.append(f"extern \"C\" __global__ __aicore__ void {kernel.name}({args}) {{")

    for plan in result.plans:
        for key, alloc in plan.allocations.items():
            scope = {
                "L1": "__cbuf__",
                "UB": "__ubuf__",
                "L0A": "__ca__",
                "L0B": "__cb__",
                "L0C": "__cc__",
            }.get(alloc.scope, "__gm__")
            ctype = {"fp16": "half", "fp32": "float", "int32": "int32_t"}.get(
                alloc.dtype, "half"
            )
            lines.append(
                f"  {scope} {ctype} {key}_local[{alloc.elems}];"
                f"  // {alloc.scope}, {alloc.nbytes} B"
            )

    lines.append("")
    lines.extend(_render_instrs(result.program.instructions, indent=1))
    lines.append("}")

    # Reference: the polyhedral AST of the final schedule tree.
    try:
        from repro.codegen.ast import generate_ast

        ast = generate_ast(result.tree, result.kernel.statements)
        lines.append("")
        lines.append("/* schedule-tree AST (reference)")
        lines.extend(ast.render(0).splitlines())
        lines.append("*/")
    except Exception:  # pragma: no cover - the AST is best-effort decoration
        pass
    return "\n".join(lines)


def _render_instrs(instrs: Sequence[Instr], indent: int) -> List[str]:
    pad = "  " * indent
    out: List[str] = []
    for instr in instrs:
        if isinstance(instr, Loop):
            var = f"i{indent}"
            out.append(f"{pad}for (int {var} = 0; {var} < {instr.count}; ++{var}) {{")
            out.extend(_render_instrs(instr.body, indent + 1))
            out.append(f"{pad}}}")
        elif isinstance(instr, DmaInstr):
            intrinsic = _DMA_INTRINSIC.get((instr.src, instr.dst), "copy")
            out.append(
                f"{pad}{intrinsic}({instr.label or 'buf'}, {instr.nbytes}, "
                f"{instr.contiguous_runs});"
            )
        elif isinstance(instr, VectorInstr):
            repeat = -(-instr.elems // 128)
            out.append(
                f"{pad}v{instr.op}({instr.label or 'dst'}, repeat={repeat}, "
                f"mask=128);  // {instr.elems} x {instr.dtype}"
            )
        elif isinstance(instr, CubeInstr):
            out.append(
                f"{pad}mad({instr.label or 'Z'}, m={instr.m}, k={instr.k}, "
                f"n={instr.n});"
            )
        elif isinstance(instr, Img2ColInstr):
            out.append(f"{pad}img2col_cbuf_to_ca({instr.nbytes});")
        elif isinstance(instr, ScalarInstr):
            out.append(f"{pad}// scalar x{instr.count}: {instr.label}")
        elif isinstance(instr, SetFlag):
            out.append(
                f"{pad}set_flag(PIPE_{instr.src_pipe.value}, "
                f"PIPE_{instr.dst_pipe.value}, EVENT_ID{instr.event % 8});"
            )
        elif isinstance(instr, WaitFlag):
            out.append(
                f"{pad}wait_flag(PIPE_{instr.src_pipe.value}, "
                f"PIPE_{instr.dst_pipe.value}, EVENT_ID{instr.event % 8});"
            )
        elif isinstance(instr, Barrier):
            out.append(f"{pad}pipe_barrier(PIPE_ALL);")
        else:  # pragma: no cover
            out.append(f"{pad}// {instr.describe()}")
    return out
