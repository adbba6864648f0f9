"""CCE code emission: the C-like kernel text of the Ascend toolchain.

Real CCE kernels are C functions that declare on-chip buffers and call
hardware intrinsics (``copy_gm_to_cbuf``, ``vadd``, ``mad``,
``set_flag``/``wait_flag``).  The emitter renders the compiled virtual
instruction stream in exactly that vocabulary, preceded by the buffer
declarations from the storage plan and (as a reference comment block) the
polyhedral AST of the schedule tree.
"""

from __future__ import annotations

from typing import List

from repro.codegen.ast import generate_ast
from repro.hw.isa import walk

_SCOPE = {
    "L1": "__cbuf__", "UB": "__ubuf__", "L0A": "__ca__", "L0B": "__cb__", "L0C": "__cc__"
}
_CTYPE = {"fp16": "half", "fp32": "float", "int32": "int32_t"}


def emit_cce(result) -> str:
    """Render a :class:`~repro.core.compiler.CompileResult` as CCE text."""
    lines: List[str] = []
    kernel = result.kernel
    args = ", ".join(
        f"__gm__ {_CTYPE.get(t.dtype, 'half')}* {t.name}"
        for t in list(kernel.inputs) + list(kernel.outputs)
    )
    lines.append(f"// AKG generated kernel: {kernel.name}")
    lines.append(f"extern \"C\" __global__ __aicore__ void {kernel.name}({args}) {{")

    for plan in result.plans:
        for key, alloc in plan.allocations.items():
            lines.append(
                f"  {_SCOPE.get(alloc.scope, '__gm__')} "
                f"{_CTYPE.get(alloc.dtype, 'half')} {key}_local[{alloc.elems}];"
                f"  // {alloc.scope}, {alloc.nbytes} B"
            )

    lines.append("")
    for depth, _, instr, _, _ in walk(result.program.instructions, loops=True, depth=1):
        pad = "  " * depth
        if instr is None:
            lines.append(pad + "}")
        elif instr.body is None:
            lines.append(pad + instr.cce())
        else:
            var = f"i{depth}"
            lines.append(f"{pad}for (int {var} = 0; {var} < {instr.count}; ++{var}) {{")
    lines.append("}")

    # Reference: the polyhedral AST of the final schedule tree.
    lines.append("")
    lines.append("/* schedule-tree AST (reference)")
    lines.extend(generate_ast(result.tree, kernel.statements).render(0).splitlines())
    lines.append("*/")
    return "\n".join(lines)
