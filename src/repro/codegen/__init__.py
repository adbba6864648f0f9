"""Code generation: schedule trees -> CCE-like programs (Sec. 5).

- :mod:`repro.codegen.vectorize`    -- SIMD intrinsic selection: op counts
  and alignment analysis (Sec. 5.1).
- :mod:`repro.codegen.sync`         -- DAE synchronisation insertion and the
  dynamic-programming flag grouping (Sec. 5.2).
- :mod:`repro.codegen.program`      -- lowering tiled groups to the virtual
  instruction stream consumed by the simulator.
- :mod:`repro.codegen.program_exec` -- functional replay of a compiled
  program against numpy buffers (the end-to-end correctness check).
- :mod:`repro.codegen.ast`          -- polyhedral AST generation (loop
  nests from schedule trees).
- :mod:`repro.codegen.cce`          -- textual CCE-code emission.
"""

from repro.codegen.program import ProgramBuilder
from repro.codegen.program_exec import execute_program

__all__ = ["ProgramBuilder", "execute_program"]
