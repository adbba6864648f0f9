"""Hardware layer: the simulated DaVinci (Ascend 910) NPU.

This package is the substitution for the physical chip (see DESIGN.md):

- :mod:`repro.hw.spec`      -- the Ascend 910 core (Fig. 1) written as
  Fig. 8 text, ``ASCEND_910``; ``HardwareSpec()`` is its parse (buffer
  capacities, bandwidths, latencies, unit throughputs).
- :mod:`repro.hw.spec_lang` -- the memory-hierarchy specification language
  of Fig. 8: the default machine's source, and the overlay for manual
  scheduling and debugging.
- :mod:`repro.hw.isa`       -- the CCE-like virtual instruction set the
  code generator emits.
- :mod:`repro.hw.simulator` -- decoupled-access-execute pipeline simulator
  producing execution cycles.
"""

from repro.hw.spec import HardwareSpec
from repro.hw.isa import (
    CubeInstr,
    DmaInstr,
    Img2ColInstr,
    Instr,
    Loop,
    Pipe,
    Program,
    ScalarInstr,
    SetFlag,
    VectorInstr,
    WaitFlag,
)
from repro.hw.simulator import Simulator

__all__ = [
    "HardwareSpec",
    "Pipe",
    "Instr",
    "DmaInstr",
    "VectorInstr",
    "CubeInstr",
    "ScalarInstr",
    "Img2ColInstr",
    "SetFlag",
    "WaitFlag",
    "Loop",
    "Program",
    "Simulator",
]
