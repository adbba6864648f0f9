"""Hardware layer: the simulated DaVinci (Ascend 910) NPU.

This package is the substitution for the physical chip (see DESIGN.md):

- :mod:`repro.hw.spec`      -- architectural constants (Fig. 1): compute
  units, buffer capacities, bandwidths, latencies.
- :mod:`repro.hw.spec_lang` -- the memory-hierarchy specification language
  of Fig. 8 (manual scheduling and debugging interface).
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
