"""The TVM-style manual-schedule baseline of the evaluation (Sec. 6).

The paper compares AKG against the vendor team's adaptation of TVM to the
DaVinci architecture: manually written schedule templates (tuned by TVM's
auto-tuner) using the classic primitive set.  This package reproduces that
baseline faithfully *as a baseline*:

- :mod:`repro.tvmbaseline.schedule`  -- the schedule-primitive API
  (split / reorder / compute_at / vectorize / double_buffer /
  tensorize), recording transformations exactly as TVM users write them;
- :mod:`repro.tvmbaseline.templates` -- hand-written templates per
  operator class, mirroring what the vendor developers wrote;
- :mod:`repro.tvmbaseline.compiler`  -- lowering of scheduled operators to
  the same virtual ISA, with the documented TVM limitations: pointwise-only
  operator fusion (no post-tiling overlapped fusion -> stencil producers
  split into separate kernels with a GM round trip) and the empirical
  synchronisation grouping (more flags than AKG's DP policy).
"""

from repro.tvmbaseline.schedule import Schedule, ScheduleError
from repro.tvmbaseline.compiler import tvm_build

__all__ = ["Schedule", "ScheduleError", "tvm_build"]
