"""Hand-written CCE baselines of the evaluation (Sec. 6.1).

- :mod:`repro.cce.naive`  -- the naive implementation "written by the
  experts without using vendor libraries or performing optimizations":
  scalar execution, row-at-a-time DMA, no double buffering, barrier
  synchronisation.
- :mod:`repro.cce.expert` -- the optimized CCE code / vendor libraries:
  per-operator hand-tuned kernels with expert tile sizes, hardware
  prefetching (which AKG's double buffering cannot match on scalar-heavy
  code, giving the expert its small edge on single operators), but **no
  cross-operator fusion**: on subgraphs every operator round-trips global
  memory, which is exactly why the tensor compilers beat it by large
  factors in Fig. 12.
"""

from repro.cce.naive import cce_naive_build
from repro.cce.expert import cce_expert_build

__all__ = ["cce_naive_build", "cce_expert_build"]
