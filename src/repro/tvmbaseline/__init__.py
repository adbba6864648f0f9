"""The TVM-style manual-schedule baseline of the evaluation (Sec. 6).

The paper compares AKG against the vendor team's adaptation of TVM to the
DaVinci architecture: manually written schedule templates (tuned by TVM's
auto-tuner) using the classic primitive set.  :func:`tvm_build`
(:mod:`repro.tvmbaseline.compiler`) reproduces what those templates
compile to on the same virtual ISA: the vendor tile-size heuristic
``expert_tile_sizes``, refit until the storage plan fits, and the
documented TVM limitations -- pointwise-only operator fusion (no
post-tiling overlapped fusion -> stencil producers split into separate
kernels with a GM round trip) and the empirical synchronisation grouping
(more flags than AKG's DP policy).  The templates themselves are Fig. 10's
lines-of-code corpus, kept as text in ``benchmarks/test_fig10_loc.py``.
"""

from repro.tvmbaseline.compiler import tvm_build

__all__ = ["tvm_build"]
