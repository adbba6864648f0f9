"""Scheduling layer: schedule trees, dependences and polyhedral schedulers.

- :mod:`repro.sched.tree`       -- the schedule-tree IR (domain, band,
  filter, sequence, mark, extension nodes) of Grosser et al. [20],
  extended with the AKG-specific semantics of Sec. 4.
- :mod:`repro.sched.deps`       -- dependence analysis over access maps.
- :mod:`repro.sched.scheduler`  -- Pluto-style ILP scheduler with a
  Feautrier-style fallback.
- :mod:`repro.sched.clustering` -- affine clustering (fusion heuristics).
"""

from repro.sched.tree import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
)
from repro.sched.deps import Dependence, compute_dependences
from repro.sched.scheduler import PolyScheduler

__all__ = [
    "ScheduleNode",
    "DomainNode",
    "BandNode",
    "FilterNode",
    "SequenceNode",
    "MarkNode",
    "ExtensionNode",
    "LeafNode",
    "Dependence",
    "compute_dependences",
    "PolyScheduler",
]
