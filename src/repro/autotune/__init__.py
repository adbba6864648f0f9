"""Auto-tuning (Sec. 5.3): ML-guided sampling over the tiling space."""

from repro.autotune.tuner import AutoTuner, TuningRecord, tune_tile_sizes
from repro.autotune.model import PerformanceModel
from repro.autotune.parallel import Measurer

__all__ = [
    "AutoTuner",
    "TuningRecord",
    "tune_tile_sizes",
    "PerformanceModel",
    "Measurer",
]
