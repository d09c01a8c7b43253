"""Frozen scalar form of the analytical GPU model, kept as a test oracle.

The product runs the model only as the batched ``(device, kernel)``
pass in :mod:`repro.gpu.batched`.  These modules are the per-kernel
implementation it was derived from, with their own copies of the model
constants, so the differential tests compare two independent
implementations rather than the batched pass with itself.
"""

from .memory import CacheModel, MemorySystemResult
from .occupancy import OccupancyResult, compute_occupancy
from .timing import TimingBreakdown, TimingModel

__all__ = [
    "CacheModel",
    "MemorySystemResult",
    "OccupancyResult",
    "TimingBreakdown",
    "TimingModel",
    "compute_occupancy",
]
