"""Nsight-Compute-like profiling layer.

Prepares a workload's measured launch stream (steady-state cropped for
repetitive workloads), aggregates the simulator's per-launch metrics
into per-kernel profiles (``Ti = sum r_i * t_i``), and assembles an
:class:`~repro.profiler.records.ApplicationProfile` — the object every
analysis in the paper consumes.  The simulation in between is
:func:`repro.core.characterize.characterize_devices`' one batched pass.
"""

from repro.profiler.diffing import KernelDelta, ProfileDiff, diff_profiles
from repro.profiler.profiler import Profiler
from repro.profiler.records import ApplicationProfile, KernelProfile
from repro.profiler.steady_state import select_steady_state
from repro.profiler.trace_export import export_trace

__all__ = [
    "KernelDelta",
    "ProfileDiff",
    "diff_profiles",
    "Profiler",
    "ApplicationProfile",
    "KernelProfile",
    "select_steady_state",
    "export_trace",
]
