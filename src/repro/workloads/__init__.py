"""Workload substrate: the benchmarks themselves.

Every benchmark analysed in the paper is modelled as a
:class:`~repro.workloads.base.Workload` that, when run, produces a
kernel :class:`~repro.gpu.kernel.LaunchStream`.  The Cactus workloads
are full application models (an MD engine, a Gunrock-style BFS, a
shape-level deep-learning framework); the Parboil/Rodinia/Tango
baselines are bottom-up kernel benchmarks.
"""

from repro.workloads.base import Workload, WorkloadInfo
from repro.workloads.registry import (
    cactus_workloads,
    get_workload,
    list_suites,
    list_workloads,
    register_workload,
)

__all__ = [
    "Workload",
    "WorkloadInfo",
    "cactus_workloads",
    "get_workload",
    "list_suites",
    "list_workloads",
    "register_workload",
]
