"""The profiler: the measured launch stream and its aggregation.

Mirrors the paper's measurement flow in two steps around the simulator:
:meth:`Profiler.prepare_stream` runs the workload and crops repetitive
ones to a steady-state region (the paper profiles a steady-state window
for the molecular and ML workloads and the full run for graph
workloads), and :meth:`Profiler.profile_metrics` aggregates per-launch
metrics by kernel name.  The simulation between them is
:func:`repro.core.characterize.characterize_devices`' job; a profile
"by hand" is ``characterize(workload, device).profile``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.gpu.kernel import KernelLaunch
from repro.gpu.metrics import KernelMetrics
from repro.profiler.records import ApplicationProfile, aggregate_launches
from repro.profiler.steady_state import select_steady_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import Workload


class Profiler:
    """Prepares a workload's measured stream and aggregates its metrics."""

    # ------------------------------------------------------------------
    def prepare_stream(self, workload: "Workload") -> List[KernelLaunch]:
        """*workload*'s launch stream, cropped to its steady state iff
        the workload is repetitive.

        This is exactly the launch sequence a characterization
        simulates, digests and aggregates, so it must stay the single
        source of truth for what gets measured.
        """
        stream = list(workload.launch_stream())
        if not stream:
            raise ValueError(
                f"workload {workload.name!r} produced an empty launch stream"
            )
        if workload.repetitive:
            stream = select_steady_state(stream)
        return stream

    # ------------------------------------------------------------------
    def profile_metrics(
        self,
        launches: Iterable[KernelLaunch],
        metrics: Iterable[KernelMetrics],
        workload: str,
        suite: str = "",
        domain: str = "",
    ) -> ApplicationProfile:
        """Aggregate per-launch metrics into a profile.

        ``metrics`` must parallel ``launches``: one record per launch,
        repeated launches of an equal kernel sharing one record, as
        :func:`repro.gpu.batched.simulate_devices` returns them for
        each device.
        """
        by_name: Dict[str, List[KernelMetrics]] = defaultdict(list)
        for launch, record in zip(launches, metrics):
            by_name[launch.name].append(record)
        kernels = [
            aggregate_launches(name, records)
            for name, records in by_name.items()
        ]
        return ApplicationProfile(
            workload=workload, suite=suite, domain=domain, kernels=kernels
        )
