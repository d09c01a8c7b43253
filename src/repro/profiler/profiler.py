"""The profiler: workload -> launch stream -> application profile.

Mirrors the paper's measurement flow: run the workload, optionally crop
to a steady-state region (the paper profiles a steady-state window for
the repetitive molecular and ML workloads and the full run for graph
workloads), then aggregate per-launch metrics by kernel name.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.gpu.kernel import KernelLaunch
from repro.gpu.metrics import KernelMetrics
from repro.gpu.simulator import GPUSimulator
from repro.profiler.records import ApplicationProfile, aggregate_launches
from repro.profiler.steady_state import select_steady_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import Workload


class Profiler:
    """Profiles workloads on a :class:`GPUSimulator`."""

    def __init__(
        self,
        simulator: Optional[GPUSimulator] = None,
        steady_state: bool = True,
    ) -> None:
        self.simulator = simulator or GPUSimulator()
        self.steady_state = steady_state

    # ------------------------------------------------------------------
    def prepare_stream(self, workload: "Workload") -> List[KernelLaunch]:
        """*workload*'s launch stream after steady-state cropping.

        This is exactly the launch sequence :meth:`profile` aggregates;
        the characterization engine simulates and digests it, so it
        must stay the single source of truth for what gets measured.
        """
        stream = list(workload.launch_stream())
        if not stream:
            raise ValueError(
                f"workload {workload.name!r} produced an empty launch stream"
            )
        if self.steady_state and workload.repetitive:
            stream = select_steady_state(stream)
        return stream

    # ------------------------------------------------------------------
    def profile(self, workload: "Workload") -> ApplicationProfile:
        """Run *workload* and return its aggregated profile."""
        return self.profile_launches(
            self.prepare_stream(workload),
            workload=workload.name,
            suite=workload.suite,
            domain=workload.domain,
        )

    # ------------------------------------------------------------------
    def profile_launches(
        self,
        launches: Iterable[KernelLaunch],
        workload: str,
        suite: str = "",
        domain: str = "",
    ) -> ApplicationProfile:
        """Aggregate an explicit launch sequence into a profile."""
        launch_list = list(launches)
        metrics = self.simulator.run_stream(launch_list)
        return self.profile_metrics(
            launch_list, metrics, workload, suite=suite, domain=domain
        )

    # ------------------------------------------------------------------
    def profile_metrics(
        self,
        launches: Iterable[KernelLaunch],
        metrics: Iterable[KernelMetrics],
        workload: str,
        suite: str = "",
        domain: str = "",
    ) -> ApplicationProfile:
        """Aggregate precomputed per-launch metrics into a profile.

        The device-sweep path simulates one stream across many devices
        in a single batched pass (:func:`repro.gpu.batched.simulate_devices`)
        and then aggregates each device's metric sequence here — the
        exact aggregation :meth:`profile_launches` performs, so a
        batched profile compares equal to a scalar one.  ``metrics``
        must parallel ``launches`` (one record per launch, repeated
        launches sharing one record, as both simulators guarantee).
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
