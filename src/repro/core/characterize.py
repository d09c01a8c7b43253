"""Per-workload characterization: the full Section V treatment.

``characterize_devices(workload, devices)`` runs the workload through
the profiler once and bundles every per-application analysis of the
paper for each device: Table I row, cumulative time curve, aggregate
and per-kernel roofline points, and the dominant-kernel selection.
``characterize(workload, device)`` is its one-device view.  Neither
caches: result reuse is the engine's job (:mod:`repro.core.engine`),
because only the engine knows a workload is fully determined by its
``get_workload(abbr, scale, seed)`` recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.distribution import Table1Row, table1_row
from repro.analysis.roofline import (
    RooflinePoint,
    application_roofline,
    kernel_roofline,
)
from repro.gpu.device import RTX_3080, DeviceSpec
from repro.obs import CURRENT_TRACER
from repro.profiler.profiler import Profiler
from repro.profiler.records import ApplicationProfile
from repro.workloads.base import Workload


@dataclass
class Characterization:
    """Everything the paper derives from one workload."""

    abbr: str
    profile: ApplicationProfile
    table1: Table1Row
    cumulative_curve: List[Tuple[int, float]]
    aggregate_point: RooflinePoint
    kernel_points: List[RooflinePoint]
    dominant_points: List[RooflinePoint]

    @property
    def is_memory_intensive(self) -> bool:
        return not self.aggregate_point.is_compute_intensive

    @property
    def dominant_sides(self) -> Tuple[int, int]:
        """(compute-intensive, memory-intensive) counts among the
        dominant kernels."""
        compute = sum(1 for p in self.dominant_points if p.is_compute_intensive)
        return compute, len(self.dominant_points) - compute


def build_characterization(
    abbr: str, profile: ApplicationProfile, device: DeviceSpec = RTX_3080
) -> Characterization:
    """Derive every Section-V analysis from an existing profile."""
    from repro.analysis.distribution import cumulative_time_curve

    return Characterization(
        abbr=abbr,
        profile=profile,
        table1=table1_row(profile, abbr=abbr),
        cumulative_curve=cumulative_time_curve(profile, max_kernels=14),
        aggregate_point=application_roofline(profile, device),
        kernel_points=kernel_roofline(profile, device=device),
        dominant_points=kernel_roofline(
            profile, profile.dominant_kernels, device=device
        ),
    )


def characterize(
    workload: Workload,
    device: DeviceSpec = RTX_3080,
    options=None,
) -> Characterization:
    """Run the full per-workload characterization pipeline on one device.

    A one-device :func:`characterize_devices`.
    """
    return characterize_devices(workload, [device], options=options)[
        device.name
    ]


def generate_stream(workload: Workload):
    """The measured launch stream of *workload*, under a ``stream-gen`` span."""
    with CURRENT_TRACER.get().span(
        "stream-gen", category="phase", workload=workload.abbr
    ) as sp:
        stream = Profiler().prepare_stream(workload)
        sp.set_attr("launches", len(stream))
    return stream


def characterize_devices(
    workload: Workload,
    devices,
    options=None,
    stream=None,
) -> "dict[str, Characterization]":
    """Characterize one workload across N devices from ONE stream.

    The device-sweep inner loop: the launch stream (*stream*, or a fresh
    :func:`generate_stream`) goes through the batched device-axis
    simulator (:func:`repro.gpu.batched.simulate_devices`) — a single
    broadcast pass instead of N scalar walks — and every device's
    profile through the Section-V analyses.

    Returns ``{device.name: Characterization}`` in *devices* order.
    This is the only characterization path: :func:`characterize` is its
    one-device view, and one device is the same batched pass with
    ``D == 1``.

    The running run's tracer (:data:`repro.obs.CURRENT_TRACER`) wraps
    each phase — ``stream-gen``, ``simulate``, ``analyze`` — in a span.
    Pure observation: the stream and the result are bit-for-bit
    identical with tracing on or off.
    """
    from repro.gpu.batched import simulate_devices
    from repro.gpu.simulator import SimulationOptions

    tracer = CURRENT_TRACER.get()
    abbr = workload.abbr
    if stream is None:
        stream = generate_stream(workload)
    with tracer.span(
        "simulate", category="phase", workload=abbr, devices=len(devices)
    ) as sp:
        per_device = simulate_devices(
            stream,
            devices,
            options=options or SimulationOptions(),
        )
        sp.set_attr("launches", len(stream))
    aggregator = Profiler()
    results: "dict[str, Characterization]" = {}
    with tracer.span(
        "analyze", category="phase", workload=abbr, devices=len(devices)
    ):
        for device, metrics in zip(devices, per_device):
            profile = aggregator.profile_metrics(
                stream,
                metrics,
                workload=workload.name,
                suite=workload.suite,
                domain=workload.domain,
            )
            results[device.name] = build_characterization(
                abbr, profile, device
            )
    return results
