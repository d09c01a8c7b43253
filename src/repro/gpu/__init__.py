"""GPU hardware and timing substrate.

This package models the measurement platform of the Cactus paper — an
Nvidia RTX 3080 profiled with Nsight Compute — as an analytical
instruction-roofline performance model.  Workloads submit streams of
:class:`~repro.gpu.kernel.KernelLaunch` objects;
:func:`~repro.gpu.batched.simulate_devices` turns each launch into one
:class:`~repro.gpu.metrics.KernelMetrics` record per device, carrying
the same metric vocabulary the paper collects (Table IV) plus the
roofline quantities (GIPS and instruction intensity).
"""

from repro.gpu.batched import batch_kernel_metrics, simulate_devices
from repro.gpu.device import (
    A100,
    DEVICE_PRESETS,
    DEVICE_ZOO,
    EDGE_GPU,
    H100,
    P100,
    RTX_3080,
    RTX_3090,
    RTX_4090,
    V100,
    DeviceSpec,
    device_by_name,
)
from repro.gpu.kernel import (
    InstructionMix,
    KernelCharacteristics,
    KernelLaunch,
    LaunchStream,
    MemoryFootprint,
)
from repro.gpu.metrics import (
    PRIMARY_METRICS,
    SECONDARY_METRICS,
    KernelMetrics,
)
from repro.gpu.simulator import GPUSimulator, SimulationOptions

__all__ = [
    "A100",
    "DEVICE_PRESETS",
    "DEVICE_ZOO",
    "EDGE_GPU",
    "H100",
    "P100",
    "RTX_3080",
    "RTX_3090",
    "RTX_4090",
    "V100",
    "DeviceSpec",
    "device_by_name",
    "batch_kernel_metrics",
    "simulate_devices",
    "InstructionMix",
    "KernelCharacteristics",
    "KernelLaunch",
    "LaunchStream",
    "MemoryFootprint",
    "KernelMetrics",
    "PRIMARY_METRICS",
    "SECONDARY_METRICS",
    "GPUSimulator",
    "SimulationOptions",
]
