"""SM occupancy model.

Computes how many warps are resident per SM for a launch and how well the
grid fills the machine.  This drives two Table IV metrics directly (warp
occupancy and SM efficiency) and feeds the latency-hiding term of the
timing model.

Part of the frozen scalar oracle: the product evaluates these formulas
as ``(device, kernel)`` matrix expressions in :mod:`repro.gpu.batched`
with the same operation order, and the differential tests in
``tests/gpu/test_batched_devices.py`` fail loudly if the two drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import KernelCharacteristics


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy outcome for one kernel launch."""

    #: Warps resident per active SM (bounded by the device limit).
    active_warps_per_sm: float
    #: Average active warps across *all* SMs — the paper's
    #: "warp occupancy" metric; accounts for partially filled waves.
    avg_active_warps: float
    #: Fraction of SM-time with at least one resident warp — the paper's
    #: "SM efficiency" metric.
    sm_efficiency: float
    #: Number of launch waves needed to drain the grid.
    waves: int

    def __post_init__(self) -> None:
        if self.active_warps_per_sm < 0 or self.avg_active_warps < 0:
            raise ValueError("warp counts must be non-negative")
        if not 0.0 <= self.sm_efficiency <= 1.0:
            raise ValueError(f"sm_efficiency out of range: {self.sm_efficiency}")
        if self.waves < 1:
            raise ValueError("waves must be >= 1")


def compute_occupancy(
    device: DeviceSpec, kernel: KernelCharacteristics
) -> OccupancyResult:
    """Occupancy of *kernel* on *device*.

    Resident blocks per SM are bounded by the warp limit and the block
    limit; the grid then drains in waves of
    ``blocks_per_sm * num_sms`` blocks.  The final (partial) wave lowers
    both average occupancy and SM efficiency — the classic tail effect
    that penalizes small grids such as road-network BFS levels.
    """
    warps_per_block = kernel.warps_per_block
    blocks_per_sm = min(
        device.max_blocks_per_sm,
        max(1, device.max_warps_per_sm // warps_per_block),
    )
    warps_per_sm_full = min(
        device.max_warps_per_sm, blocks_per_sm * warps_per_block
    )

    blocks_per_wave = blocks_per_sm * device.num_sms
    waves = max(1, math.ceil(kernel.grid_blocks / blocks_per_wave))
    full_waves = kernel.grid_blocks // blocks_per_wave
    tail_blocks = kernel.grid_blocks - full_waves * blocks_per_wave

    # Average warps resident across all SMs over the kernel lifetime,
    # weighting the tail wave by its fill fraction.
    if tail_blocks == 0:
        avg_active_warps = float(warps_per_sm_full)
        sm_efficiency = 1.0
    else:
        tail_fill = tail_blocks / blocks_per_wave
        tail_sm_fraction = min(1.0, tail_blocks / device.num_sms)
        weight_full = full_waves / waves
        weight_tail = 1.0 / waves
        avg_active_warps = warps_per_sm_full * (
            weight_full + weight_tail * tail_fill
        )
        sm_efficiency = weight_full + weight_tail * tail_sm_fraction

    return OccupancyResult(
        active_warps_per_sm=float(warps_per_sm_full),
        avg_active_warps=avg_active_warps,
        sm_efficiency=sm_efficiency,
        waves=waves,
    )
