"""Simulation options and the one-device view of the timing model.

:class:`SimulationOptions` and :class:`TimingOptions` are the switches
the ablation benchmarks flip.  :class:`GPUSimulator` is one device's
view of :func:`repro.gpu.batched.simulate_devices`, the one driver of
the model for any number of devices: it holds no cache, so every call
walks its stream once and evaluates each distinct kernel once, and
launches of an equal kernel share one
:class:`~repro.gpu.metrics.KernelMetrics` record within that call.
Nothing is persisted here (the result cache stores whole
characterizations).  The model is pinned bit for bit against the frozen
scalar form kept with the tests (``tests/gpu/scalar_oracle/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.gpu.device import RTX_3080, DeviceSpec
from repro.gpu.kernel import KernelCharacteristics, KernelLaunch
from repro.gpu.metrics import KernelMetrics


@dataclass(frozen=True)
class TimingOptions:
    """Switches used by the ablation benchmarks."""

    #: Achievable fraction of the theoretical DRAM bandwidth.
    dram_efficiency: float = 0.88
    #: Model per-launch host overhead (disable to ablate).
    model_launch_overhead: bool = True
    #: Model latency hiding / issue efficiency (disable to ablate).
    model_latency: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.dram_efficiency <= 1.0:
            raise ValueError(
                f"dram_efficiency must be in (0, 1], got {self.dram_efficiency}"
            )


@dataclass(frozen=True)
class SimulationOptions:
    """Options controlling a simulation run."""

    # A default_factory (not a shared default instance) so every options
    # object owns its own TimingOptions — a plain default would alias one
    # module-level instance across every SimulationOptions ever built.
    timing: TimingOptions = field(default_factory=TimingOptions)
    #: Disable the cache model (every access goes to DRAM) — ablation.
    model_caches: bool = True


class GPUSimulator:
    """One device's view of :func:`repro.gpu.batched.simulate_devices`."""

    def __init__(
        self,
        device: DeviceSpec = RTX_3080,
        options: SimulationOptions | None = None,
    ) -> None:
        self.device = device
        self.options = options or SimulationOptions()

    def run_kernel(self, kernel: KernelCharacteristics) -> KernelMetrics:
        """Metrics for a single launch of *kernel*."""
        return self.run_stream([KernelLaunch(kernel)])[0]

    def run_stream(self, launches: Iterable[KernelLaunch]) -> List[KernelMetrics]:
        """Metrics for every launch in the stream, in order."""
        from repro.gpu.batched import simulate_devices

        return simulate_devices(launches, [self.device], self.options)[0]
