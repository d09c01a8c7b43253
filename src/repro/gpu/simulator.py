"""Launch-stream simulator.

:class:`GPUSimulator` is the top of the GPU substrate: it takes a
:class:`~repro.gpu.kernel.LaunchStream` (or any iterable of launches)
and returns one :class:`~repro.gpu.metrics.KernelMetrics` record per
launch, in order.  Identical kernels are memoized in-process, which
keeps the simulation of workloads with millions of repeated launches
cheap; nothing is persisted here (the result cache stores whole
characterizations).

This is the single-device path: the kernels the memo does not hold go
through :func:`repro.gpu.batched.batch_kernel_metrics` for one device.
Device sweeps go through :func:`repro.gpu.batched.simulate_devices`,
which runs the same pass for N devices at once.  Both are pinned bit
for bit against the frozen scalar form of the model kept with the
tests (``tests/gpu/scalar_oracle/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

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
    """Executes kernel launch streams on the analytical device model."""

    def __init__(
        self,
        device: DeviceSpec = RTX_3080,
        options: SimulationOptions | None = None,
        tracer=None,
    ) -> None:
        self.device = device
        self.options = options or SimulationOptions()
        # Run-scoped observability (repro.obs).  Counters only — the
        # per-kernel hot loop stays branch-free; lazily defaulted to
        # the no-op tracer so the gpu layer stays below repro.obs at
        # import time only (no behavioral coupling).
        if tracer is None:
            from repro.obs import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        self._memo: Dict[KernelCharacteristics, KernelMetrics] = {}

    def run_kernel(self, kernel: KernelCharacteristics) -> KernelMetrics:
        """Metrics for a single launch of *kernel* (memoized in-process)."""
        return self.run_stream([KernelLaunch(kernel)])[0]

    def run_stream(self, launches: Iterable[KernelLaunch]) -> List[KernelMetrics]:
        """Metrics for every launch in the stream, in order.

        Batched along two axes: identical kernels are grouped first, so
        the memo lookup runs once per *distinct* kernel instead of once
        per launch, and every distinct kernel the memo does not hold is
        evaluated in **one** vectorized
        :func:`repro.gpu.batched.batch_kernel_metrics` pass instead of
        a Python-level model run per kernel.  Streams with thousands of
        structurally distinct launches — GRU's per-level BFS frontiers —
        pay one broadcast pass, not thousands of scalar ones.
        """
        from repro.gpu.batched import _collect_distinct, batch_kernel_metrics

        order, indices = _collect_distinct(launches)
        memo = self._memo
        to_compute = [kernel for kernel in order if kernel not in memo]
        if to_compute:
            computed = batch_kernel_metrics(
                to_compute,
                [self.device],
                timing=self.options.timing,
                model_caches=self.options.model_caches,
            )[0]
            memo.update(zip(to_compute, computed))

        resolved = [memo[kernel] for kernel in order]
        results = [resolved[idx] for idx in indices]
        self.tracer.incr("sim.launches", float(len(results)))
        self.tracer.incr("sim.distinct_kernels", float(len(order)))
        return results

    def run(self, launches: Iterable[KernelLaunch]) -> List[KernelMetrics]:
        """Metrics for every launch in the stream, in order."""
        return self.run_stream(launches)
