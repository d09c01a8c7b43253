"""Instruction-roofline timing model (frozen scalar oracle).

This is the per-kernel, plain-Python form of the analytical model that
:func:`repro.gpu.batched.batch_kernel_metrics` evaluates as ``(device,
kernel)`` matrices.  It lives with the tests as an independent second
implementation: ``tests/gpu/test_batched_devices.py`` requires the
batched model to reproduce it bit for bit.  Keep its math frozen; a
deliberate model change edits both and re-pins the golden numbers.

Computes the duration and the full Table IV metric record for one kernel
launch.  The model follows the structure the paper's roofline analysis
assumes (Section IV, "Performance Model"):

* a kernel is **compute-limited** when its issue time dominates,
* **memory-bandwidth-limited** when its DRAM transaction time dominates,
* **latency-limited** when too few resident warps hide instruction
  latency (captured by the issue-efficiency term) or when the grid is so
  small that the fixed launch overhead dominates.

The achieved performance always respects both roofs:
``GIPS <= peak_gips`` and ``GIPS <= intensity * peak_gtxn_per_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import KernelCharacteristics
from repro.gpu.metrics import KernelMetrics
from repro.gpu.simulator import TimingOptions

from .memory import CacheModel, MemorySystemResult
from .occupancy import OccupancyResult, compute_occupancy

#: Cost of a block-wide barrier, in scheduler cycles per sync instruction.
#: The oracle's own copy of the constants in :mod:`repro.gpu.batched`,
#: so the differential stays independent of the product's values.
BARRIER_LATENCY_CYCLES = 120.0

#: Peak per-SM warp-instruction throughput of the FP32 pipeline and the
#: load/store units, in warp instructions per cycle.  On Ampere each SM
#: has 128 FP32 lanes (4 warps/cycle) and 4 LSU groups (we model an
#: effective 2 warp ld/st per cycle).
FP32_WARPS_PER_CYCLE = 4.0
LSU_WARPS_PER_CYCLE = 2.0


@dataclass(frozen=True)
class TimingBreakdown:
    """Intermediate timing quantities for one launch (for ablations)."""

    compute_time_s: float
    memory_time_s: float
    overhead_s: float
    duration_s: float
    issue_efficiency: float
    avg_latency_cycles: float
    bound: str  # "compute" | "memory" | "latency" | "overhead"


class TimingModel:
    """Analytical timing for kernels on a :class:`DeviceSpec`."""

    def __init__(
        self,
        device: DeviceSpec,
        cache_model: CacheModel | None = None,
        options: TimingOptions | None = None,
    ) -> None:
        self.device = device
        self.cache_model = cache_model or CacheModel(device)
        self.options = options or TimingOptions()

    # ------------------------------------------------------------------
    def run(self, kernel: KernelCharacteristics) -> KernelMetrics:
        """Produce a full metric record for one launch of *kernel*."""
        occupancy = compute_occupancy(self.device, kernel)
        memory = self.cache_model.run(kernel)
        breakdown = self.time(kernel, occupancy, memory)
        return self._metrics(kernel, occupancy, memory, breakdown)

    # ------------------------------------------------------------------
    def time(
        self,
        kernel: KernelCharacteristics,
        occupancy: OccupancyResult,
        memory: MemorySystemResult,
    ) -> TimingBreakdown:
        """Duration of one launch and which resource bounds it."""
        device = self.device
        avg_latency = self._avg_latency_cycles(kernel, memory)

        if self.options.model_latency:
            warps_per_scheduler = occupancy.active_warps_per_sm / (
                device.warp_schedulers_per_sm
            )
            issue_eff = min(
                1.0, warps_per_scheduler * kernel.ilp / avg_latency
            )
        else:
            issue_eff = 1.0

        # Machine fill: tail waves and partially-filled grids reduce the
        # number of SMs doing useful work.
        fill = occupancy.sm_efficiency
        effective_gips = device.peak_gips * 1e9 * fill * issue_eff
        compute_time = kernel.warp_insts / effective_gips

        peak_txn_rate = (
            device.peak_gtxn_per_s * 1e9 * self.options.dram_efficiency
        )
        memory_time = memory.dram_transactions / peak_txn_rate

        overhead = (
            device.kernel_launch_overhead_s
            if self.options.model_launch_overhead
            else 0.0
        )
        duration = overhead + max(compute_time, memory_time)

        if overhead > max(compute_time, memory_time):
            bound = "overhead"
        elif memory_time >= compute_time:
            bound = "memory"
        elif issue_eff < 0.98:
            bound = "latency"
        else:
            bound = "compute"

        return TimingBreakdown(
            compute_time_s=compute_time,
            memory_time_s=memory_time,
            overhead_s=overhead,
            duration_s=duration,
            issue_efficiency=issue_eff,
            avg_latency_cycles=avg_latency,
            bound=bound,
        )

    # ------------------------------------------------------------------
    def _raw_memory_latency(self, memory: MemorySystemResult) -> float:
        """Hit-rate-weighted memory access latency (cycles)."""
        device = self.device
        return memory.l1_hit_rate * device.l1_latency_cycles + (
            1.0 - memory.l1_hit_rate
        ) * (
            memory.l2_hit_rate * device.l2_latency_cycles
            + (1.0 - memory.l2_hit_rate) * device.dram_latency_cycles
        )

    def _avg_latency_cycles(
        self, kernel: KernelCharacteristics, memory: MemorySystemResult
    ) -> float:
        """Mix-weighted average *exposed* instruction latency (cycles).

        Memory latency is divided by the kernel's memory-level
        parallelism: a warp with several loads in flight only exposes a
        fraction of each load's latency to the scheduler.
        """
        mem_latency = self._raw_memory_latency(memory) / kernel.mlp
        mix = kernel.mix
        return (
            mix.ld_st * mem_latency
            + mix.sync * BARRIER_LATENCY_CYCLES
            + (1.0 - mix.ld_st - mix.sync) * self.device.alu_latency_cycles
        )

    # ------------------------------------------------------------------
    def _metrics(
        self,
        kernel: KernelCharacteristics,
        occupancy: OccupancyResult,
        memory: MemorySystemResult,
        breakdown: TimingBreakdown,
    ) -> KernelMetrics:
        device = self.device
        duration = breakdown.duration_s
        mix = kernel.mix

        # Achieved per-SM IPC over active SMs, in warp insts per cycle.
        active_time = max(duration - breakdown.overhead_s, 1e-12)
        total_ipc = kernel.warp_insts / (active_time * device.clock_hz)
        sm_ipc = total_ipc / max(
            1e-9, device.num_sms * occupancy.sm_efficiency
        )

        sp_util = min(1.0, mix.fp32 * sm_ipc / FP32_WARPS_PER_CYCLE)
        ld_st_util = min(1.0, mix.ld_st * sm_ipc / LSU_WARPS_PER_CYCLE)

        # Stall decomposition: the share of scheduler slots without an
        # issued instruction, attributed by latency source.
        peak_sm_ipc = device.warp_schedulers_per_sm * device.warp_insts_per_cycle
        busy_frac = min(1.0, sm_ipc / peak_sm_ipc)
        stall_total = max(0.0, 1.0 - busy_frac)

        avg_latency = breakdown.avg_latency_cycles
        mem_latency_share = (
            mix.ld_st * self._raw_memory_latency(memory) / kernel.mlp
        ) / avg_latency
        sync_share = mix.sync * BARRIER_LATENCY_CYCLES / avg_latency
        exec_share = max(0.0, 1.0 - mem_latency_share - sync_share)

        # Bandwidth saturation shifts stall cycles towards memory.
        if breakdown.bound == "memory":
            mem_weight = min(1.0, mem_latency_share + 0.3)
            exec_weight = exec_share * (1.0 - mem_weight) / max(
                1e-9, exec_share + sync_share
            )
            sync_weight = sync_share * (1.0 - mem_weight) / max(
                1e-9, exec_share + sync_share
            )
        else:
            mem_weight, exec_weight, sync_weight = (
                mem_latency_share,
                exec_share,
                sync_share,
            )

        pipe_pressure = max(sp_util, ld_st_util)
        memory_stall = stall_total * mem_weight
        sync_stall = stall_total * sync_weight
        execution_stall = stall_total * exec_weight * (1.0 - pipe_pressure)
        pipe_stall = stall_total * exec_weight * pipe_pressure

        return KernelMetrics(
            name=kernel.name,
            duration_s=duration,
            warp_insts=kernel.warp_insts,
            dram_transactions=memory.dram_transactions,
            invocations=1,
            warp_occupancy=occupancy.avg_active_warps,
            sm_efficiency=occupancy.sm_efficiency,
            l1_hit_rate=memory.l1_hit_rate,
            l2_hit_rate=memory.l2_hit_rate,
            dram_read_throughput_gbs=memory.dram_read_bytes / duration / 1e9,
            ld_st_utilization=ld_st_util,
            sp_utilization=sp_util,
            fraction_branches=mix.branch,
            fraction_ld_st=mix.ld_st,
            execution_stall=execution_stall,
            pipe_stall=pipe_stall,
            sync_stall=sync_stall,
            memory_stall=memory_stall,
            tags=kernel.tags,
        )
