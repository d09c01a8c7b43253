"""Tests for the instruction-roofline timing model.

Metric-level behaviour is checked on the product
(:meth:`GPUSimulator.run_kernel`); the bound classification, an
intermediate quantity the product does not expose, on the scalar
oracle.
"""

import pytest

from repro.gpu import (
    GPUSimulator,
    InstructionMix,
    KernelCharacteristics,
    MemoryFootprint,
    RTX_3080,
    SimulationOptions,
)
from repro.gpu.simulator import TimingOptions
from tests.gpu.scalar_oracle import CacheModel, TimingModel, compute_occupancy

MIB = 1024 * 1024


def compute_kernel(warp_insts=1e9):
    """A well-behaved compute-intensive kernel (GEMM-like)."""
    return KernelCharacteristics(
        name="compute",
        grid_blocks=8192,
        threads_per_block=256,
        warp_insts=warp_insts,
        mix=InstructionMix(fp32=0.6, ld_st=0.15, branch=0.02, sync=0.02),
        memory=MemoryFootprint(
            bytes_read=128 * MIB, bytes_written=32 * MIB,
            reuse_factor=8.0, l1_locality=0.85,
        ),
        ilp=3.0,
        mlp=4.0,
    )


def memory_kernel():
    """A streaming memory-bound kernel (axpy-like)."""
    return KernelCharacteristics(
        name="memory",
        grid_blocks=8192,
        threads_per_block=256,
        warp_insts=2e8,
        mix=InstructionMix(fp32=0.2, ld_st=0.4, branch=0.02, sync=0.0),
        memory=MemoryFootprint(bytes_read=800 * MIB, bytes_written=400 * MIB),
        mlp=8.0,
    )


def tiny_kernel():
    """A launch far too small to fill the machine."""
    return KernelCharacteristics(
        name="tiny",
        grid_blocks=4,
        threads_per_block=128,
        warp_insts=4e4,
        memory=MemoryFootprint(bytes_read=2e5),
    )


def run(kernel, device=RTX_3080, timing=None):
    """Metrics of one launch of *kernel* from the product simulator."""
    options = SimulationOptions(timing=timing or TimingOptions())
    return GPUSimulator(device, options).run_kernel(kernel)


class TestRooflineBounds:
    """Achieved performance must respect both roofs — the core invariant
    behind every roofline figure in the paper (Figs. 4-7)."""

    @pytest.mark.parametrize(
        "kernel", [compute_kernel(), memory_kernel(), tiny_kernel()]
    )
    def test_gips_below_compute_roof(self, kernel):
        metrics = run(kernel)
        assert metrics.gips <= RTX_3080.peak_gips * (1 + 1e-9)

    @pytest.mark.parametrize(
        "kernel", [compute_kernel(), memory_kernel(), tiny_kernel()]
    )
    def test_gips_below_memory_roof(self, kernel):
        metrics = run(kernel)
        memory_roof = metrics.instruction_intensity * RTX_3080.peak_gtxn_per_s
        assert metrics.gips <= memory_roof * (1 + 1e-9)


class TestBoundClassification:
    def test_compute_kernel_near_compute_roof(self):
        metrics = run(compute_kernel())
        assert metrics.gips > 0.8 * RTX_3080.peak_gips
        assert metrics.instruction_intensity > RTX_3080.roofline_elbow

    def test_memory_kernel_on_memory_roof(self):
        metrics = run(memory_kernel())
        memory_roof = metrics.instruction_intensity * RTX_3080.peak_gtxn_per_s
        assert metrics.gips > 0.8 * memory_roof
        assert metrics.instruction_intensity < RTX_3080.roofline_elbow

    def test_memory_kernel_mostly_memory_stalled(self):
        metrics = run(memory_kernel())
        assert metrics.memory_stall > metrics.execution_stall
        assert metrics.memory_stall > metrics.sync_stall

    def test_tiny_kernel_is_slow(self):
        metrics = run(tiny_kernel())
        # Far below both roofs: latency/overhead-bound.
        assert metrics.gips < 0.05 * RTX_3080.peak_gips

    def test_bound_labels(self):
        model = TimingModel(RTX_3080)
        cache = CacheModel(RTX_3080)
        for kernel, expected in [
            (compute_kernel(), "compute"),
            (memory_kernel(), "memory"),
        ]:
            breakdown = model.time(
                kernel, compute_occupancy(RTX_3080, kernel), cache.run(kernel)
            )
            assert breakdown.bound == expected


class TestStallDecomposition:
    @pytest.mark.parametrize(
        "kernel", [compute_kernel(), memory_kernel(), tiny_kernel()]
    )
    def test_stall_ratios_valid(self, kernel):
        m = run(kernel)
        stalls = [m.execution_stall, m.pipe_stall, m.sync_stall, m.memory_stall]
        assert all(0.0 <= s <= 1.0 for s in stalls)
        assert sum(stalls) <= 1.0 + 1e-9

    def test_sync_heavy_kernel_has_sync_stalls(self):
        kernel = KernelCharacteristics(
            name="sync_heavy",
            grid_blocks=1024,
            threads_per_block=256,
            warp_insts=1e8,
            mix=InstructionMix(fp32=0.2, ld_st=0.1, branch=0.05, sync=0.15),
            memory=MemoryFootprint(bytes_read=10 * MIB),
            ilp=1.0,
        )
        metrics = run(kernel)
        assert metrics.sync_stall > 0.05


class TestUtilizations:
    def test_fp32_heavy_kernel_high_sp_utilization(self):
        metrics = run(compute_kernel())
        assert metrics.sp_utilization > 0.5

    def test_memory_kernel_low_sp_utilization(self):
        metrics = run(memory_kernel())
        assert metrics.sp_utilization < 0.3

    def test_utilizations_bounded(self):
        for kernel in (compute_kernel(), memory_kernel(), tiny_kernel()):
            m = run(kernel)
            assert 0.0 <= m.sp_utilization <= 1.0
            assert 0.0 <= m.ld_st_utilization <= 1.0


class TestScalingBehaviour:
    def test_double_work_doubles_time_for_big_kernels(self):
        small = run(compute_kernel(warp_insts=1e9))
        large = run(compute_kernel(warp_insts=2e9))
        ratio = large.duration_s / small.duration_s
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_more_bandwidth_speeds_memory_kernel(self):
        fast_device = RTX_3080.with_overrides(dram_bandwidth_gbs=1520.6)
        base = run(memory_kernel())
        fast = run(memory_kernel(), fast_device)
        assert fast.duration_s < base.duration_s * 0.6

    def test_more_sms_speed_compute_kernel(self):
        fat_device = RTX_3080.with_overrides(num_sms=136)
        base = run(compute_kernel())
        fat = run(compute_kernel(), fat_device)
        assert fat.duration_s < base.duration_s * 0.6


class TestAblationOptions:
    def test_disable_launch_overhead(self):
        options = TimingOptions(model_launch_overhead=False)
        base = run(tiny_kernel())
        ablated = run(tiny_kernel(), timing=options)
        assert ablated.duration_s < base.duration_s

    def test_disable_latency_model(self):
        options = TimingOptions(model_latency=False)
        irregular = KernelCharacteristics(
            name="irregular",
            grid_blocks=256,
            threads_per_block=256,
            warp_insts=1e8,
            mix=InstructionMix(fp32=0.05, ld_st=0.35, branch=0.1),
            memory=MemoryFootprint(bytes_read=8 * MIB, coalescence=0.3),
            ilp=1.2,
            mlp=1.5,
        )
        base = run(irregular)
        ablated = run(irregular, timing=options)
        assert ablated.duration_s <= base.duration_s

    def test_no_cache_simulation_option(self):
        sim_base = GPUSimulator()
        sim_nocache = GPUSimulator(options=SimulationOptions(model_caches=False))
        kernel = compute_kernel()
        base = sim_base.run_kernel(kernel)
        nocache = sim_nocache.run_kernel(kernel)
        assert nocache.dram_transactions > base.dram_transactions
        assert nocache.l1_hit_rate == 0.0

    def test_rejects_bad_dram_efficiency(self):
        with pytest.raises(ValueError, match="dram_efficiency"):
            TimingOptions(dram_efficiency=0.0)
