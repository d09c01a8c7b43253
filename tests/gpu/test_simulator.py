"""Tests for the launch-stream simulator."""

import pytest

from repro.gpu import (
    EDGE_GPU,
    GPUSimulator,
    KernelCharacteristics,
    LaunchStream,
    MemoryFootprint,
    RTX_3080,
    SimulationOptions,
)


def make_kernel(name="k", insts=1e7):
    return KernelCharacteristics(
        name=name,
        grid_blocks=512,
        threads_per_block=256,
        warp_insts=insts,
        memory=MemoryFootprint(bytes_read=1e7),
    )


class TestSimulator:
    def test_run_preserves_order_and_length(self):
        stream = LaunchStream()
        for name in ("a", "b", "a", "c"):
            stream.launch(make_kernel(name))
        records = GPUSimulator().run_stream(stream)
        assert [r.name for r in records] == ["a", "b", "a", "c"]

    def test_device_matters(self):
        big = GPUSimulator(RTX_3080).run_kernel(make_kernel())
        small = GPUSimulator(EDGE_GPU).run_kernel(make_kernel())
        assert small.duration_s > big.duration_s

    def test_cache_ablation_changes_results(self):
        kernel = KernelCharacteristics(
            name="reuse",
            grid_blocks=512,
            threads_per_block=256,
            warp_insts=1e7,
            memory=MemoryFootprint(
                bytes_read=1e6, reuse_factor=16.0, l1_locality=0.9
            ),
        )
        with_caches = GPUSimulator().run_kernel(kernel)
        without = GPUSimulator(
            options=SimulationOptions(model_caches=False)
        ).run_kernel(kernel)
        assert without.dram_transactions > 5 * with_caches.dram_transactions
        assert without.l1_hit_rate == 0.0
        assert without.l2_hit_rate == 0.0

    def test_empty_stream_runs(self):
        assert GPUSimulator().run_stream(LaunchStream()) == []


class TestSimulationOptionsDefaults:
    def test_timing_default_does_not_alias(self):
        # Regression: `timing` used a shared default TimingOptions()
        # instance; with default_factory every options object owns its
        # own (equal but distinct) TimingOptions.
        a = SimulationOptions()
        b = SimulationOptions()
        assert a.timing == b.timing
        assert a.timing is not b.timing

    def test_equality_unaffected_by_factory(self):
        assert SimulationOptions() == SimulationOptions()
        assert SimulationOptions() != SimulationOptions(model_caches=False)


class TestNoPersistentTier:
    def test_cache_argument_is_rejected(self, tmp_path):
        # Per-kernel metrics are never persisted; whole
        # characterizations are what the result cache persists.
        from repro.core.cache import ResultCache

        with pytest.raises(TypeError):
            GPUSimulator(cache=ResultCache(cache_dir=tmp_path))


class TestKernelGrouping:
    def test_gru_launches_share_kernel_characteristics(self):
        # The simulator groups launches by KernelCharacteristics equality
        # and evaluates each distinct value once.  GRU's 8 kernel names
        # cover 1,679 distinct per-BFS-level values at the laptop preset
        # (the stream is digest-pinned, so the counts are exact); a
        # per-launch field leaking into KernelCharacteristics would
        # inflate the distinct count toward the launch count.
        from repro.core.config import LAPTOP_SCALE
        from repro.profiler.profiler import Profiler
        from repro.workloads.registry import get_workload

        workload = get_workload(
            "GRU", scale=LAPTOP_SCALE.for_workload("GRU"), seed=0
        )
        stream = Profiler().prepare_stream(workload)
        distinct = {launch.kernel for launch in stream}
        assert len({kernel.name for kernel in distinct}) == 8
        assert len(distinct) == 1679
        assert len(stream) / len(distinct) > 1.4
