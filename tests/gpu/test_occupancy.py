"""Tests for the SM occupancy model (the scalar oracle's)."""

import pytest

from repro.gpu import (
    KernelCharacteristics,
    MemoryFootprint,
    RTX_3080,
)
from tests.gpu.scalar_oracle import compute_occupancy


def kernel(grid_blocks, threads_per_block):
    return KernelCharacteristics(
        name="k",
        grid_blocks=grid_blocks,
        threads_per_block=threads_per_block,
        warp_insts=1e6,
        memory=MemoryFootprint(bytes_read=1e6),
    )


class TestFullGrids:
    def test_large_grid_reaches_full_occupancy(self):
        # 256 threads = 8 warps/block; 6 blocks/SM = 48 warps = device max.
        result = compute_occupancy(RTX_3080, kernel(68 * 6 * 4, 256))
        assert result.active_warps_per_sm == 48
        assert result.avg_active_warps == pytest.approx(48.0)
        assert result.sm_efficiency == pytest.approx(1.0)

    def test_block_limit_caps_small_blocks(self):
        # 32-thread blocks: 1 warp each, capped at 16 blocks/SM -> 16 warps.
        result = compute_occupancy(RTX_3080, kernel(68 * 16, 32))
        assert result.active_warps_per_sm == 16

    def test_fat_blocks_limit_occupancy(self):
        # 1024 threads = 32 warps; only 1 block fits (48 // 32 = 1).
        result = compute_occupancy(RTX_3080, kernel(68, 1024))
        assert result.active_warps_per_sm == 32


class TestTailEffects:
    def test_tiny_grid_low_sm_efficiency(self):
        result = compute_occupancy(RTX_3080, kernel(2, 128))
        assert result.sm_efficiency == pytest.approx(2 / 68)
        assert result.waves == 1

    def test_partial_last_wave_reduces_efficiency(self):
        # One full wave plus a 1-block tail.
        blocks_per_wave = 6 * 68  # 8-warp blocks, 6 per SM
        result = compute_occupancy(RTX_3080, kernel(blocks_per_wave + 1, 256))
        assert result.waves == 2
        assert result.sm_efficiency < 1.0
        assert result.avg_active_warps < 48.0

    def test_more_waves_amortize_tail(self):
        blocks_per_wave = 6 * 68
        few = compute_occupancy(RTX_3080, kernel(blocks_per_wave + 1, 256))
        many = compute_occupancy(RTX_3080, kernel(10 * blocks_per_wave + 1, 256))
        assert many.sm_efficiency > few.sm_efficiency


class TestMonotonicity:
    def test_sm_efficiency_bounded(self):
        for blocks in (1, 3, 67, 68, 100, 409, 5000):
            result = compute_occupancy(RTX_3080, kernel(blocks, 256))
            assert 0.0 < result.sm_efficiency <= 1.0

    def test_avg_warps_never_exceeds_per_sm_limit(self):
        for blocks in (1, 10, 1000, 100000):
            for threads in (32, 64, 256, 512, 1024):
                result = compute_occupancy(RTX_3080, kernel(blocks, threads))
                assert result.avg_active_warps <= result.active_warps_per_sm + 1e-9
