"""Tests for the analytical cache model (the scalar oracle's)."""

import pytest

from repro.gpu import (
    InstructionMix,
    KernelCharacteristics,
    MemoryFootprint,
    RTX_3080,
)
from tests.gpu.scalar_oracle import CacheModel

MIB = 1024 * 1024


def kernel_with(memory, grid_blocks=1024, threads=256):
    return KernelCharacteristics(
        name="k",
        grid_blocks=grid_blocks,
        threads_per_block=threads,
        warp_insts=1e6,
        mix=InstructionMix(),
        memory=memory,
    )


@pytest.fixture
def model():
    return CacheModel(RTX_3080)


class TestCompulsoryTraffic:
    def test_no_reuse_means_no_hits(self, model):
        result = model.run(
            kernel_with(MemoryFootprint(bytes_read=100 * MIB, reuse_factor=1.0))
        )
        assert result.l1_hit_rate == pytest.approx(0.0)
        assert result.l2_hit_rate == pytest.approx(0.0)

    def test_dram_traffic_at_least_compulsory(self, model):
        footprint = MemoryFootprint(
            bytes_read=64 * MIB, bytes_written=16 * MIB, reuse_factor=10.0
        )
        result = model.run(kernel_with(footprint))
        assert result.dram_transactions * 32 >= footprint.unique_bytes - 1e-6

    def test_zero_traffic_kernel(self, model):
        result = model.run(kernel_with(MemoryFootprint(bytes_read=0.0)))
        assert result.dram_transactions == 0.0
        assert result.dram_bytes == 0.0


class TestCapacityEffects:
    def test_small_working_set_hits_l2(self, model):
        # 1 MiB working set fits the 5 MiB L2; heavy reuse should hit.
        footprint = MemoryFootprint(
            bytes_read=1 * MIB, reuse_factor=20.0, l1_locality=0.0
        )
        result = model.run(kernel_with(footprint))
        assert result.l2_hit_rate > 0.9

    def test_huge_working_set_misses_l2(self, model):
        footprint = MemoryFootprint(
            bytes_read=2000 * MIB, reuse_factor=20.0, l1_locality=0.0
        )
        result = model.run(kernel_with(footprint))
        assert result.l2_hit_rate < 0.1

    def test_tiled_reuse_hits_l1(self, model):
        # Large total footprint but small per-block tiles with local reuse.
        footprint = MemoryFootprint(
            bytes_read=512 * MIB, reuse_factor=16.0, l1_locality=0.9
        )
        result = model.run(kernel_with(footprint, grid_blocks=65536))
        assert result.l1_hit_rate > 0.5

    def test_l2_hit_rate_monotone_in_working_set(self, model):
        """Shrinking the working set never hurts the L2 hit rate."""
        rates = []
        for ws_mib in (100, 20, 4, 1):
            footprint = MemoryFootprint(
                bytes_read=ws_mib * MIB, reuse_factor=8.0, l1_locality=0.0
            )
            rates.append(model.run(kernel_with(footprint)).l2_hit_rate)
        assert rates == sorted(rates)


class TestCoalescence:
    def test_poor_coalescence_inflates_transactions(self, model):
        base = MemoryFootprint(bytes_read=100 * MIB, coalescence=1.0)
        scattered = MemoryFootprint(bytes_read=100 * MIB, coalescence=0.25)
        txn_base = model.run(kernel_with(base)).dram_transactions
        txn_scattered = model.run(kernel_with(scattered)).dram_transactions
        assert txn_scattered == pytest.approx(4.0 * txn_base)


class TestReadWriteSplit:
    def test_read_share_preserved(self, model):
        footprint = MemoryFootprint(bytes_read=75 * MIB, bytes_written=25 * MIB)
        result = model.run(kernel_with(footprint))
        total = result.dram_read_bytes + result.dram_write_bytes
        assert result.dram_read_bytes / total == pytest.approx(0.75)

    def test_write_only_kernel(self, model):
        footprint = MemoryFootprint(bytes_read=0.0, bytes_written=10 * MIB)
        result = model.run(kernel_with(footprint))
        assert result.dram_read_bytes == pytest.approx(0.0)
        assert result.dram_write_bytes > 0
