"""Tests for profile records and Table I statistics."""

import pytest

from repro.gpu import KernelMetrics
from repro.profiler.records import (
    ApplicationProfile,
    aggregate_launches,
)


def metrics(name="k", duration=1.0, insts=1e9, txn=1e6, **kwargs):
    return KernelMetrics(
        name=name,
        duration_s=duration,
        warp_insts=insts,
        dram_transactions=txn,
        **kwargs,
    )


def profile_from(shares, name="app"):
    """Build a profile whose kernels have the given time shares."""
    kernels = [
        aggregate_launches(f"k{i}", [metrics(name=f"k{i}", duration=share)])
        for i, share in enumerate(shares)
    ]
    return ApplicationProfile(
        workload=name, suite="test", domain="test", kernels=kernels
    )


class TestAggregateLaunches:
    def test_counters_add(self):
        records = [
            metrics(duration=1.0, insts=100.0, txn=10.0),
            metrics(duration=3.0, insts=300.0, txn=30.0),
        ]
        profile = aggregate_launches("k", records)
        assert profile.invocations == 2
        assert profile.total_time_s == pytest.approx(4.0)
        assert profile.total_warp_insts == pytest.approx(400.0)
        assert profile.total_dram_transactions == pytest.approx(40.0)

    def test_ratios_time_weighted(self):
        records = [
            metrics(duration=1.0, l1_hit_rate=0.0),
            metrics(duration=3.0, l1_hit_rate=0.8),
        ]
        profile = aggregate_launches("k", records)
        assert profile.metrics.l1_hit_rate == pytest.approx(0.6)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no launch records"):
            aggregate_launches("k", [])

    def test_gips_consistent(self):
        profile = aggregate_launches(
            "k", [metrics(duration=2.0, insts=4e9)]
        )
        assert profile.gips == pytest.approx(2.0)

    def test_metric_lookup(self):
        """Roofline metrics come from the profile totals, Table IV
        fields from the aggregated record."""
        profile = aggregate_launches(
            "k",
            [
                metrics(duration=1.0, insts=4e9, txn=1e6, l1_hit_rate=0.2),
                metrics(duration=3.0, insts=2e9, txn=4e6, l1_hit_rate=0.6),
            ],
        )
        assert profile.metric("gips") == profile.gips
        assert profile.metric("instruction_intensity") == (
            profile.instruction_intensity
        )
        assert profile.metric("l1_hit_rate") == profile.metrics.l1_hit_rate
        with pytest.raises(KeyError):
            profile.metric("name")


class TestDominantKernels:
    def test_paper_example_dominance(self):
        """The paper's Section II.C example: time shares
        {0.25, 0.2, 0.2, 0.2, 0.15} -> the 0.25 kernel is dominant."""
        profile = profile_from([0.25, 0.2, 0.2, 0.2, 0.15])
        assert profile.dominant_kernel.total_time_s == pytest.approx(0.25)
        # 70% coverage needs 4 kernels: 0.25+0.2+0.2+0.2 = 0.85 >= 0.7
        assert profile.num_kernels_for_fraction(0.70) == 4

    def test_single_kernel_dominates(self):
        profile = profile_from([0.9, 0.05, 0.05])
        assert profile.num_kernels_for_fraction(0.70) == 1

    def test_kernels_sorted_by_time(self):
        profile = profile_from([0.1, 0.5, 0.4])
        times = [k.total_time_s for k in profile.kernels]
        assert times == sorted(times, reverse=True)

    def test_invocation_count_matters_not_single_time(self):
        """A short kernel invoked many times can dominate (r_i x t_i)."""
        frequent = aggregate_launches(
            "frequent", [metrics(name="frequent", duration=0.01)] * 100
        )
        rare = aggregate_launches("rare", [metrics(name="rare", duration=0.5)])
        profile = ApplicationProfile(
            workload="a", suite="s", domain="d", kernels=[rare, frequent]
        )
        assert profile.dominant_kernel.name == "frequent"

    def test_fraction_validation(self):
        profile = profile_from([1.0])
        with pytest.raises(ValueError, match="fraction"):
            profile.kernels_for_time_fraction(0.0)
        with pytest.raises(ValueError, match="fraction"):
            profile.kernels_for_time_fraction(1.5)

    def test_full_fraction_returns_all(self):
        profile = profile_from([0.5, 0.3, 0.2])
        assert profile.num_kernels_for_fraction(1.0) == 3


class TestCumulativeDistribution:
    def test_cumulative_fractions_monotone_to_one(self):
        profile = profile_from([0.4, 0.3, 0.2, 0.1])
        fractions = profile.cumulative_time_fractions()
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_max_kernels_limits_curve(self):
        profile = profile_from([0.4, 0.3, 0.2, 0.1])
        assert len(profile.cumulative_time_fractions(max_kernels=2)) == 2

    def test_time_shares_sum_to_one(self):
        profile = profile_from([0.5, 0.25, 0.25])
        assert sum(profile.time_shares().values()) == pytest.approx(1.0)


class TestTableIStatistics:
    def test_num_kernels(self):
        assert profile_from([0.5, 0.3, 0.2]).num_kernels == 3

    def test_weighted_avg_insts_per_kernel(self):
        k1 = aggregate_launches(
            "k1", [metrics(name="k1", duration=0.8, insts=100.0)]
        )
        k2 = aggregate_launches(
            "k2", [metrics(name="k2", duration=0.2, insts=10.0)]
        )
        profile = ApplicationProfile(
            workload="a", suite="s", domain="d", kernels=[k1, k2]
        )
        expected = 100.0 * 0.8 + 10.0 * 0.2
        assert profile.weighted_avg_insts_per_kernel == pytest.approx(expected)

    def test_aggregate_roofline_coordinates(self):
        k = aggregate_launches(
            "k", [metrics(duration=1.0, insts=2e9, txn=1e8)]
        )
        profile = ApplicationProfile(
            workload="a", suite="s", domain="d", kernels=[k]
        )
        assert profile.gips == pytest.approx(2.0)
        assert profile.instruction_intensity == pytest.approx(20.0)
