"""Tests for the benchmark suites and the registry (Tables I & III)."""

import pytest

from repro.gpu import RTX_3080
from repro.profiler import Profiler
from repro.workloads import cactus_workloads, get_workload, list_workloads
from repro.workloads.base import WorkloadInfo
from repro.workloads.suites import BottomUpBenchmark, KernelSpec


class TestRegistry:
    def test_cactus_has_ten_workloads(self):
        assert len(list_workloads("Cactus")) == 10

    def test_prt_suite_sizes_match_table3(self):
        assert len(list_workloads("Parboil")) == 11
        assert len(list_workloads("Rodinia")) == 18
        assert len(list_workloads("Tango")) == 3

    def test_get_workload_by_abbr(self):
        workload = get_workload("GMS", scale=0.05)
        assert workload.abbr == "GMS"
        assert workload.suite == "Cactus"

    def test_get_workload_case_insensitive(self):
        assert get_workload("gms", scale=0.05).abbr == "GMS"

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("NOPE")

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError, match="unknown suite"):
            list_workloads("SPEC")

    def test_cactus_order_matches_table1(self):
        abbrs = [w.abbr for w in cactus_workloads(scale=0.01)]
        assert abbrs == [
            "GMS", "LMR", "LMC", "GST", "GRU",
            "DCG", "NST", "RFL", "SPT", "LGT",
        ]


class TestKernelSpecValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            KernelSpec("k", "weird")

    def test_bad_costs_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("k", "stream", elems=0.0)
        with pytest.raises(ValueError):
            KernelSpec("k", "stream", repeats=0)

    def test_benchmark_needs_kernels(self):
        info = WorkloadInfo(name="x", abbr="X", suite="s", domain="d")
        with pytest.raises(ValueError, match="at least one kernel"):
            BottomUpBenchmark(info, problem_size=1000, kernels=[])


@pytest.fixture(scope="module")
def prt_profiles():
    profiler = Profiler()
    return {
        abbr: profiler.profile(get_workload(abbr, scale=0.5))
        for suite in ("Parboil", "Rodinia", "Tango")
        for abbr in list_workloads(suite)
    }


class TestFig2TimeDistribution:
    """Fig. 2: the bottom-up suites' dominance structure."""

    def test_dominance_split_matches_paper(self, prt_profiles):
        counts = {1: 0, 2: 0, 3: 0}
        for profile in prt_profiles.values():
            k70 = min(3, profile.num_kernels_for_fraction(0.70))
            counts[k70] += 1
        assert counts[1] == 23
        assert counts[2] == 7
        assert counts[3] == 2

    def test_three_kernel_workloads_are_lud_and_an(self, prt_profiles):
        three = {
            abbr
            for abbr, p in prt_profiles.items()
            if p.num_kernels_for_fraction(0.70) >= 3
        }
        assert three == {"LUD", "AN"}

    def test_kernel_counts_small(self, prt_profiles):
        """Bottom-up benchmarks run one to three kernels."""
        for profile in prt_profiles.values():
            assert 1 <= profile.num_kernels <= 3


class TestFig4Roofline:
    """Fig. 4: unambiguous behaviour, with two named exceptions."""

    def test_only_lud_and_an_mixed(self, prt_profiles):
        elbow = RTX_3080.roofline_elbow
        mixed = {
            abbr
            for abbr, p in prt_profiles.items()
            if len({k.instruction_intensity > elbow for k in p.kernels}) > 1
        }
        assert mixed == {"LUD", "AN"}

    @pytest.mark.parametrize(
        "abbr", ["SGEMM", "CUTCP", "TPACF", "BTREE", "RN", "SN", "LAVAMD"]
    )
    def test_compute_side_benchmarks(self, prt_profiles, abbr):
        elbow = RTX_3080.roofline_elbow
        assert prt_profiles[abbr].instruction_intensity > elbow

    @pytest.mark.parametrize(
        "abbr", ["P-BFS", "HISTO", "LBM", "SPMV", "KMEANS", "SRAD", "STENCIL"]
    )
    def test_memory_side_benchmarks(self, prt_profiles, abbr):
        elbow = RTX_3080.roofline_elbow
        assert prt_profiles[abbr].instruction_intensity < elbow

    def test_an_is_two_compute_one_memory(self, prt_profiles):
        elbow = RTX_3080.roofline_elbow
        sides = sorted(
            k.instruction_intensity > elbow
            for k in prt_profiles["AN"].kernels
        )
        assert sides == [False, True, True]
