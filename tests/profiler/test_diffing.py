"""Tests for profile diffing."""

import pytest

from repro.core import characterize
from repro.gpu import A100, RTX_3080
from repro.profiler.diffing import diff_profiles
from repro.workloads import get_workload


def profile_on(device, abbr="GMS", scale=0.05):
    return characterize(get_workload(abbr, scale=scale), device).profile


class TestDiffProfiles:
    def test_identical_runs_diff_to_unity(self):
        a = profile_on(RTX_3080)
        b = profile_on(RTX_3080)
        diff = diff_profiles(a, b)
        assert diff.total_speedup == pytest.approx(1.0)
        assert not diff.only_in_baseline
        assert not diff.only_in_candidate
        assert all(d.speedup == pytest.approx(1.0) for d in diff.shared)

    def test_faster_device_speeds_everything(self):
        # Large enough that the grids fill the A100's 108 SMs too
        # (tiny grids legitimately regress on wider machines).
        base = profile_on(RTX_3080, scale=0.3)
        fast = profile_on(A100, scale=0.3)
        diff = diff_profiles(base, fast)
        assert diff.total_speedup > 1.0
        assert len(diff.regressions()) == 0

    def test_detects_kernel_set_changes(self):
        lmr = profile_on(RTX_3080, "LMR")
        lmc = profile_on(RTX_3080, "LMC")
        diff = diff_profiles(lmr, lmc)
        assert "pair_lj_charmm_coul_long" in diff.only_in_baseline
        assert "pair_colloid" in diff.only_in_candidate
        shared = {d.name for d in diff.shared}
        assert "nve_integrate_initial" in shared

    def test_render_contains_speedup(self):
        diff = diff_profiles(profile_on(RTX_3080), profile_on(A100))
        text = diff.render()
        assert "total speedup" in text
        assert "x" in text

    def test_regression_detection(self):
        slow_device = RTX_3080.with_overrides(dram_bandwidth_gbs=200.0)
        base = profile_on(RTX_3080)
        slow = profile_on(slow_device)
        diff = diff_profiles(base, slow)
        assert diff.total_speedup < 1.0
        assert len(diff.regressions()) >= 1
