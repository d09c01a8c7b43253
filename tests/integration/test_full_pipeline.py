"""Integration tests: full pipeline consistency across subsystems."""

import pytest

from repro.analysis.famd import famd
from repro.core import LAPTOP_SCALE, characterize, run_suite
from repro.gpu import RTX_3080, simulate_devices
from repro.profiler import Profiler, export_trace
from repro.workloads import cactus_workloads, get_workload
from tests.oracles import load_trace


class TestCactusEndToEnd:
    @pytest.fixture(scope="class")
    def cactus(self):
        return run_suite(["Cactus"], preset=LAPTOP_SCALE)

    def test_all_ten_characterized(self, cactus):
        assert len(cactus) == 10

    def test_every_profile_consistent(self, cactus):
        for characterization in cactus.suite("Cactus"):
            profile = characterization.profile
            # Kernel totals add up to the application totals.
            assert sum(
                k.total_time_s for k in profile.kernels
            ) == pytest.approx(profile.total_time_s)
            assert sum(
                k.total_warp_insts for k in profile.kernels
            ) == pytest.approx(profile.total_warp_insts)
            # Roofline bounds hold for the aggregate point too.
            point = characterization.aggregate_point
            roof = min(
                RTX_3080.peak_gips,
                point.intensity * RTX_3080.peak_gtxn_per_s,
            )
            assert point.gips <= roof * (1 + 1e-6)

    def test_dominant_kernels_cover_70_percent(self, cactus):
        for characterization in cactus.suite("Cactus"):
            profile = characterization.profile
            covered = sum(
                k.total_time_s for k in profile.dominant_kernels
            )
            assert covered >= 0.70 * profile.total_time_s - 1e-12

    def test_famd_over_real_kernels_is_well_formed(self, cactus):
        gips = []
        intensity = []
        sides = []
        for characterization in cactus.suite("Cactus"):
            for kernel in characterization.profile.kernels:
                gips.append(kernel.gips)
                intensity.append(kernel.instruction_intensity)
                sides.append(
                    "compute"
                    if kernel.instruction_intensity > RTX_3080.roofline_elbow
                    else "memory"
                )
        result = famd({"gips": gips, "ii": intensity}, {"side": sides})
        assert result.coordinates.shape[0] == len(gips)
        assert result.explained_variance_ratio.sum() == pytest.approx(1.0)


class TestTraceRoundTripAcrossWorkloads:
    @pytest.mark.parametrize("abbr", ["GMS", "GRU", "SPT", "SGEMM"])
    def test_trace_replay_preserves_profile(self, tmp_path, abbr):
        workload = get_workload(abbr, scale=0.02)
        stream = workload.launch_stream()
        path = tmp_path / f"{abbr}.jsonl"
        export_trace(stream, path)
        replayed = load_trace(path)

        def profile(launches):
            metrics = simulate_devices(launches, [RTX_3080])[0]
            return Profiler().profile_metrics(launches, metrics, workload=abbr)

        direct = profile(stream)
        replay = profile(replayed)
        assert direct.num_kernels == replay.num_kernels
        assert direct.total_time_s == pytest.approx(replay.total_time_s)
        assert direct.total_warp_insts == pytest.approx(
            replay.total_warp_insts
        )


class TestDeterminism:
    def test_full_characterization_deterministic(self):
        a = characterize(get_workload("LMC", scale=0.05, seed=3))
        b = characterize(get_workload("LMC", scale=0.05, seed=3))
        assert a.profile.total_time_s == pytest.approx(b.profile.total_time_s)
        assert a.table1.total_warp_insts == pytest.approx(
            b.table1.total_warp_insts
        )

    def test_seed_changes_data_not_structure(self):
        a = characterize(get_workload("LMC", scale=0.05, seed=1))
        b = characterize(get_workload("LMC", scale=0.05, seed=2))
        assert {k.name for k in a.profile.kernels} == {
            k.name for k in b.profile.kernels
        }
        assert a.profile.total_warp_insts != b.profile.total_warp_insts


class TestWorkloadInventory:
    def test_cactus_factory_scales(self):
        for workload in cactus_workloads(scale=0.01):
            assert workload.scale == 0.01
            assert workload.suite == "Cactus"
