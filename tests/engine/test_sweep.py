"""Engine-level sweep guarantees: parity, one-stream, resume, interop.

The sweep pipeline promises that ``run_sweep`` is a pure *speed* win:
every per-device characterization is bit-for-bit what a scalar
``run_suite`` on that device produces, streams are generated exactly
once per run (verified from the obs span counts, not trusted), the
result cache is shared in both directions, and the journal resumes a
sweep the same way it resumes a suite run.
"""

import json
import re

import pytest

from repro.core import (
    CharacterizationEngine,
    ResultCache,
    RunJournal,
    run_suite,
    run_sweep,
)
from repro.gpu import DEVICE_ZOO, RTX_3080, V100
from tests.faults import CRASH_PERMANENT, FaultPlan

ZOO = list(DEVICE_ZOO.values())
WLS = ["GMS", "GST", "DCG"]


@pytest.fixture(scope="module")
def sweep_report():
    return run_sweep([RTX_3080, V100], workloads=WLS)


class TestSweepParity:
    def test_matches_scalar_suite_per_device(self, sweep_report):
        """The headline differential: sweep slice == scalar suite."""
        for device in (RTX_3080, V100):
            suite = run_suite(workloads=WLS, device=device)
            for abbr in WLS:
                assert (
                    sweep_report.results[abbr][device.name]
                    == suite.results[abbr]
                ), (abbr, device.name)

    def test_for_device_view_is_a_suite_result(self, sweep_report):
        view = sweep_report.for_device("V100")
        assert view.device.name == "V100"
        assert set(view.results) == set(WLS)
        assert view["GST"] is sweep_report.results["GST"]["V100"]

    def test_ordering_and_validation(self, sweep_report):
        assert list(sweep_report.results) == WLS  # registration order
        assert list(sweep_report.results["GMS"]) == ["RTX 3080", "V100"]
        engine = CharacterizationEngine()
        with pytest.raises(ValueError):
            engine.run_sweep([])
        with pytest.raises(ValueError):
            engine.run_sweep([RTX_3080, RTX_3080], workloads=WLS)


class TestOneStreamManyDevices:
    def test_stream_generated_once_per_workload(self):
        """Acceptance: an 8-device sweep runs one stream-gen span per
        workload — the span count is measured, not assumed."""
        report = run_sweep(ZOO, workloads=WLS)
        gen = report.run_profile.histograms.get("span.stream-gen_s")
        assert gen is not None and gen["count"] == len(WLS)
        sims = report.run_profile.histograms.get("span.simulate_s")
        assert sims is not None and sims["count"] == len(WLS)


class TestCacheInterop:
    def test_suite_run_warms_sweep_and_back(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        suite = run_suite(
            workloads=WLS, device=V100, cache=ResultCache(cache_dir)
        )
        sweep = run_sweep(
            [RTX_3080, V100], workloads=WLS, cache=ResultCache(cache_dir)
        )
        # V100 came straight from the suite's entries...
        assert sweep.run_profile.counter("cache.disk_hits") >= len(WLS)
        # ...but RTX 3080 missed, and streams are not persisted: the
        # sweep regenerates each stream exactly once, and the V100 hits
        # agree with the regenerated streams.
        gen = sweep.run_profile.histograms["span.stream-gen_s"]
        assert gen["count"] == len(WLS)
        assert sweep.run_profile.counter("cache.stale") == 0
        for abbr in WLS:
            assert sweep.results[abbr]["V100"] == suite.results[abbr]
        # ...and the sweep's RTX 3080 entries warm a later suite run.
        suite2 = run_suite(
            workloads=WLS, device=RTX_3080, cache=ResultCache(cache_dir)
        )
        for abbr in WLS:
            assert suite2.results[abbr] == sweep.results[abbr]["RTX 3080"]

    def test_fully_cached_sweep_never_simulates(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_sweep(
            [RTX_3080, V100], workloads=WLS, cache=ResultCache(cache_dir)
        )
        again = run_sweep(
            [RTX_3080, V100], workloads=WLS, cache=ResultCache(cache_dir)
        )
        profile = again.run_profile
        assert "span.simulate_s" not in profile.histograms
        assert "span.stream-gen_s" not in profile.histograms
        for abbr in WLS:
            assert again.results[abbr] == first.results[abbr]

    def test_sweep_writes_only_characterization_entries(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_sweep(
            [RTX_3080, V100], workloads=WLS, cache=ResultCache(cache_dir)
        )
        root = ResultCache(cache_dir).version_dir
        assert len(list(root.rglob("*.json"))) == len(WLS) * 2
        # Only the two-hex-character fan-out directories, no subtrees.
        assert all(
            p.parent == root and re.fullmatch("[0-9a-f]{2}", p.name)
            for p in root.rglob("*") if p.is_dir()
        )

    def test_stale_hit_is_recomputed_on_a_mixed_run(self, tmp_path):
        """An entry whose stream_digest disagrees with the stream in hand
        is recomputed and overwritten, and counted as stale."""
        cache_dir = str(tmp_path / "cache")
        suite = run_suite(
            workloads=["GST"], device=V100, cache=ResultCache(cache_dir)
        )
        [entry] = ResultCache(cache_dir).version_dir.glob("*/*.json")
        payload = json.loads(entry.read_text(encoding="utf-8"))
        fresh_digest = payload["stream_digest"]
        payload["stream_digest"] = "0" * 64
        entry.write_text(json.dumps(payload), encoding="utf-8")

        # RTX 3080 misses, so the run holds the stream and can check V100.
        sweep = run_sweep(
            [RTX_3080, V100], workloads=["GST"], cache=ResultCache(cache_dir)
        )
        assert sweep.run_profile.counter("cache.stale") == 1
        assert sweep.results["GST"]["V100"] == suite.results["GST"]
        rewritten = json.loads(entry.read_text(encoding="utf-8"))
        assert rewritten["stream_digest"] == fresh_digest


class TestParallelAndResume:
    def test_parallel_equals_serial(self, sweep_report):
        parallel = run_sweep([RTX_3080, V100], workloads=WLS, jobs=2)
        for abbr in WLS:
            assert parallel.results[abbr] == sweep_report.results[abbr]

    def test_journal_resumes_completed_workloads(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        first = run_sweep(
            [RTX_3080, V100], workloads=WLS, journal_dir=journal_dir
        )
        assert first.resumed == []
        second = run_sweep(
            [RTX_3080, V100], workloads=WLS, journal_dir=journal_dir
        )
        assert second.resumed == WLS
        for abbr in WLS:
            assert second.results[abbr] == first.results[abbr]
        # The journal records progress only: the characterizations live
        # in the result cache, never a second time in the journal.
        assert RunJournal.peek(journal_dir)["done"] == WLS
        journal = tmp_path / "journal"
        assert sorted(p.name for p in journal.iterdir()) == [
            "results", "run.json",
        ]
        payload = json.loads((journal / "run.json").read_text("utf-8"))
        assert "devices" not in payload and "profile" not in payload

    def test_journal_identity_includes_devices(self, tmp_path):
        """Adding a device must start fresh, not resume short markers."""
        journal_dir = str(tmp_path / "journal")
        run_sweep([RTX_3080], workloads=WLS, journal_dir=journal_dir)
        wider = run_sweep(
            [RTX_3080, V100], workloads=WLS, journal_dir=journal_dir
        )
        assert wider.resumed == []
        assert all(len(wider.results[a]) == 2 for a in WLS)



class TestRunRecord:
    def test_for_device_carries_the_run_record(self):
        """A device slice is the SuiteRunReport run_suite would return:
        failures, attempts and the run profile ride along."""
        plan = FaultPlan.single("GST", CRASH_PERMANENT, attempts=())
        report = run_sweep(
            [RTX_3080, V100], workloads=WLS, keep_going=True, fault_plan=plan
        )
        for device in (RTX_3080, V100):
            view = report.for_device(device.name)
            assert view.ok is False
            assert view.failed_workloads == ["GST"]
            assert list(view.results) == ["GMS", "DCG"]
            assert view.attempts == report.attempts
            assert view.run_profile is report.run_profile

    def test_sweep_profiles_the_simulate_phase(self, sweep_report):
        assert sweep_report.run_profile.phase_seconds("simulate") > 0
