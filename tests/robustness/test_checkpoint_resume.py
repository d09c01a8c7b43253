"""Resumable checkpoints: interrupted runs restart where they left off.

A suite run interrupted after N workloads resumes and re-runs only the
remaining ones, verified through the journal — with the result cache
disabled.  Journal markers record completion only; resumed results are
read back from the run's result cache under the current run's recipe
keys, so a marker whose entries are gone, corrupt, from another model
version or from a run with other parameters re-runs its workload.
"""

import json
import shutil

import pytest

from repro.core import (
    LAPTOP_SCALE,
    ResultCache,
    RunJournal,
    SuiteRunError,
)
from repro.core.cache import characterization_key
from repro.core.serialize import characterization_to_dict
from repro.gpu import V100
from repro.gpu.simulator import SimulationOptions
from tests.faults import CRASH_PERMANENT, FaultPlan, FaultSpec

from .conftest import WORKLOADS, run_slice, run_sweep_slice


class TestResume:
    def test_interrupted_run_resumes_and_skips_completed(
        self, baseline, tmp_path
    ):
        # First run dies at the last workload (strict mode) — GMS and
        # GST completed and were journaled.  No cache anywhere.
        crash_last = FaultPlan.single("GRU", CRASH_PERMANENT, attempts=())
        with pytest.raises(SuiteRunError):
            run_slice(journal_dir=tmp_path, fault_plan=crash_last)

        journal_files = sorted(p.stem for p in (tmp_path / "done").glob("*.json"))
        assert journal_files == ["GMS", "GST"]

        # Second run: inject faults into the *already-completed*
        # workloads.  If the journal resume works they are skipped, so
        # the faults never fire and the run completes.
        crash_done = FaultPlan(
            faults=(
                FaultSpec("GMS", CRASH_PERMANENT, attempts=()),
                FaultSpec("GST", CRASH_PERMANENT, attempts=()),
            )
        )
        report = run_slice(journal_dir=tmp_path, fault_plan=crash_done)
        assert report.resumed == ["GMS", "GST"]
        assert report.ok
        assert list(report.results) == WORKLOADS
        # Resumed results are the journaled ones — bit-for-bit equal to
        # a fault-free run (lossless serialization).
        assert report.results == baseline.results

    def test_serial_run_journals_each_workload_before_the_next(
        self, tmp_path
    ):
        # The in-process executor runs an attempt only when the loop
        # awaits it, so a kill mid-run loses at most the running one.
        done = tmp_path / "done"
        marked_at_start = {}

        class MarkerProbe:
            def before(self, abbr, attempt):
                marked_at_start[abbr] = sorted(
                    p.stem for p in done.glob("*.json")
                )

            def after(self, abbr, attempt, results, cache):
                return results

        run_slice(journal_dir=tmp_path, fault_plan=MarkerProbe())
        assert marked_at_start == {
            "GMS": [], "GST": ["GMS"], "GRU": ["GMS", "GST"],
        }

    def test_completed_run_resumes_everything(self, baseline, tmp_path):
        first = run_slice(journal_dir=tmp_path)
        again = run_slice(journal_dir=tmp_path)
        assert again.resumed == WORKLOADS
        assert again.results == first.results == baseline.results
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["status"] == "complete"

    def test_different_run_identity_does_not_resume(self, tmp_path):
        run_slice(journal_dir=tmp_path)
        # Every workload is marked done, but for another device: the
        # markers must not replay RTX 3080 results as V100 ones.
        report = run_slice(journal_dir=tmp_path, device=V100)
        assert report.resumed == []
        assert report.results == run_slice(device=V100).results
        # Both runs' entries now sit side by side; each device resumes.
        assert run_slice(journal_dir=tmp_path).resumed == WORKLOADS

    def test_corrupt_marker_just_reruns_the_workload(self, baseline, tmp_path):
        run_slice(journal_dir=tmp_path)
        marker = tmp_path / "done" / "GST.json"
        marker.write_text("{ definitely not json", encoding="utf-8")
        report = run_slice(journal_dir=tmp_path)
        assert report.resumed == ["GMS", "GRU"]
        assert report.ok
        assert report.results == baseline.results

    def test_old_format_marker_reruns_the_workload(self, baseline, tmp_path):
        """Schema-1 markers (embedding every characterization) count as
        not done: every workload runs again, through the result cache,
        and is re-marked in the current format; the journal then
        resumes as usual."""
        run_slice(journal_dir=tmp_path)
        meta = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
        meta["schema"] = 1
        (tmp_path / "run.json").write_text(json.dumps(meta), encoding="utf-8")
        for abbr in WORKLOADS:
            marker = tmp_path / "done" / f"{abbr}.json"
            payload = json.loads(marker.read_text(encoding="utf-8"))
            payload["schema"] = 1
            payload["devices"] = {
                "RTX 3080": characterization_to_dict(baseline[abbr])
            }
            marker.write_text(json.dumps(payload), encoding="utf-8")

        report = run_slice(journal_dir=tmp_path)
        assert report.resumed == []
        assert report.ok
        assert report.results == baseline.results
        assert report.attempts == {abbr: 1 for abbr in WORKLOADS}
        for abbr in WORKLOADS:
            rewritten = json.loads(
                (tmp_path / "done" / f"{abbr}.json").read_text(encoding="utf-8")
            )
            assert rewritten == {"schema": 2, "abbr": abbr, "attempts": 1}
        assert run_slice(journal_dir=tmp_path).resumed == WORKLOADS

    def test_failed_workloads_are_not_marked_done(self, tmp_path):
        plan = FaultPlan.single("GST", CRASH_PERMANENT, attempts=())
        run_slice(journal_dir=tmp_path, keep_going=True, fault_plan=plan)
        done = sorted(p.stem for p in (tmp_path / "done").glob("*.json"))
        assert done == ["GMS", "GRU"]
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["status"] == "failed"


class TestStaleResume:
    def test_no_stale_resume_across_a_model_edit(
        self, baseline, tmp_path, monkeypatch
    ):
        """A model edit (or numpy/scipy upgrade) changes the source
        fingerprint; markers from before it must not replay results the
        cache would refuse to serve."""
        run_slice(journal_dir=tmp_path)
        monkeypatch.setattr(
            "repro.core.cache.source_fingerprint", lambda: "e" * 64
        )
        report = run_slice(journal_dir=tmp_path)
        assert report.resumed == []
        assert report.results == baseline.results

    def test_missing_results_rerun_everything(self, baseline, tmp_path):
        run_slice(journal_dir=tmp_path)
        shutil.rmtree(tmp_path / "results")
        report = run_slice(journal_dir=tmp_path)
        assert report.resumed == []
        assert report.results == baseline.results
        assert sorted(p.stem for p in (tmp_path / "done").glob("*.json")) \
            == sorted(WORKLOADS)

    @pytest.mark.parametrize(
        "garbage", ["{ definitely not json", '{"abbr": "GST"}'],
        ids=["unparsable", "schema-invalid"],
    )
    def test_corrupt_entry_is_quarantined_and_reruns(
        self, sweep_baseline, tmp_path, garbage
    ):
        """One device's entry of a marked workload is corrupt: the
        workload re-runs and the entry is quarantined and counted."""
        run_sweep_slice(journal_dir=tmp_path)
        key = characterization_key(
            V100, SimulationOptions(), "GST",
            LAPTOP_SCALE.for_workload("GST"), LAPTOP_SCALE.seed,
        )
        entry = ResultCache(cache_dir=tmp_path / "results")._path(key)
        entry.write_text(garbage, encoding="utf-8")

        report = run_sweep_slice(journal_dir=tmp_path)
        assert report.resumed == ["GMS", "GRU"]
        assert report.results == sweep_baseline.results
        assert report.run_profile.counter("cache.corrupt") == 1
        assert (tmp_path / "results" / "corrupt" / entry.name).exists()
        rewritten = json.loads(entry.read_text(encoding="utf-8"))
        assert rewritten["abbr"] == "GST"
        assert "profile" in rewritten


class TestRunJournalUnit:
    def test_begin_is_idempotent_for_same_key(self, tmp_path):
        journal = RunJournal(tmp_path)
        assert journal.begin(["A", "B"]) == set()
        assert journal.begin(["A", "B"]) == set()
        assert json.loads(journal.run_path.read_text()) == {
            "schema": 2, "selected": ["A", "B"], "status": "running",
        }

    def test_mark_done_round_trips_losslessly(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.begin(WORKLOADS)
        journal.mark_done("gms", attempts=2)
        assert journal.begin(WORKLOADS) == {"GMS"}
        assert json.loads(journal.marker_path("GMS").read_text()) == {
            "schema": 2,
            "abbr": "GMS",
            "attempts": 2,
        }
        assert RunJournal.peek(tmp_path)["done"] == ["GMS"]


class TestCommandResume:
    def test_journaled_observations_resume_both_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        """``observations`` makes two runs (Cactus, then PRT) on one
        journal directory; a rerun resumes both and builds no stream."""
        import repro.core.engine as engine
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = ["--preset", "laptop", "--jobs", "1",
                "--journal-dir", str(tmp_path), "observations"]
        first_code = main(argv)
        first = capsys.readouterr()
        assert "[journal]" not in first.err

        streams = []
        generate = engine.generate_stream
        monkeypatch.setattr(
            engine, "generate_stream",
            lambda *args: streams.append(1) or generate(*args),
        )
        assert main(argv) == first_code
        second = capsys.readouterr()
        assert streams == []
        assert second.out == first.out
        resumed = [
            line for line in second.err.splitlines()
            if line.startswith("[journal] resumed")
        ]
        assert len(resumed) == 2
        assert "GMS" in resumed[0] and "LGT" in resumed[0]
        assert "BFS" in resumed[1]
