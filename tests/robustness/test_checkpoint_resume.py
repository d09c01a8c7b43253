"""Resumable checkpoints: interrupted runs restart where they left off.

Acceptance criterion (ISSUE 2): a suite run interrupted after N
workloads resumes and re-runs only the remaining ones, verified through
the journal — with the result cache disabled.
"""

import json

import pytest

from repro.core import LAPTOP_SCALE, RunJournal, SuiteRunError, run_suite
from repro.core.engine import CharacterizationEngine
from repro.testing import CRASH_PERMANENT, FaultPlan, FaultSpec

from .conftest import WORKLOADS, run_slice


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

    def test_completed_run_resumes_everything(self, baseline, tmp_path):
        first = run_slice(journal_dir=tmp_path)
        again = run_slice(journal_dir=tmp_path)
        assert again.resumed == WORKLOADS
        assert again.results == first.results == baseline.results
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["status"] == "complete"

    def test_different_run_identity_does_not_resume(self, tmp_path):
        run_slice(journal_dir=tmp_path)
        # A different workload selection is a different run key: the
        # stale journal must be wiped, not resumed.
        report = run_suite(
            ["Cactus"],
            preset=LAPTOP_SCALE,
            workloads=["GMS", "GST"],
            journal_dir=tmp_path,
        )
        assert report.resumed == []
        assert sorted(report.results) == ["GMS", "GST"]

    def test_corrupt_marker_just_reruns_the_workload(self, baseline, tmp_path):
        run_slice(journal_dir=tmp_path)
        marker = tmp_path / "done" / "GST.json"
        marker.write_text("{ definitely not json", encoding="utf-8")
        report = run_slice(journal_dir=tmp_path)
        assert report.resumed == ["GMS", "GRU"]
        assert report.ok
        assert report.results == baseline.results

    def test_old_format_marker_reruns_the_workload(self, baseline, tmp_path):
        """A marker in the older single-device format
        (``{"characterization": ...}``) is "not done": it re-runs."""
        run_slice(journal_dir=tmp_path)
        marker = tmp_path / "done" / "GST.json"
        payload = json.loads(marker.read_text(encoding="utf-8"))
        (payload["characterization"],) = payload.pop("devices").values()
        marker.write_text(json.dumps(payload), encoding="utf-8")
        report = run_slice(journal_dir=tmp_path)
        assert report.resumed == ["GMS", "GRU"]
        assert report.ok
        assert report.results == baseline.results
        # The re-run rewrote the marker in the per-device format.
        rewritten = json.loads(marker.read_text(encoding="utf-8"))
        assert list(rewritten["devices"]) == ["RTX 3080"]

    def test_failed_workloads_are_not_marked_done(self, tmp_path):
        plan = FaultPlan.single("GST", CRASH_PERMANENT, attempts=())
        run_slice(journal_dir=tmp_path, keep_going=True, fault_plan=plan)
        done = sorted(p.stem for p in (tmp_path / "done").glob("*.json"))
        assert done == ["GMS", "GRU"]
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["status"] == "failed"


class TestRunJournalUnit:
    def test_begin_is_idempotent_for_same_key(self, tmp_path):
        journal = RunJournal(tmp_path, run_key="k1")
        assert journal.begin(["A", "B"]) == {}
        assert journal.begin(["A", "B"]) == {}
        assert json.loads(journal.run_path.read_text())["run_key"] == "k1"

    def test_foreign_marker_ignored(self, baseline, tmp_path):
        ours = RunJournal(tmp_path, run_key="k1")
        ours.begin(["GMS"])
        ours.mark_done("GMS", {"RTX 3080": baseline["GMS"]})
        # Same directory, different identity: marker must not leak.
        theirs = RunJournal(tmp_path, run_key="k2")
        assert theirs.begin(["GMS"]) == {}

    def test_mark_done_round_trips_losslessly(self, baseline, tmp_path):
        journal = RunJournal(tmp_path, run_key="k1")
        journal.begin(WORKLOADS)
        per_device = {"RTX 3080": baseline["GMS"], "V100": baseline["GST"]}
        journal.mark_done("GMS", per_device, attempts=2)
        resumed = journal.begin(WORKLOADS)
        assert resumed == {"GMS": per_device}
        assert list(resumed["GMS"]) == ["RTX 3080", "V100"]
        assert journal.completed_workloads() == ["GMS"]

    def test_run_key_depends_on_identity(self):
        engine = CharacterizationEngine()
        key_a = engine.run_key(LAPTOP_SCALE, ["GMS", "GST"])
        key_b = engine.run_key(LAPTOP_SCALE, ["GMS", "GRU"])
        assert key_a != key_b
        assert key_a == engine.run_key(LAPTOP_SCALE, ["GMS", "GST"])
