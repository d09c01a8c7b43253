"""Resumable checkpoints: interrupted runs restart where they left off.

A suite run interrupted after N workloads resumes and re-runs only the
remaining ones — with no cache of its own, through the journal's
private result cache.  The journal's ``run.json`` records progress
only; a rerun's cache lookup under the current run's recipe keys
decides what resumes, so a workload whose entries are gone, corrupt,
from another model version or from a run with other parameters re-runs.
"""

import functools
import json
import shutil
import signal

import pytest

from repro.core import (
    LAPTOP_SCALE,
    ResultCache,
    RunJournal,
    SuiteRunError,
    resilience,
    run_suite,
)
from repro.core.cache import characterization_key
from repro.gpu import V100
from repro.gpu.simulator import SimulationOptions
from tests.faults import CRASH_PERMANENT, FaultPlan

from .conftest import WORKLOADS, run_slice, run_sweep_slice


def record_streams(monkeypatch):
    """The abbreviations of every stream the engine builds from now on."""
    import repro.core.engine as engine

    streams = []
    generate = engine.generate_stream
    monkeypatch.setattr(
        engine, "generate_stream",
        lambda workload, *rest: streams.append(workload.abbr)
        or generate(workload, *rest),
    )
    return streams


class TestResume:
    def test_interrupted_run_resumes_and_skips_completed(
        self, baseline, tmp_path, monkeypatch
    ):
        # First run dies at the last workload (strict mode) — GMS and
        # GST completed and were journaled.  No cache anywhere.
        crash_last = FaultPlan.single("GRU", CRASH_PERMANENT, attempts=())
        with pytest.raises(SuiteRunError):
            run_slice(journal_dir=tmp_path, fault_plan=crash_last)
        assert RunJournal.peek(tmp_path)["done"] == ["GMS", "GST"]

        # Second run: the completed workloads hit the journal's cache,
        # so only GRU builds a stream.
        streams = record_streams(monkeypatch)
        report = run_slice(journal_dir=tmp_path)
        assert streams == ["GRU"]
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
        done_at_start = {}

        class DoneProbe:
            def before(self, abbr, attempt):
                done_at_start[abbr] = RunJournal.peek(tmp_path)["done"]

            def after(self, abbr, attempt, results, cache):
                return results

        run_slice(journal_dir=tmp_path, fault_plan=DoneProbe())
        assert done_at_start == {
            "GMS": [], "GST": ["GMS"], "GRU": ["GMS", "GST"],
        }

    def test_completed_run_resumes_everything(self, baseline, tmp_path):
        first = run_slice(journal_dir=tmp_path)
        again = run_slice(journal_dir=tmp_path)
        assert again.resumed == WORKLOADS
        assert again.attempts == {abbr: 1 for abbr in WORKLOADS}
        assert again.results == first.results == baseline.results
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["status"] == "complete"
        assert meta["done"] == WORKLOADS

    def test_different_run_identity_does_not_resume(self, tmp_path):
        run_slice(journal_dir=tmp_path)
        # Every workload is done, but for another device: the journal
        # must not replay RTX 3080 results as V100 ones.
        report = run_slice(journal_dir=tmp_path, device=V100)
        assert report.resumed == []
        assert report.results == run_slice(device=V100).results
        # Both runs' entries now sit side by side; each device resumes.
        assert run_slice(journal_dir=tmp_path).resumed == WORKLOADS

    def test_leftover_done_dir_is_ignored(self, baseline, tmp_path):
        """Older versions kept one ``done/<ABBR>.json`` marker per
        workload.  A leftover ``done/`` directory decides nothing: its
        markers neither resume a workload without cache entries nor
        stop one with entries from resuming, and it is left alone."""
        done = tmp_path / "done"
        done.mkdir()
        (done / "GMS.json").write_text(
            json.dumps({"schema": 2, "abbr": "GMS", "attempts": 1}),
            encoding="utf-8",
        )
        (done / "GST.json").write_text("{ not json", encoding="utf-8")
        report = run_slice(journal_dir=tmp_path)
        assert report.resumed == []
        assert report.attempts == {abbr: 1 for abbr in WORKLOADS}
        assert report.results == baseline.results

        (done / "GMS.json").unlink()
        assert run_slice(journal_dir=tmp_path).resumed == WORKLOADS
        assert sorted(p.name for p in done.iterdir()) == ["GST.json"]

    def test_failed_workloads_are_not_marked_done(self, tmp_path):
        plan = FaultPlan.single("GST", CRASH_PERMANENT, attempts=())
        run_slice(journal_dir=tmp_path, keep_going=True, fault_plan=plan)
        assert RunJournal.peek(tmp_path)["done"] == ["GMS", "GRU"]
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["status"] == "failed"


class TestStaleResume:
    def test_no_stale_resume_across_a_model_edit(
        self, baseline, tmp_path, monkeypatch
    ):
        """A model edit (or numpy/scipy upgrade) changes the source
        fingerprint; a journal from before it must not replay results
        the cache would refuse to serve."""
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
        assert RunJournal.peek(tmp_path)["done"] == WORKLOADS

    @pytest.mark.parametrize(
        "garbage", ["{ definitely not json", '{"abbr": "GST"}'],
        ids=["unparsable", "schema-invalid"],
    )
    def test_corrupt_entry_is_quarantined_and_reruns(
        self, sweep_baseline, tmp_path, garbage
    ):
        """One device's entry of a completed workload is corrupt: the
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
        journal.begin(["A", "B"])
        journal.begin(["A", "B"])
        assert json.loads(journal.run_path.read_text()) == {
            "schema": 3, "selected": ["A", "B"], "status": "running",
            "done": [],
        }

    def test_mark_done_round_trips_losslessly(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.begin(WORKLOADS)
        journal.mark_done("gms")
        assert RunJournal.peek(tmp_path) == {
            "status": "running", "selected": WORKLOADS, "done": ["GMS"],
        }
        journal.finish(ok=True)
        assert RunJournal.peek(tmp_path)["done"] == ["GMS"]
        # A new run starts its own progress.
        RunJournal(tmp_path).begin(WORKLOADS)
        assert RunJournal.peek(tmp_path)["done"] == []


class TestCommandResume:
    def test_journaled_observations_resume_both_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        """``observations`` makes two runs (Cactus, then PRT) on one
        journal directory; a rerun resumes both and builds no stream."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = ["--preset", "laptop", "--jobs", "1",
                "--journal-dir", str(tmp_path), "observations"]
        first_code = main(argv)
        first = capsys.readouterr()
        assert "[journal]" not in first.err

        streams = record_streams(monkeypatch)
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

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning"
    )
    def test_sigterm_lost_in_a_finalizer_still_exits_143(
        self, monkeypatch
    ):
        """A SIGTERM handler that runs inside ``__del__`` has its
        ``SystemExit`` discarded by Python ("Exception ignored in
        ..."); the run must still stop before the next workload and
        the command exit 143."""
        import repro.cli as cli

        started = []

        class SigtermOnDel:
            def __del__(self):
                signal.raise_signal(signal.SIGTERM)

        class DropSigtermBomb:
            def before(self, abbr, attempt):
                started.append(abbr)
                if abbr == "GMS":
                    SigtermOnDel()  # dropped at once: __del__ runs here

            def after(self, abbr, attempt, results, cache):
                return results

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(cli, "run_suite", functools.partial(
            run_suite, workloads=WORKLOADS, fault_plan=DropSigtermBomb(),
        ))
        assert cli.main(["--preset", "laptop", "--jobs", "1", "table1"]) \
            == 143
        assert started == ["GMS"]
        assert resilience.terminated == 0
