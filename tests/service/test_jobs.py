"""JobManager: coalesced execution, persistence, recovery, differential.

These tests run the real engine on the fastest Cactus workloads (DCG,
NST: a few hundredths of a second each at laptop scale), so the suite
exercises the full submit → engine → persisted-result path, not mocks.
"""

import json
import threading

import pytest

from repro.core import run_suite
from repro.core.config import LAPTOP_SCALE
from repro.core.serialize import suite_run_report_to_dict
from repro.gpu.device import device_by_name
from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_INTERRUPTED,
    JobManager,
)
from repro.service.quota import QuotaConfig, QuotaExceeded
from repro.service.schemas import ValidationError

FAST_REQUEST = {"workloads": ["DCG"], "device": "RTX 3080"}


def _manager(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault(
        "quota", QuotaConfig(capacity=1024.0, refill_per_s=1024.0)
    )
    return JobManager(state_dir=tmp_path / "state", **kwargs)


class TestSubmission:
    def test_submit_runs_to_done(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        record, coalesced = manager.submit(FAST_REQUEST, client="t")
        assert not coalesced
        manager.wait(record.id, timeout=60)
        assert record.state == JOB_DONE
        assert record.error is None
        assert set(record.result["results"]) == {"DCG"}
        # one engine execution, visible in the run profile
        counters = record.result["run_profile"]["counters"]
        assert counters["engine.runs"] == 1.0
        # the run populated the service's shared result cache, and the
        # aggregate (rebuilt via CacheStats.from_dict) reports it
        cache = manager.stats()["cache"]
        assert cache["stores"] >= 1
        assert 0.0 <= cache["hit_rate"] <= 1.0

    def test_validation_error_propagates(self, tmp_path):
        manager = _manager(tmp_path)
        with pytest.raises(ValidationError):
            manager.submit({"workloads": ["NOPE"]}, client="t")

    def test_quota_exhaustion_raises(self, tmp_path):
        manager = _manager(
            tmp_path, quota=QuotaConfig(capacity=1.0, refill_per_s=0.0)
        )
        manager.submit(FAST_REQUEST, client="t")
        with pytest.raises(QuotaExceeded):
            manager.submit(FAST_REQUEST, client="t")
        # other clients have their own bucket
        manager.submit(FAST_REQUEST, client="other")

    def test_concurrent_identical_submissions_coalesce(self, tmp_path):
        """THE acceptance property: N concurrent identical submissions
        -> one job id, one engine execution."""
        manager = _manager(tmp_path)
        manager.start()
        n = 8
        barrier = threading.Barrier(n)
        outcomes = []
        lock = threading.Lock()

        def submit():
            barrier.wait()
            record, coalesced = manager.submit(FAST_REQUEST, client="t")
            with lock:
                outcomes.append((record.id, coalesced))

        pool = [threading.Thread(target=submit) for _ in range(n)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        assert len({job_id for job_id, _ in outcomes}) == 1
        assert sum(1 for _, c in outcomes if not c) == 1
        job_id = outcomes[0][0]
        record = manager.wait(job_id, timeout=60)
        assert record.state == JOB_DONE
        assert record.subscribers == n
        # service-level proof ...
        stats = manager.stats()
        assert stats["engine_runs"]["started"] == 1
        assert stats["engine_runs"]["completed"] == 1
        assert stats["coalesce"]["submissions"] == n
        assert stats["coalesce"]["coalesced"] == n - 1
        # ... and engine-level proof inside the job's own run profile
        counters = record.result["run_profile"]["counters"]
        assert counters["engine.runs"] == 1.0

    def test_done_job_serves_later_identical_submission(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        first, _ = manager.submit(FAST_REQUEST, client="t")
        manager.wait(first.id, timeout=60)
        again, coalesced = manager.submit(FAST_REQUEST, client="t")
        assert coalesced
        assert again is first
        assert manager.stats()["engine_runs"]["started"] == 1

    def test_different_requests_do_not_coalesce(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        a, _ = manager.submit(FAST_REQUEST, client="t")
        b, _ = manager.submit(
            {"workloads": ["NST"], "device": "RTX 3080"}, client="t"
        )
        assert a.id != b.id
        assert manager.wait(a.id, timeout=60).state == JOB_DONE
        assert manager.wait(b.id, timeout=60).state == JOB_DONE
        assert manager.stats()["engine_runs"]["started"] == 2


class TestDifferential:
    def test_service_result_bit_identical_to_run_suite(self, tmp_path):
        """The service is a transport, not a transform: its stored
        result must equal a direct run_suite serialization exactly."""
        manager = _manager(tmp_path)
        manager.start()
        record, _ = manager.submit(
            {"workloads": ["DCG", "NST"], "device": "RTX 3080"}, client="t"
        )
        manager.wait(record.id, timeout=120)
        assert record.state == JOB_DONE

        report = run_suite(
            ["Cactus"],
            preset=LAPTOP_SCALE,
            device=device_by_name("RTX 3080"),
            workloads=["DCG", "NST"],
        )
        expected = suite_run_report_to_dict(report)
        # Characterizations must match bit-for-bit; run_profile carries
        # wall-clock timings and is excluded by construction.
        assert record.result["results"] == expected["results"]
        assert record.result["failures"] == expected["failures"]
        assert record.result["fallback_reason"] == expected["fallback_reason"]


class TestFailureAndRecovery:
    def test_failed_job_records_error_and_readmits(
        self, tmp_path, monkeypatch
    ):
        manager = _manager(tmp_path)
        manager.start()

        def boom(request, job_id):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(manager, "_engine_for", boom)
        record, _ = manager.submit(FAST_REQUEST, client="t")
        manager.wait(record.id, timeout=30)
        assert record.state == JOB_FAILED
        assert "engine exploded" in record.error
        assert manager.stats()["engine_runs"]["failed"] == 1

        # a failed record must not poison its key: resubmission
        # re-admits a fresh attempt under the same id
        monkeypatch.undo()
        fresh, coalesced = manager.submit(FAST_REQUEST, client="t")
        assert not coalesced
        assert fresh is not record
        assert fresh.id == record.id
        manager.wait(fresh.id, timeout=60)
        assert fresh.state == JOB_DONE

    def test_drain_interrupts_queued_jobs(self, tmp_path):
        manager = _manager(tmp_path, workers=1)
        # workers never started: the job stays queued
        record, _ = manager.submit(FAST_REQUEST, client="t")
        interrupted = manager.drain(grace_s=0.0)
        assert interrupted == [record.id]
        assert record.state == JOB_INTERRUPTED
        assert record.done_event.is_set()
        with pytest.raises(RuntimeError):
            manager.submit(FAST_REQUEST, client="t")

    def test_drain_mark_survives_a_job_finishing_after_it(
        self, tmp_path, monkeypatch
    ):
        """A running job that completes after the drain marked it
        interrupted must not overwrite the mark: the journal resumes it."""
        manager = _manager(tmp_path, workers=1)
        started, release = threading.Event(), threading.Event()
        engine_for = manager._engine_for

        class GatedEngine:
            def __init__(self, engine):
                self.engine = engine

            def __getattr__(self, name):
                return getattr(self.engine, name)

            def run_sweep(self, *args, **kwargs):
                started.set()
                assert release.wait(timeout=30)
                return self.engine.run_sweep(*args, **kwargs)

        monkeypatch.setattr(
            manager,
            "_engine_for",
            lambda request, job_id: GatedEngine(engine_for(request, job_id)),
        )
        manager.start()
        record, _ = manager.submit(FAST_REQUEST, client="t")
        assert started.wait(timeout=30)
        assert manager.drain(grace_s=0.0) == [record.id]
        release.set()
        # The queue is closed, so the worker exits once the job returns.
        worker = manager._threads[0]
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert record.state == JOB_INTERRUPTED
        persisted = manager.jobs_dir / f"{record.id[:32]}.json"
        assert json.loads(persisted.read_text())["state"] == JOB_INTERRUPTED

    def test_restart_recovers_and_completes_interrupted_job(self, tmp_path):
        first = _manager(tmp_path, workers=1)
        record, _ = first.submit(FAST_REQUEST, client="t")
        first.drain(grace_s=0.0)

        second = _manager(tmp_path)
        second.start()
        assert second.stats()["recovered"] == [record.id]
        recovered = second.wait(record.id, timeout=60)
        assert recovered is not None
        assert recovered.state == JOB_DONE
        assert recovered.client == "t"
        assert recovered.request == record.request

    def test_restart_keeps_done_results(self, tmp_path):
        first = _manager(tmp_path)
        first.start()
        record, _ = first.submit(FAST_REQUEST, client="t")
        first.wait(record.id, timeout=60)
        first.drain(grace_s=2.0)

        second = _manager(tmp_path)
        second.start()
        assert second.stats()["recovered"] == []
        loaded = second.get(record.id)
        assert loaded.state == JOB_DONE
        assert loaded.result == record.result
        # and an identical submission coalesces straight onto it
        again, coalesced = second.submit(FAST_REQUEST, client="t")
        assert coalesced and again is loaded
        assert second.stats()["engine_runs"]["started"] == 0


class TestQueries:
    def test_wait_unknown_job_returns_none(self, tmp_path):
        manager = _manager(tmp_path)
        assert manager.wait("nope", timeout=0.1) is None

    def test_jobs_listing_sorted_by_submission(self, tmp_path):
        manager = _manager(tmp_path)
        a, _ = manager.submit(FAST_REQUEST, client="t")
        b, _ = manager.submit(
            {"workloads": ["NST"], "device": "RTX 3080"}, client="t"
        )
        assert [r.id for r in manager.jobs()] == [a.id, b.id]

    def test_similar_over_completed_jobs(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        record, _ = manager.submit(
            {"workloads": ["DCG", "NST"], "device": "RTX 3080"}, client="t"
        )
        manager.wait(record.id, timeout=120)
        kernel = record.result["results"]["DCG"]["profile"]["kernels"][0]
        payload = manager.similar(f"DCG:{kernel['name']}", k=3)
        assert payload["corpus_size"] > 3
        assert len(payload["neighbors"]) == 3
        for neighbor in payload["neighbors"]:
            assert neighbor["key"] != f"DCG:{kernel['name']}"
            assert neighbor["distance"] >= 0

    def test_similar_error_contract(self, tmp_path):
        manager = _manager(tmp_path)
        with pytest.raises(ValueError):
            manager.similar("anything")  # empty corpus
        manager.start()
        record, _ = manager.submit(FAST_REQUEST, client="t")
        manager.wait(record.id, timeout=60)
        with pytest.raises(KeyError):
            manager.similar("DCG:no_such_kernel")
        with pytest.raises(ValueError):
            manager.similar("DCG:no_such_kernel", k=0)
