"""Timeout-kill, broken-pool rebuild, and serial-degradation paths."""

import signal
import time

import pytest

from repro.core import LAPTOP_SCALE, RetryPolicy, run_suite
from repro.core.engine import CharacterizationEngine, _resolve_jobs
from tests.faults import CRASH, DIE, HANG, FaultPlan

from .conftest import FAST_RETRY, run_slice


class TestTimeoutKill:
    def test_hung_worker_killed_and_bystanders_survive(self, baseline):
        plan = FaultPlan.single("GST", HANG, attempts=(), hang_s=60.0)
        policy = RetryPolicy(max_attempts=1, timeout_s=3.0)
        started = time.monotonic()
        report = run_slice(
            jobs=3, keep_going=True, retry_policy=policy, fault_plan=plan
        )
        elapsed = time.monotonic() - started
        # The 60s hang must not be waited out: the worker is killed at
        # the timeout and the suite completes promptly.
        assert elapsed < 30.0
        failure = report.failure_for("GST")
        assert failure is not None
        assert failure.phase == "timeout"
        assert failure.error_type == "TimeoutError"
        assert "timeout" in failure.message
        assert failure.classification == "transient"
        # Bystanders of the pool kill survive bit-for-bit.
        assert sorted(report.results) == ["GMS", "GRU"]
        assert report["GMS"] == baseline["GMS"]
        assert report["GRU"] == baseline["GRU"]

    def test_hang_once_then_retry_succeeds(self, baseline):
        plan = FaultPlan.single("GST", HANG, attempts=(1,), hang_s=60.0)
        policy = RetryPolicy(
            max_attempts=2, timeout_s=3.0, backoff_base_s=0.001
        )
        report = run_slice(
            jobs=3, keep_going=True, retry_policy=policy, fault_plan=plan
        )
        assert report.ok
        assert report.attempts["GST"] == 2
        assert report.results == baseline.results


    def test_pool_workers_die_on_sigterm(self):
        # The CLI turns SIGTERM into SystemExit.  A forked worker must
        # not inherit that handler: the pool's task wrapper would catch
        # the SystemExit, and a kill could not stop the worker.
        def exit_on_sigterm(signum, frame):
            raise SystemExit(128 + signum)

        previous = signal.signal(signal.SIGTERM, exit_on_sigterm)
        try:
            pool = CharacterizationEngine()._new_pool(1, 1)
            try:
                handler = pool.submit(
                    signal.getsignal, signal.SIGTERM
                ).result(timeout=60)
            finally:
                pool.shutdown()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert handler == signal.SIG_DFL


class TestBrokenPool:
    def test_hard_worker_death_recovers_everything(self, baseline):
        # GST's worker dies with os._exit on every pool attempt: the
        # pool rebuilds once, breaks again, and the engine degrades to
        # the serial path — where the injected DIE refuses to kill the
        # parent and surfaces as a transient error that the retry
        # budget absorbs.  Every workload still completes bit-for-bit.
        plan = FaultPlan.single("GST", DIE, attempts=(1,))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.001)
        with pytest.warns(RuntimeWarning, match="serial"):
            report = run_slice(
                jobs=3, keep_going=True, retry_policy=policy, fault_plan=plan
            )
        assert report.fallback_reason is not None
        assert "broke twice" in report.fallback_reason
        assert report.ok
        assert report.results == baseline.results


class TestForkserverPool:
    def test_crash_retried_inside_worker(self, baseline, forkserver_pool):
        plan = FaultPlan.single("GST", CRASH, attempts=(1,))
        report = run_suite(
            ["Cactus"],
            preset=LAPTOP_SCALE,
            workloads=["GMS", "GST"],
            jobs=2,
            retry_policy=FAST_RETRY,
            fault_plan=plan,
        )
        assert report.attempts["GST"] == 2
        assert report.fallback_reason is None
        assert report.results == {
            abbr: baseline[abbr] for abbr in ("GMS", "GST")
        }

    def test_hard_worker_death_breaks_pool(self, baseline, forkserver_pool):
        # The plan carries its creator's pid, so DIE kills the
        # forkserver-started worker exactly as it kills a forked one.
        plan = FaultPlan.single("GST", DIE, attempts=(1,))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.001)
        with pytest.warns(RuntimeWarning, match="serial"):
            report = run_slice(
                jobs=3, keep_going=True, retry_policy=policy, fault_plan=plan
            )
        assert report.fallback_reason is not None
        assert "broke twice" in report.fallback_reason
        assert report.ok
        assert report.results == baseline.results


class TestSerialFallback:
    def test_pool_unavailable_warns_and_records_reason(
        self, baseline, monkeypatch
    ):
        # Satellite: the old engine silently swallowed the reason.
        def refuse(self, jobs, tasks):
            raise PermissionError("sandbox forbids process pools")

        monkeypatch.setattr(CharacterizationEngine, "_new_pool", refuse)
        with pytest.warns(RuntimeWarning, match="sandbox forbids"):
            report = run_slice(jobs=4)
        assert report.fallback_reason is not None
        assert "PermissionError" in report.fallback_reason
        assert "sandbox forbids process pools" in report.fallback_reason
        # The serial fallback still produces the exact same science.
        assert report.results == baseline.results

    def test_no_fallback_reason_on_healthy_runs(self):
        assert run_slice().fallback_reason is None
        assert run_slice(jobs=2).fallback_reason is None


class TestSerialTimeoutError:
    def test_attempt_raising_timeout_error_is_an_ordinary_failure(
        self, baseline, monkeypatch
    ):
        # A TimeoutError raised by the attempt itself is not a hung
        # worker: the serial run retries it in-process and never
        # builds a pool.
        class TimeoutOnce:
            def before(self, abbr, attempt):
                if abbr == "GST" and attempt == 1:
                    raise TimeoutError("attempt-level timeout")

            def after(self, abbr, attempt, results, cache):
                return results

        def no_pool(self, jobs, tasks):
            raise AssertionError("a serial run built a process pool")

        monkeypatch.setattr(CharacterizationEngine, "_new_pool", no_pool)
        report = run_slice(retry_policy=FAST_RETRY, fault_plan=TimeoutOnce())
        assert report.attempts["GST"] == 2
        assert report.fallback_reason is None
        assert report.run_profile.counter("engine.timeouts") == 0
        assert report.results == baseline.results


class TestResolveJobs:
    # Satellite: edge-case coverage for the jobs normalization.
    def test_none_and_zero_mean_serial(self):
        assert _resolve_jobs(None) == 1
        assert _resolve_jobs(0) == 1

    def test_positive_passthrough(self):
        assert _resolve_jobs(1) == 1
        assert _resolve_jobs(7) == 7

    def test_negative_means_cpu_count(self, monkeypatch):
        monkeypatch.setattr("repro.core.engine.os.cpu_count", lambda: 6)
        assert _resolve_jobs(-1) == 6
        assert _resolve_jobs(-99) == 6

    def test_cpu_count_none_degrades_to_one(self, monkeypatch):
        monkeypatch.setattr("repro.core.engine.os.cpu_count", lambda: None)
        assert _resolve_jobs(-1) == 1
