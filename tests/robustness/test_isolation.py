"""Crash isolation: one failing workload never takes down the suite.

Acceptance criterion (ISSUE 2): with an injected crash in exactly one
workload, a ``keep_going`` run returns a report whose surviving
characterizations are **bit-for-bit equal** to the same workloads from
a fault-free run, and the failed workload appears in the failure list
with a full traceback.
"""

import pytest

from repro.core import SuiteRunError
from tests.faults import CRASH, CRASH_PERMANENT, FaultPlan
from tests.oracles import diff_characterizations

from .conftest import FAST_RETRY, WORKLOADS, run_slice


class TestKeepGoingDifferential:
    @pytest.mark.parametrize("jobs", [None, 3], ids=["serial", "parallel"])
    def test_single_crash_survivors_bit_for_bit(self, baseline, jobs):
        plan = FaultPlan.single("GST", CRASH_PERMANENT, attempts=())
        report = run_slice(jobs=jobs, keep_going=True, fault_plan=plan)

        # Exactly the faulted workload failed; the rest survived.
        assert report.failed_workloads == ["GST"]
        assert sorted(report.results) == ["GMS", "GRU"]
        for abbr in ("GMS", "GRU"):
            assert diff_characterizations(
                baseline[abbr], report[abbr], abbr
            ) == []
            assert report[abbr] == baseline[abbr]

        # The failure record carries the full story.
        failure = report.failure_for("GST")
        assert failure is not None
        assert failure.error_type == "InjectedPermanentFault"
        assert failure.classification == "permanent"
        assert "Traceback (most recent call last)" in failure.traceback
        assert "InjectedPermanentFault" in failure.traceback
        assert failure.attempts == 1  # permanent → never retried

    def test_report_renders_failures(self):
        plan = FaultPlan.single("GST", CRASH_PERMANENT, attempts=())
        report = run_slice(keep_going=True, fault_plan=plan)
        rendered = report.render_failures()
        assert "GST" in rendered and "InjectedPermanentFault" in rendered
        assert not report.ok


class TestStrictMode:
    def test_strict_raises_with_partial_report(self, baseline):
        plan = FaultPlan.single("GST", CRASH_PERMANENT, attempts=())
        with pytest.raises(SuiteRunError) as excinfo:
            run_slice(fault_plan=plan)  # keep_going defaults to False
        err = excinfo.value
        assert [f.abbr for f in err.failures] == ["GST"]
        # Completed work rides along on the exception, bit-for-bit.
        assert err.report["GMS"] == baseline["GMS"]
        assert "GST" in str(err)


class TestRetries:
    @pytest.mark.parametrize("jobs", [None, 3], ids=["serial", "parallel"])
    def test_transient_crash_retried_then_succeeds(self, baseline, jobs):
        # Fails on attempts 1 and 2, succeeds on attempt 3.
        plan = FaultPlan.single("GST", CRASH, attempts=(1, 2))
        report = run_slice(jobs=jobs, retry_policy=FAST_RETRY, fault_plan=plan)
        assert report.ok
        assert report.attempts["GST"] == 3
        assert report.results == baseline.results  # bit-for-bit after retry

    def test_transient_budget_exhaustion_fails(self):
        plan = FaultPlan.single("GST", CRASH, attempts=())  # every attempt
        report = run_slice(
            retry_policy=FAST_RETRY, keep_going=True, fault_plan=plan
        )
        failure = report.failure_for("GST")
        assert failure is not None
        assert failure.classification == "transient"
        assert failure.attempts == FAST_RETRY.max_attempts

    def test_permanent_crash_not_retried(self):
        plan = FaultPlan.single("GST", CRASH_PERMANENT, attempts=())
        report = run_slice(
            retry_policy=FAST_RETRY, keep_going=True, fault_plan=plan
        )
        assert report.failure_for("GST").attempts == 1


class TestOrderingGuarantees:
    @pytest.mark.parametrize("victim", WORKLOADS)
    def test_results_and_failures_keep_registration_order(self, victim):
        plan = FaultPlan.single(victim, CRASH_PERMANENT, attempts=())
        report = run_slice(jobs=3, keep_going=True, fault_plan=plan)
        expected_survivors = [w for w in WORKLOADS if w != victim]
        assert list(report.results) == expected_survivors
        assert report.failed_workloads == [victim]

    def test_multiple_failures_listed_in_registration_order(self):
        from tests.faults import FaultSpec

        plan = FaultPlan(
            faults=(
                FaultSpec("GRU", CRASH_PERMANENT, attempts=()),
                FaultSpec("GMS", CRASH_PERMANENT, attempts=()),
            )
        )
        report = run_slice(jobs=3, keep_going=True, fault_plan=plan)
        assert report.failed_workloads == ["GMS", "GRU"]  # not fault order
        assert list(report.results) == ["GST"]
