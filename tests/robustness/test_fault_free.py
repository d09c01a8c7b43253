"""The resilience machinery must be invisible on healthy runs.

Acceptance criterion (ISSUE 2): the existing differential and golden
suites pass unchanged — here we additionally pin that a run through the
full fault-tolerant engine (retry policy, journal, empty fault plan)
is bit-for-bit identical to the plain path.
"""

import pytest

from repro.core import RetryPolicy
from tests.faults import FaultPlan

from .conftest import WORKLOADS, run_slice


@pytest.mark.parametrize("jobs", [None, 3], ids=["serial", "parallel"])
def test_empty_fault_plan_is_bit_for_bit_noop(baseline, jobs):
    report = run_slice(jobs=jobs, fault_plan=FaultPlan())
    assert report.ok
    assert report.failures == []
    assert report.fallback_reason is None
    assert report.resumed == []
    assert list(report.results) == WORKLOADS
    assert report.results == baseline.results


def test_none_fault_plan_matches_empty_plan(baseline):
    report = run_slice(fault_plan=None)
    assert report.results == baseline.results


@pytest.mark.parametrize("jobs", [None, 3], ids=["serial", "parallel"])
def test_retry_and_timeout_config_do_not_perturb_results(baseline, jobs):
    policy = RetryPolicy(max_attempts=5, timeout_s=120.0)
    report = run_slice(jobs=jobs, retry_policy=policy, keep_going=True)
    assert report.ok
    assert report.results == baseline.results
    assert all(n == 1 for n in report.attempts.values())


def test_journal_on_healthy_run_is_bit_for_bit(baseline, tmp_path):
    report = run_slice(journal_dir=tmp_path)
    assert report.ok
    assert report.resumed == []
    assert report.results == baseline.results
