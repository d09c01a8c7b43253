"""Suite-run report serialization and the rendered "Run profile" section.

Covers the round-trip contract — ``suite_run_report_from_dict(
suite_run_report_to_dict(r)) == r`` through actual JSON, including the
failure/resilience record — and the report section that renders the run
profile for clean and fault-injected runs alike.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    LAPTOP_SCALE,
    RetryPolicy,
    run_suite,
    suite_run_report_to_dict,
)
from repro.core.report import generate_report
from tests.faults import FaultPlan
from tests.oracles import suite_run_report_from_dict

WORKLOADS = ["GMS", "GST", "GRU"]
FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_base_s=0.001, backoff_max_s=0.01
)


def run_slice(**kwargs):
    return run_suite(
        ["Cactus"], preset=LAPTOP_SCALE, workloads=WORKLOADS, **kwargs
    )


@pytest.fixture(scope="module")
def clean_report():
    return run_slice()


@pytest.fixture(scope="module")
def faulted_report():
    """A run that retried once (GMS) and lost a workload (GST)."""
    plan = FaultPlan(
        faults=(
            FaultPlan.single("GMS", "crash", attempts=(1,)).faults
            + FaultPlan.single("GST", "crash-permanent").faults
        )
    )
    return run_slice(
        fault_plan=plan, retry_policy=FAST_RETRY, keep_going=True
    )


class TestRoundTrip:
    def test_clean_report_roundtrips_equal(self, clean_report):
        payload = json.loads(json.dumps(suite_run_report_to_dict(clean_report)))
        assert suite_run_report_from_dict(payload) == clean_report

    def test_faulted_report_roundtrips_equal(self, faulted_report):
        assert faulted_report.failed_workloads == ["GST"]
        payload = json.loads(
            json.dumps(suite_run_report_to_dict(faulted_report))
        )
        back = suite_run_report_from_dict(payload)
        assert back == faulted_report

    def test_failure_record_survives_serialization(self, faulted_report):
        payload = suite_run_report_to_dict(faulted_report)
        # The serialized form itself carries the post-mortem — this is
        # the bug the round-trip exists to prevent: a report that
        # degraded must not serialize as if the run were clean.
        assert payload["failures"], "failures dropped from serialized report"
        failure = payload["failures"][0]
        assert failure["abbr"] == "GST"
        assert failure["error_type"] == "InjectedPermanentFault"
        assert failure["traceback"]
        assert "fallback_reason" in payload
        assert payload["attempts"]["GMS"] == 2  # the retried workload

    def test_run_profile_survives_serialization(self, faulted_report):
        payload = json.loads(
            json.dumps(suite_run_report_to_dict(faulted_report))
        )
        back = suite_run_report_from_dict(payload)
        assert back.run_profile == faulted_report.run_profile
        assert back.run_profile.retries == 1

    def test_fallback_reason_roundtrips(self, clean_report):
        payload = suite_run_report_to_dict(clean_report)
        payload["fallback_reason"] = "process pool unavailable: test"
        back = suite_run_report_from_dict(json.loads(json.dumps(payload)))
        assert back.fallback_reason == "process pool unavailable: test"


class TestRunProfileSection:
    def test_clean_run_renders_profile(self, clean_report):
        text = generate_report(clean_report)
        assert "## Run profile" in text
        section = text[text.index("## Run profile"):]
        for phase in ("stream-gen", "simulate", "analyze"):
            assert f"| {phase} |" in section
        for abbr in WORKLOADS:
            assert f"| {abbr} |" in section
        assert "workloads completed: 3" in section
        assert "retries: 0" in section

    def test_faulted_run_renders_profile(self, faulted_report):
        text = generate_report(faulted_report)
        section = text[text.index("## Run profile"):]
        assert "workloads completed: 2" in section
        assert "failed: 1" in section
        assert "retries: 1" in section
        # The failed workload still shows the wall-clock it burned.
        assert "| GST |" in section

    def test_plain_suite_result_omits_section(self, clean_report):
        from repro.core.suite import SuiteResult

        plain = SuiteResult(
            device=clean_report.device,
            preset=clean_report.preset,
            results=dict(clean_report.results),
        )
        assert "## Run profile" not in generate_report(plain)
