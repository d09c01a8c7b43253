"""Engine-level observability: span forests, run profiles, differentials.

Runs the standard three-workload slice (GMS, GST, GRU — cheapest at
laptop scale) through the real engine, serial and pooled, with tracing
on and off, and checks that

* the emitted event log is a well-formed span *forest* (``run`` root,
  attempt spans under it, phase spans under attempts — across process
  boundaries),
* the run profile aggregates worker metrics correctly, and
* tracing never perturbs results: characterizations are bit-for-bit
  identical with tracing on or off (the observability layer reads the
  pipeline, never feeds it).
"""

from __future__ import annotations

import json

import pytest

from repro.core import LAPTOP_SCALE, RetryPolicy, run_suite
from repro.obs import read_events
from repro.obs.metrics import PHASE_ORDER
from tests.faults import FaultPlan
from tests.oracles import diff_suite_results

WORKLOADS = ["GMS", "GST", "GRU"]
FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_base_s=0.001, backoff_max_s=0.01
)


def run_slice(**kwargs):
    return run_suite(
        ["Cactus"], preset=LAPTOP_SCALE, workloads=WORKLOADS, **kwargs
    )


@pytest.fixture(scope="module")
def baseline():
    """Fault-free, trace-free serial reference run."""
    return run_slice()


def _span_index(events):
    return {
        e["span_id"]: e for e in events if e.get("type") == "span"
    }


def _assert_forest(events, expected_workloads):
    """The event log reassembles into the expected span hierarchy."""
    spans = _span_index(events)
    roots = [s for s in spans.values() if s["name"] == "run"]
    assert len(roots) == 1
    root = roots[0]
    assert root["parent_id"] is None
    assert root["status"] == "ok"

    attempts = [s for s in spans.values() if s["name"] == "attempt"]
    assert {s["attrs"]["workload"] for s in attempts} == expected_workloads
    for attempt in attempts:
        assert attempt["parent_id"] == root["span_id"]
        assert attempt["trace_id"] == root["trace_id"]

    attempt_ids = {s["span_id"] for s in attempts}
    phases = [s for s in spans.values() if s["name"] in PHASE_ORDER]
    assert phases, "no phase spans recorded"
    for phase in phases:
        assert phase["parent_id"] in attempt_ids
        # Phase spans nest inside their attempt's time window.
        parent = spans[phase["parent_id"]]
        assert phase["ts_unix"] >= parent["ts_unix"] - 1e-3
        assert phase["dur_s"] <= parent["dur_s"] + 1e-3
        assert phase["attrs"]["workload"] == parent["attrs"]["workload"]


class TestSerialTracing:
    def test_span_forest_and_result_equality(self, tmp_path, baseline):
        trace_dir = tmp_path / "trace"
        report = run_slice(trace_dir=str(trace_dir))
        assert diff_suite_results(baseline, report) == []
        assert report.trace_dir == str(trace_dir)
        events = read_events(trace_dir / "events.jsonl", strict=True)
        _assert_forest(events, set(WORKLOADS))
        # Serial path: everything from one process.
        assert len({e["pid"] for e in events}) == 1

    def test_profile_present_without_tracing(self, baseline):
        assert baseline.trace_dir is None
        profile = baseline.run_profile
        assert profile is not None
        assert profile.counter("engine.workloads_completed") == len(WORKLOADS)
        for phase in ("stream-gen", "simulate", "analyze"):
            assert profile.phase_seconds(phase) > 0.0
        assert set(profile.workload_phases()) == set(WORKLOADS)


class TestParallelTracing:
    def test_span_forest_spans_processes(self, tmp_path, baseline):
        trace_dir = tmp_path / "trace"
        report = run_slice(jobs=2, trace_dir=str(trace_dir))
        assert diff_suite_results(baseline, report) == []
        events = read_events(trace_dir / "events.jsonl", strict=True)
        _assert_forest(events, set(WORKLOADS))
        # Pool path: attempt spans come from worker processes; finalize
        # folded their per-pid logs into the single canonical file.
        assert len({e["pid"] for e in events}) > 1
        assert not list(trace_dir.glob("events-*.jsonl"))
        # Worker metrics merged: queue waits observed per workload.
        queue = report.run_profile.histograms["queue.wait_s"]
        assert queue["count"] == len(WORKLOADS)

    def test_attempt_spans_record_mode(self, tmp_path):
        trace_dir = tmp_path / "trace"
        run_slice(jobs=2, trace_dir=str(trace_dir))
        events = read_events(trace_dir / "events.jsonl", strict=True)
        modes = {
            e["attrs"]["mode"]
            for e in events
            if e.get("type") == "span" and e["name"] == "attempt"
        }
        assert modes == {"pool"}


class TestFaultedTracing:
    def test_retry_events_and_counters(self, tmp_path, baseline):
        trace_dir = tmp_path / "trace"
        plan = FaultPlan.single("GST", "crash", attempts=(1,))
        report = run_slice(
            trace_dir=str(trace_dir),
            fault_plan=plan,
            retry_policy=FAST_RETRY,
            keep_going=True,
        )
        assert report.ok  # crash on attempt 1 retried successfully
        assert diff_suite_results(baseline, report) == []
        assert report.run_profile.retries == 1
        events = read_events(trace_dir / "events.jsonl", strict=True)
        retries = [
            e for e in events
            if e.get("type") == "event" and e["name"] == "retry"
        ]
        assert len(retries) == 1
        assert retries[0]["attrs"]["workload"] == "GST"
        errored = [
            e for e in events
            if e.get("type") == "span"
            and e["name"] == "attempt"
            and e["status"] == "error"
        ]
        assert len(errored) == 1
        assert errored[0]["attrs"]["workload"] == "GST"

    @pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "pool"])
    def test_zero_backoff_retry_counted(self, tmp_path, baseline, jobs):
        # One retry rule on both executors: a retry with no backoff
        # sleep still emits its event and bumps the counter.
        trace_dir = tmp_path / "trace"
        report = run_suite(
            ["Cactus"],
            preset=LAPTOP_SCALE,
            workloads=["GMS", "GST"],
            jobs=jobs,
            trace_dir=str(trace_dir),
            fault_plan=FaultPlan.single("GST", "crash", attempts=(1,)),
            retry_policy=RetryPolicy(backoff_base_s=0, backoff_max_s=0),
        )
        assert report.attempts["GST"] == 2
        assert report.run_profile.retries == 1
        assert report.results == {
            abbr: baseline[abbr] for abbr in ("GMS", "GST")
        }
        events = read_events(trace_dir / "events.jsonl", strict=True)
        retries = [
            e["attrs"] for e in events
            if e.get("type") == "event" and e["name"] == "retry"
        ]
        assert retries == [
            {
                "workload": "GST",
                "attempt": 1,
                "sleep_s": 0.0,
                "error": "InjectedTransientFault",
                "role": "main",
            }
        ]

    def test_terminal_failure_counted(self):
        plan = FaultPlan.single("GST", "crash-permanent")
        report = run_slice(
            fault_plan=plan, retry_policy=FAST_RETRY, keep_going=True
        )
        assert report.failed_workloads == ["GST"]
        profile = report.run_profile
        assert profile.counter("engine.workloads_failed") == 1
        assert profile.counter("engine.workloads_completed") == 2


class TestDifferential:
    def test_tracing_is_observation_only(self, tmp_path, baseline):
        """Serial/parallel x traced/untraced: all four identical."""
        reports = {
            "serial-traced": run_slice(trace_dir=str(tmp_path / "a")),
            "pool-untraced": run_slice(jobs=2),
            "pool-traced": run_slice(jobs=2, trace_dir=str(tmp_path / "b")),
        }
        for label, report in reports.items():
            assert diff_suite_results(baseline, report) == [], label

    def test_chrome_trace_loads_as_json(self, tmp_path):
        trace_dir = tmp_path / "trace"
        run_slice(trace_dir=str(trace_dir))
        payload = json.loads((trace_dir / "trace.json").read_text())
        assert payload["metadata"]["producer"] == "repro.obs"
        events = payload["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "i", "M"}
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "run" in names and "attempt" in names
