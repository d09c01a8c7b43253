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
import threading

import pytest

from repro.core import LAPTOP_SCALE, ResultCache, RetryPolicy, run_suite
from repro.core.cache import characterization_key
from repro.gpu import RTX_3080, V100
from repro.gpu.simulator import SimulationOptions
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


class TestWorkerMetrics:
    @pytest.mark.parametrize("method", ["fork", "forkserver"])
    def test_workers_record_into_the_run(
        self, tmp_path, baseline, request, method
    ):
        # A forkserver worker inherits no context variable, a forked
        # one inherits the parent's: either way the attempt records
        # into the worker's own tracer, whose metrics reach the run.
        request.getfixturevalue(f"{method}_pool")
        trace_dir = tmp_path / "trace"
        report = run_slice(
            jobs=2,
            cache=ResultCache(tmp_path / "cache"),
            trace_dir=str(trace_dir),
        )
        assert diff_suite_results(baseline, report) == []
        profile = report.run_profile
        assert profile.counter("sim.launches") == (
            baseline.run_profile.counter("sim.launches")
        )
        assert profile.counter("sim.launches") > 0
        assert profile.counter("cache.misses") == len(WORKLOADS)
        assert profile.counter("cache.stores") == len(WORKLOADS)
        events = read_events(trace_dir / "events.jsonl", strict=True)
        _assert_forest(events, set(WORKLOADS))
        assert len({e["pid"] for e in events}) > 1


class TestConcurrentRuns:
    def test_each_run_keeps_its_own_counts(self, tmp_path):
        # Two runs on two threads share one cache: each run's profile
        # and event log hold its own cache traffic, and only that.
        runs = {
            "a": (RTX_3080, ["GMS", "LMR", "GST"]),
            "b": (V100, ["DCG", "NST", "RFL"]),
        }
        cache = ResultCache(tmp_path / "cache")
        barrier = threading.Barrier(len(runs))
        reports, errors = {}, []

        def run(label):
            device, workloads = runs[label]
            try:
                barrier.wait(timeout=60)
                reports[label] = run_suite(
                    ["Cactus"],
                    preset=LAPTOP_SCALE,
                    device=device,
                    workloads=workloads,
                    cache=cache,
                    trace_dir=str(tmp_path / label),
                )
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(label,)) for label in runs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert errors == []
        for label, (device, workloads) in runs.items():
            profile = reports[label].run_profile
            assert profile.counter("cache.misses") == len(workloads)
            assert profile.counter("cache.stores") == len(workloads)
            keys = {
                characterization_key(
                    device,
                    SimulationOptions(),
                    abbr,
                    LAPTOP_SCALE.for_workload(abbr),
                    LAPTOP_SCALE.seed,
                )[:16]
                for abbr in workloads
            }
            events = read_events(tmp_path / label / "events.jsonl", strict=True)
            for op in ("cache.get", "cache.put"):
                seen = [
                    e["attrs"]["key"]
                    for e in events
                    if e.get("type") == "event" and e["name"] == op
                ]
                assert sorted(seen) == sorted(keys), (label, op)


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
