"""Unit tests for the repro.obs primitives: spans, metrics, sinks."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    CURRENT_TRACER,
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    RunProfile,
    Tracer,
    read_events,
    write_chrome_trace,
)


class _ListSink:
    def __init__(self):
        self.records = []
        self.closed = False

    def emit(self, record):
        self.records.append(record)

    def close(self):
        self.closed = True


# -- spans -------------------------------------------------------------
class TestSpans:
    def test_nesting_records_parentage(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner_rec, outer_rec = sink.records  # inner closes first
        assert inner_rec["name"] == "inner"
        assert inner_rec["parent_id"] == outer.span_id
        assert outer_rec["parent_id"] is None
        assert inner_rec["trace_id"] == outer_rec["trace_id"]

    def test_sibling_spans_share_parent(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, _ = sink.records
        assert a["parent_id"] == parent.span_id
        assert b["parent_id"] == parent.span_id
        assert a["span_id"] != b["span_id"]

    def test_remote_parent_roots_top_level_spans(self):
        sink = _ListSink()
        tracer = Tracer(
            trace_id="feedfeedfeedfeed", sink=sink, parent_id="cafecafecafecafe"
        )
        with tracer.span("attempt"):
            pass
        (record,) = sink.records
        assert record["parent_id"] == "cafecafecafecafe"
        assert record["trace_id"] == "feedfeedfeedfeed"

    def test_exception_marks_span_error_and_reraises(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (record,) = sink.records
        assert record["status"] == "error"
        assert record["attrs"]["error"] == "ValueError"
        assert tracer.current_span_id() is None  # stack unwound

    def test_span_durations_feed_metrics(self):
        tracer = Tracer()
        with tracer.span("simulate", workload="GMS"):
            pass
        assert tracer.metrics.histograms["span.simulate_s"]["count"] == 1
        assert tracer.metrics.histograms["workload.GMS.simulate_s"]["count"] == 1

    def test_event_without_sink_is_noop(self):
        tracer = Tracer()
        tracer.event("retry", workload="GMS")  # must not raise
        assert tracer.metrics == RunProfile()

    def test_null_tracer_is_inert(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert CURRENT_TRACER.get() is NULL_TRACER  # outside a run
        with NULL_TRACER.span("anything", workload="GMS") as handle:
            handle.set_attr("k", "v")
        NULL_TRACER.event("x")
        NULL_TRACER.incr("c")
        NULL_TRACER.observe("h", 1.0)
        assert NULL_TRACER.current_span_id() is None
        assert NULL_TRACER.metrics == RunProfile()

    def test_null_tracer_span_is_shared_singleton(self):
        a = NULL_TRACER.span("a")
        b = NULL_TRACER.span("b")
        assert a is b  # no per-call allocation


# -- metrics -----------------------------------------------------------
class TestMetrics:
    def test_histogram_observe_and_merge(self):
        a = RunProfile()
        for value in (1.0, 3.0):
            a.observe("span.simulate_s", value)
        b = RunProfile()
        b.observe("span.simulate_s", 2.0)
        b.observe("span.simulate_s", 0.5)
        b.observe("queue.wait_s", 0.25)
        a.merge(b)
        assert a.histograms["span.simulate_s"] == {
            "count": 4, "total": 6.5, "min": 0.5, "max": 3.0,
        }
        assert a.histograms["queue.wait_s"] == {
            "count": 1, "total": 0.25, "min": 0.25, "max": 0.25,
        }
        # The merge copied b's histograms: a's later updates stay in a.
        a.observe("queue.wait_s", 1.0)
        assert b.histograms["queue.wait_s"]["count"] == 1

    def test_empty_profile_merge_and_dict(self):
        profile = RunProfile()
        profile.merge(RunProfile())
        assert profile.as_dict() == {"counters": {}, "histograms": {}}
        profile.incr("engine.runs")
        profile.observe("span.run_s", 0.5)
        before = profile.as_dict()
        profile.merge(RunProfile())
        assert profile.as_dict() == before

    def test_counter_merge_json_roundtrip(self):
        worker = RunProfile()
        worker.incr("cache.misses", 4.0)
        worker.incr("sim.launches", 7.0)
        worker.observe("queue.wait_s", 0.25)
        parent = RunProfile()
        parent.incr("cache.misses", 1.0)
        parent.merge(worker)
        assert parent.counters == {"cache.misses": 5.0, "sim.launches": 7.0}
        assert worker.counters["cache.misses"] == 4.0  # source untouched
        payload = json.loads(json.dumps(parent.as_dict()))
        assert set(payload) == {"counters", "histograms"}
        assert RunProfile(**payload) == parent

    def test_run_profile_dict_roundtrip_equal(self):
        profile = RunProfile()
        profile.incr("engine.retries", 2.0)
        profile.incr("cache.disk_hits", 3.0)
        profile.incr("cache.misses", 1.0)
        profile.observe("span.simulate_s", 0.5)
        profile.observe("workload.GMS.simulate_s", 0.5)
        payload = json.loads(json.dumps(profile.as_dict()))
        assert RunProfile(**payload) == profile

    def test_run_profile_derived_views(self):
        profile = RunProfile()
        profile.incr("cache.disk_hits", 4.0)
        profile.incr("cache.misses", 4.0)
        profile.incr("engine.retries", 2.0)
        profile.observe("span.simulate_s", 0.5)
        profile.observe("span.simulate_s", 1.5)
        profile.observe("workload.GMS.stream-gen_s", 0.25)
        assert profile.cache_lookups == 8.0
        assert profile.cache_hit_rate == pytest.approx(0.5)
        assert profile.retries == 2
        assert profile.phase_seconds("simulate") == pytest.approx(2.0)
        assert profile.workload_phases() == {
            "GMS": {"stream-gen": pytest.approx(0.25)}
        }


# -- sinks -------------------------------------------------------------
class TestSinks:
    def test_jsonl_sink_appends_and_is_lazy(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()  # lazy open: no record, no file
        sink.emit({"a": 1})
        sink.emit({"b": 2})
        sink.close()
        with JsonlSink(path) as second:
            second.emit({"c": 3})
        records = read_events(path, strict=True)
        assert records == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_read_events_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"a":1}\n{"b":2}\n{"torn": tru')
        assert read_events(path) == [{"a": 1}, {"b": 2}]
        with pytest.raises(ValueError):
            read_events(path, strict=True)

    def test_chrome_trace_is_valid_and_complete(self, tmp_path):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("suite-run", category="suite"):
            with tracer.span("simulate", category="phase", workload="GMS"):
                pass
            tracer.event("retry", category="resilience", workload="GMS")
        out = tmp_path / "trace.json"
        count = write_chrome_trace(sink.records, out)
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert count == len(events)
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in spans} == {"suite-run", "simulate"}
        assert all(e["dur"] >= 0.0 for e in spans)
        assert [e["name"] for e in instants] == ["retry"]
        assert meta and meta[0]["name"] == "process_name"
        # Timestamps are microseconds and globally sorted.
        stamps = [e["ts"] for e in events if "ts" in e]
        assert stamps == sorted(stamps)
