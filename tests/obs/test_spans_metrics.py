"""Unit tests for the repro.obs primitives: spans, metrics, sinks."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    CURRENT_TRACER,
    NULL_TRACER,
    HistogramStat,
    JsonlSink,
    MetricsRegistry,
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
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        with tracer.span("simulate", workload="GMS"):
            pass
        assert metrics.histograms["span.simulate_s"].count == 1
        assert metrics.histograms["workload.GMS.simulate_s"].count == 1

    def test_event_without_sink_is_noop(self):
        tracer = Tracer(metrics=MetricsRegistry())
        tracer.event("retry", workload="GMS")  # must not raise

    def test_null_tracer_is_inert(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert CURRENT_TRACER.get() is NULL_TRACER  # outside a run
        with NULL_TRACER.span("anything", workload="GMS") as handle:
            handle.set_attr("k", "v")
        NULL_TRACER.event("x")
        NULL_TRACER.incr("c")
        NULL_TRACER.observe("h", 1.0)
        assert NULL_TRACER.current_span_id() is None

    def test_null_tracer_span_is_shared_singleton(self):
        a = NULL_TRACER.span("a")
        b = NULL_TRACER.span("b")
        assert a is b  # no per-call allocation


# -- metrics -----------------------------------------------------------
class TestMetrics:
    def test_histogram_observe_and_merge(self):
        a = HistogramStat()
        for value in (1.0, 3.0):
            a.observe(value)
        b = HistogramStat()
        b.observe(2.0)
        a.merge(b)
        assert a.count == 3
        assert a.total == 6.0
        assert a.min == 1.0
        assert a.max == 3.0
        assert a.mean == 2.0

    def test_empty_histogram_merge_and_dict(self):
        stat = HistogramStat()
        stat.merge(HistogramStat())
        assert stat.count == 0
        assert stat.as_dict() == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
        }
        assert HistogramStat.from_dict(stat.as_dict()).count == 0

    def test_registry_merge_dict_roundtrip(self):
        worker = MetricsRegistry()
        worker.incr("cache.misses", 4.0)
        worker.set_gauge("g", 7.0)
        worker.observe("queue.wait_s", 0.25)
        parent = MetricsRegistry()
        parent.incr("cache.misses", 1.0)
        parent.merge_dict(worker.snapshot())
        assert parent.counters["cache.misses"] == 5.0
        assert parent.gauges["g"] == 7.0
        assert parent.histograms["queue.wait_s"].count == 1

    def test_run_profile_dict_roundtrip_equal(self):
        registry = MetricsRegistry()
        registry.incr("engine.retries", 2.0)
        registry.incr("cache.disk_hits", 3.0)
        registry.incr("cache.misses", 1.0)
        registry.observe("span.simulate_s", 0.5)
        registry.observe("workload.GMS.simulate_s", 0.5)
        profile = RunProfile.from_registry(registry)
        payload = json.loads(json.dumps(profile.as_dict()))
        assert RunProfile(**payload) == profile

    def test_run_profile_derived_views(self):
        registry = MetricsRegistry()
        registry.incr("cache.disk_hits", 4.0)
        registry.incr("cache.misses", 4.0)
        registry.incr("engine.retries", 2.0)
        registry.observe("span.simulate_s", 0.5)
        registry.observe("span.simulate_s", 1.5)
        registry.observe("workload.GMS.stream-gen_s", 0.25)
        profile = RunProfile.from_registry(registry)
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
        tracer = Tracer(sink=sink, metrics=MetricsRegistry())
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
