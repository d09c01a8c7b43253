"""Run-scoped observability for the characterization pipeline.

``repro.obs`` gives suite runs a first-class, machine-readable view of
themselves: hierarchical **spans** (suite → workload attempt →
stream-gen / simulate / analyze, plus cache, retry, journal and pool
events), one **run profile** per run (the counters and histograms of
a :class:`~repro.obs.metrics.RunProfile`, each pool worker's merged
into the run's and carried on every ``SuiteRunReport``), and two
**sinks** — an append-only JSONL event
log and a Chrome-trace (``chrome://tracing`` / Perfetto) export.

Design rules (see DESIGN.md §11):

* observability *reads* the pipeline, never feeds it — results and
  launch-stream digests are bit-for-bit identical with tracing on or
  off;
* stdlib-only, importable from anywhere in the tree without cycles;
* disabled tracing is :data:`~repro.obs.spans.NULL_TRACER`, a strict
  no-op;
* every layer reaches the run's tracer through one context variable,
  :data:`~repro.obs.spans.CURRENT_TRACER`, which the engine sets for
  the run and each pool worker for its attempt; outside a run it holds
  ``NULL_TRACER``.
"""

from repro.obs.metrics import RunProfile
from repro.obs.session import ObsSession, TraceHandoff, worker_tracer
from repro.obs.sinks import (
    JsonlSink,
    event_log_paths,
    read_events,
    tail_events,
    write_chrome_trace,
)
from repro.obs.spans import (
    CURRENT_TRACER,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    new_id,
)

__all__ = [
    "CURRENT_TRACER",
    "JsonlSink",
    "NULL_TRACER",
    "NullTracer",
    "ObsSession",
    "RunProfile",
    "Span",
    "TraceHandoff",
    "Tracer",
    "event_log_paths",
    "new_id",
    "read_events",
    "tail_events",
    "worker_tracer",
    "write_chrome_trace",
]
