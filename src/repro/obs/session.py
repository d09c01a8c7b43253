"""Run-scoped observability session: wiring tracer, metrics and sinks.

An :class:`ObsSession` is what the characterization engine actually
holds: one :class:`~repro.obs.spans.Tracer` (its
:class:`~repro.obs.metrics.RunProfile` always records — dict updates
are effectively free; the JSONL sink only when a trace directory was
requested) plus the machinery to

* hand span context to pool workers (:class:`TraceHandoff`, a small
  picklable value rooting worker spans under the parent's suite span),
* build worker-side tracers (:func:`worker_tracer`) that write to
  per-pid event logs, and
* finalize the run: merge worker logs into the canonical
  ``events.jsonl`` and export the Chrome trace.

The run's profile is ``session.tracer.metrics``; each worker's profile
is merged into it by :meth:`ObsSession.absorb`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.obs.metrics import RunProfile
from repro.obs.sinks import (
    CHROME_TRACE_NAME,
    EVENT_LOG_NAME,
    JsonlSink,
    read_events,
    worker_log_path,
    write_chrome_trace,
)
from repro.obs.spans import Tracer

__all__ = [
    "ObsSession",
    "TraceHandoff",
    "worker_tracer",
]


@dataclass(frozen=True)
class TraceHandoff:
    """Picklable span context shipped to a pool worker with its task.

    Carries everything a worker needs to keep its spans in the parent's
    trace: the run's ``trace_id``, the parent span to root under, the
    trace directory (``None`` → metrics only, no event log), and the
    submit wall-time so the worker can report its queue wait.
    """

    trace_id: str
    parent_span_id: Optional[str]
    trace_dir: Optional[str]
    submitted_unix: float


def worker_tracer(handoff: TraceHandoff) -> Tracer:
    """Build the worker-side tracer for one characterization task.

    Observes the submit→start queue wait immediately, so every worker
    attempt contributes to the ``queue.wait_s`` histogram.  The sink —
    present only when tracing is enabled — appends to this worker's
    own ``events-<pid>.jsonl`` (see :mod:`repro.obs.sinks` for why
    per-process files).
    """
    sink = (
        JsonlSink(worker_log_path(handoff.trace_dir, os.getpid()))
        if handoff.trace_dir
        else None
    )
    tracer = Tracer(
        trace_id=handoff.trace_id,
        sink=sink,
        parent_id=handoff.parent_span_id,
        role="worker",
    )
    tracer.observe("queue.wait_s", max(0.0, time.time() - handoff.submitted_unix))
    return tracer


class ObsSession:
    """One run's observability context, owned by the engine."""

    def __init__(self, trace_dir: Optional[str] = None) -> None:
        self.trace_dir: Optional[Path] = (
            Path(trace_dir) if trace_dir else None
        )
        sink = (
            JsonlSink(self.trace_dir / EVENT_LOG_NAME)
            if self.trace_dir is not None
            else None
        )
        self.tracer = Tracer(sink=sink, role="main")

    @property
    def tracing(self) -> bool:
        """Whether an event log / Chrome trace is being written."""
        return self.trace_dir is not None

    # -- worker pool ---------------------------------------------------
    def handoff(self) -> TraceHandoff:
        """Span context for a task submitted to the pool *now*."""
        return TraceHandoff(
            trace_id=self.tracer.trace_id,
            parent_span_id=self.tracer.current_span_id(),
            trace_dir=str(self.trace_dir) if self.trace_dir else None,
            submitted_unix=time.time(),
        )

    def absorb(self, profile: Optional[RunProfile]) -> None:
        """Merge a worker's profile into the run's (``None``: an
        in-process attempt, which recorded into the run's own)."""
        if profile is not None:
            self.tracer.metrics.merge(profile)

    # -- finalization --------------------------------------------------
    def finalize(self) -> Optional[Path]:
        """Close sinks, fold worker logs in, export the Chrome trace.

        Worker ``events-<pid>.jsonl`` files are appended into the main
        ``events.jsonl`` (then removed), keeping one canonical
        append-only log per directory; the Chrome trace is rebuilt
        from the *full* log, so successive runs into one directory
        layer onto one timeline.  Returns the Chrome-trace path, or
        ``None`` when tracing was disabled.
        """
        if self.tracer.sink is not None:
            self.tracer.sink.close()
        if self.trace_dir is None:
            return None
        main_log = self.trace_dir / EVENT_LOG_NAME
        worker_logs = sorted(self.trace_dir.glob("events-*.jsonl"))
        if worker_logs:
            with main_log.open("a", encoding="utf-8") as out:
                for path in worker_logs:
                    for record in read_events(path):
                        out.write(
                            json.dumps(
                                record, separators=(",", ":"), sort_keys=True
                            )
                            + "\n"
                        )
                    path.unlink(missing_ok=True)
        chrome_path = self.trace_dir / CHROME_TRACE_NAME
        events = read_events(main_log) if main_log.is_file() else []
        write_chrome_trace(events, chrome_path)
        return chrome_path
