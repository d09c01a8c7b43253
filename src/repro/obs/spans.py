"""Run-scoped spans: the tracing half of :mod:`repro.obs`.

A :class:`Tracer` records *hierarchical spans* (named, timed regions —
suite → workload attempt → stream-gen / simulate / analyze) and
*instant events* (retry fired, checkpoint written, cache probe) for one
pipeline run.  Every record carries the run's ``trace_id``, its own
``span_id``, and its parent's id, so the forest can be reassembled from
a flat event log regardless of which process or thread emitted it.

Every layer reaches the run's tracer through one context variable,
:data:`CURRENT_TRACER`: the engine sets it for the length of a run (and
each pool worker for the length of its attempt), and instrumented code
reads it with ``CURRENT_TRACER.get()``.  Outside a run it holds
:data:`NULL_TRACER`.  Each thread has its own context, so two runs on
two threads never record into each other's tracer.

Two propagation mechanisms keep parentage correct:

* **within a process** — a thread-local span stack: ``tracer.span(...)``
  nested inside another span automatically records the inner span's
  parent.
* **across the worker pool** — a tracer constructed with an explicit
  ``parent_id`` (see :class:`repro.obs.session.TraceHandoff`) roots its
  spans under a span owned by another process.

The tracer is *read-only instrumentation*: it observes wall-clock and
counts, and never feeds anything back into the pipeline — launch
streams, digests, and characterization results are bit-for-bit
identical with tracing on or off.

Cost model: the shared :data:`NULL_TRACER` singleton is a no-op (no
clock reads, no allocation beyond the context-manager call).  A tracer
without a sink pays two ``perf_counter`` calls and one histogram update
on its :class:`~repro.obs.metrics.RunProfile` per span.  Sinks add one
buffered+flushed JSON line per record.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import RunProfile
from repro.obs.sinks import JsonlSink

__all__ = [
    "CURRENT_TRACER",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "new_id",
]


def new_id() -> str:
    """A fresh 64-bit hex id for traces and spans."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One live (or finished) span.

    Usable as a context manager handle: ``with tracer.span(...) as sp:
    sp.set_attr(...)``.  Attribute values should be JSON-serializable.
    """

    name: str
    category: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_unix: float
    start_perf: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    duration_s: float = 0.0
    status: str = "ok"
    pid: int = 0
    tid: int = 0

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def as_event(self, kind: str = "span") -> Dict[str, Any]:
        """The JSONL event-log record for this (finished) span, or for
        an instant event when *kind* is ``"event"``."""
        return {
            "type": kind,
            "name": self.name,
            "cat": self.category,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "ts_unix": self.start_unix,
            "dur_s": self.duration_s,
            "status": self.status,
            "attrs": self.attrs,
        }


class _SpanContext:
    """Context manager binding one :class:`Span` to its tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.span.status = "error"
            self.span.attrs.setdefault(
                "error", getattr(exc_type, "__name__", str(exc_type))
            )
        self._tracer._pop(self.span)
        return None


class Tracer:
    """Records spans and events for one run into a sink and a profile.

    Parameters
    ----------
    trace_id:
        Identity of the run; generated when omitted.  Workers inherit
        the parent's trace id through the handoff.
    sink:
        Optional :class:`~repro.obs.sinks.JsonlSink` receiving one
        record per finished span / instant event.  ``None`` disables
        the event log (metrics still accumulate).
    parent_id:
        Span id (from another process) to root top-level spans under.
    role:
        Free-form process label (``"main"``, ``"worker"``) stamped on
        every record; the Chrome exporter uses it to name process rows.

    The tracer's :class:`~repro.obs.metrics.RunProfile` is
    ``tracer.metrics``.  Every finished span is observed into its
    ``span.<name>_s`` histogram and — when the span has a ``workload``
    attribute — into ``workload.<abbr>.<name>_s``, which is what the
    per-workload phase breakdown in the run profile is built from.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        sink: Optional[JsonlSink] = None,
        parent_id: Optional[str] = None,
        role: str = "main",
    ) -> None:
        self.trace_id = trace_id or new_id()
        self.sink = sink
        self.metrics = RunProfile()
        self.role = role
        self._root_parent = parent_id
        self._local = threading.local()

    # -- plumbing ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open span (or the remote parent)."""
        stack = self._stack()
        return stack[-1].span_id if stack else self._root_parent

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: out-of-order exit
            stack.remove(span)
        span.duration_s = time.perf_counter() - span.start_perf
        self.metrics.observe(f"span.{span.name}_s", span.duration_s)
        workload = span.attrs.get("workload")
        if workload:
            self.metrics.observe(
                f"workload.{workload}.{span.name}_s", span.duration_s
            )
        if self.sink is not None:
            self.sink.emit(span.as_event())

    def _start(self, name: str, category: str, attrs: Dict[str, Any]) -> Span:
        """A span starting now under the current one, owning *attrs*."""
        attrs.setdefault("role", self.role)
        return Span(
            name=name,
            category=category,
            trace_id=self.trace_id,
            span_id=new_id(),
            parent_id=self.current_span_id(),
            start_unix=time.time(),
            start_perf=time.perf_counter(),
            attrs=attrs,
            pid=os.getpid(),
            tid=threading.get_ident(),
        )

    # -- public API ----------------------------------------------------
    def span(self, name: str, category: str = "run", **attrs: Any) -> _SpanContext:
        """Open a named span as a context manager.

        The span closes (and is recorded) when the ``with`` block
        exits; an exception marks it ``status="error"`` and re-raises.
        """
        return _SpanContext(self, self._start(name, category, attrs))

    def event(self, name: str, category: str = "event", **attrs: Any) -> None:
        """Record an instant (zero-duration) event at the current spot."""
        if self.sink is not None:
            self.sink.emit(self._start(name, category, attrs).as_event("event"))

    def incr(self, name: str, value: float = 1.0) -> None:
        """Convenience: bump a counter on this tracer's profile."""
        self.metrics.incr(name, value)

    def observe(self, name: str, value: float) -> None:
        """Convenience: observe into a histogram on this tracer's profile."""
        self.metrics.observe(name, value)


class _NullSpanContext:
    """Shared, allocation-free no-op span handle."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None

    def set_attr(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


class NullTracer(Tracer):
    """A tracer that records nothing, at near-zero cost.

    ``span()`` hands back one shared no-op context manager — no clock
    reads, no id generation, no allocation — so instrumented code can
    call it unconditionally.  This is what disabled tracing resolves
    to throughout the pipeline.
    """

    def __init__(self) -> None:
        super().__init__(trace_id="null")

    def span(self, name: str, category: str = "run", **attrs: Any) -> Any:
        return _NULL_SPAN

    def event(self, name: str, category: str = "event", **attrs: Any) -> None:
        pass

    def incr(self, name: str, value: float = 1.0) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def current_span_id(self) -> Optional[str]:
        return None


#: Shared no-op tracer: what :data:`CURRENT_TRACER` holds outside a run.
NULL_TRACER = NullTracer()

#: The running run's tracer, for every layer it calls into.
CURRENT_TRACER: ContextVar[Tracer] = ContextVar(
    "CURRENT_TRACER", default=NULL_TRACER
)
