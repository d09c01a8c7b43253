"""Observability sinks: the JSONL event log and the Chrome-trace export.

Two output formats, one record schema (see
:meth:`repro.obs.spans.Span.as_event`):

* :class:`JsonlSink` — an **append-only JSONL event log**: one JSON
  object per line, flushed after every record, so a run killed by
  SIGTERM (or anything else) leaves a valid parseable prefix.  The
  main process writes ``events.jsonl``; each pool worker writes
  ``events-<pid>.jsonl`` next to it (per-process files instead of
  cross-process appends, so records can never interleave mid-line).
  :func:`read_events` reads the whole set back, tolerating a torn
  final line.
* :func:`write_chrome_trace` — the merged records re-emitted in the
  Chrome trace-event JSON format (the same convention as the
  kernel-level :mod:`repro.profiler.trace_export` artifacts), so
  orchestration traces open directly in ``chrome://tracing`` or
  Perfetto alongside kernel traces.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "JsonlSink",
    "event_log_paths",
    "read_events",
    "tail_events",
    "write_chrome_trace",
]

EVENT_LOG_NAME = "events.jsonl"
CHROME_TRACE_NAME = "trace.json"


class JsonlSink:
    """Append-only, line-flushed JSONL writer.

    The file handle opens lazily on the first record (a tracer that
    never fires never touches the filesystem) and appends — multiple
    runs into one directory accumulate, distinguished by ``trace_id``.
    Every record is flushed immediately: integrity after a hard kill
    is worth more here than write batching, and suite runs emit a few
    hundred records, not millions.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[Any] = None
        self.emitted = 0

    def emit(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(
            json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        )
        self._handle.flush()
        self.emitted += 1

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


def worker_log_path(trace_dir: Union[str, Path], pid: int) -> Path:
    """Event-log path for one worker process."""
    return Path(trace_dir) / f"events-{pid}.jsonl"


def event_log_paths(trace_dir: Union[str, Path]) -> List[Path]:
    """Every event-log file in *trace_dir* (main log first, sorted)."""
    root = Path(trace_dir)
    main = root / EVENT_LOG_NAME
    workers = sorted(
        p for p in root.glob("events-*.jsonl") if p.is_file()
    )
    return ([main] if main.is_file() else []) + workers


def read_events(
    source: Union[str, Path], strict: bool = False
) -> List[Dict[str, Any]]:
    """Parse events from a JSONL file or a whole trace directory.

    A torn trailing line (process killed mid-write) is skipped; with
    ``strict=True`` any unparseable line raises instead.  Records are
    returned in file order (main log first), *not* globally
    time-sorted — sort by ``ts_unix`` for a timeline view.
    """
    source = Path(source)
    paths = event_log_paths(source) if source.is_dir() else [source]
    events: List[Dict[str, Any]] = []
    for path in paths:
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    if strict:
                        raise ValueError(
                            f"unparseable event-log line in {path}: {line[:80]!r}"
                        ) from None
                    continue  # torn write from a killed process
                if isinstance(record, dict):
                    events.append(record)
    return events


def tail_events(
    source: Union[str, Path], offset: int = 0
) -> "tuple[List[Dict[str, Any]], int]":
    """Incrementally read new events from a live JSONL log.

    Returns ``(events, new_offset)``: every *complete* record line that
    starts at or after byte *offset*, plus the offset to resume from on
    the next call.  A torn trailing line (writer mid-append) is left in
    place — the offset never advances past it, so the next call re-reads
    it once the newline lands.  An absent file yields ``([], offset)``.

    This is the streaming primitive behind the service layer's
    ``GET /v1/jobs/{id}/events`` endpoint: repeated calls during a run
    see exactly the record sequence a post-hoc :func:`read_events`
    would, in the same order.
    """
    path = Path(source)
    try:
        with path.open("rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return [], offset
    events: List[Dict[str, Any]] = []
    consumed = 0
    cursor = 0
    while True:
        newline = chunk.find(b"\n", cursor)
        if newline < 0:
            break
        line = chunk[cursor:newline].strip()
        cursor = newline + 1
        consumed = cursor
        if not line:
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue  # unparseable complete line: skip, don't re-read
        if isinstance(record, dict):
            events.append(record)
    return events, offset + consumed


def _chrome_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Records → Chrome trace-event objects (plus process metadata)."""
    out: List[Dict[str, Any]] = []
    roles: Dict[int, str] = {}
    for record in events:
        pid = int(record.get("pid", 0))
        attrs = record.get("attrs") or {}
        roles.setdefault(pid, str(attrs.get("role", "process")))
        base = {
            "name": record.get("name", "?"),
            "cat": str(record.get("cat", "run")),
            "pid": pid,
            "tid": int(record.get("tid", 0)),
            "ts": float(record.get("ts_unix", 0.0)) * 1e6,
            "args": dict(attrs, trace_id=record.get("trace_id"),
                         status=record.get("status", "ok")),
        }
        if record.get("type") == "span":
            base["ph"] = "X"
            base["dur"] = float(record.get("dur_s", 0.0)) * 1e6
        else:
            base["ph"] = "i"
            base["s"] = "t"
        out.append(base)
    for pid, role in sorted(roles.items()):
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro-{role} ({pid})"},
            }
        )
    return out


def write_chrome_trace(
    events: List[Dict[str, Any]], path: Union[str, Path]
) -> int:
    """Write *events* as a Chrome/Perfetto trace file; return the count.

    Uses the JSON object form (``{"traceEvents": [...]}``) with
    microsecond timestamps on the shared wall clock, so spans emitted
    by different processes line up on one timeline.
    """
    path = Path(path)
    trace_events = _chrome_events(events)
    trace_events.sort(key=lambda e: e.get("ts", 0.0))
    payload = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"producer": "repro.obs"},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, separators=(",", ":")))
    os.replace(tmp, path)
    return len(trace_events)
