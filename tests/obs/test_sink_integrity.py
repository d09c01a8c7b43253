"""Event-log integrity under a hard kill.

The JSONL sink's contract is that a run killed at any moment leaves a
valid parseable prefix: every line flushed before the kill is complete
JSON, and at most the final line is torn.  This test makes that real:
a child process runs a traced suite run whose last workload *hangs*
(via the fault-injection harness), the parent SIGTERMs it mid-run, and
the log left behind must parse strictly line by line.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: Child body: trace a three-workload serial run whose final workload
#: (GRU, last in registration order) hangs forever, so SIGTERM always
#: lands while the run is alive and the log is mid-stream.
CHILD_SCRIPT = """
import sys
from repro.core import LAPTOP_SCALE, run_suite
from tests.faults import FaultPlan

run_suite(
    ["Cactus"],
    preset=LAPTOP_SCALE,
    workloads=["GMS", "GST", "GRU"],
    trace_dir=sys.argv[1],
    fault_plan=FaultPlan.single("GRU", "hang", hang_s=600.0),
    keep_going=True,
)
"""

POLL_S = 0.05
DEADLINE_S = 240.0


def _wait_for_marker(path: Path, deadline: float) -> bool:
    """Wait until the log records GST's finished attempt span."""
    while time.monotonic() < deadline:
        if path.is_file():
            text = path.read_text(encoding="utf-8", errors="replace")
            # Both on one line: GST's own phase spans (stream-gen, ...)
            # land before its attempt span does.
            if any(
                '"name":"attempt"' in line and '"workload":"GST"' in line
                for line in text.splitlines()
            ):
                return True
        time.sleep(POLL_S)
    return False


@pytest.mark.slow
def test_sigterm_leaves_parseable_event_log(tmp_path):
    trace_dir = tmp_path / "trace"
    env = dict(os.environ)
    # src/ for repro, the repo root for the tests' fault harness.
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(trace_dir)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        log = trace_dir / "events.jsonl"
        deadline = time.monotonic() + DEADLINE_S
        saw_progress = _wait_for_marker(log, deadline)
        assert saw_progress, "child never logged GST's attempt span"
        assert proc.poll() is None, "child finished before the kill"
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        assert rc != 0, "SIGTERM'd child exited 0"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)

    # Every line except (at most) the torn final one parses strictly.
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 2
    records = []
    for index, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except ValueError:
            assert index == len(lines) - 1, (
                f"unparseable line {index} is not the final line"
            )
    # The prefix is semantically whole: finished spans for the first
    # two workloads are present, and every record is schema-complete.
    span_keys = {"type", "name", "trace_id", "span_id", "pid", "ts_unix"}
    for record in records:
        assert span_keys <= set(record)
    finished = {
        r["attrs"]["workload"]
        for r in records
        if r["type"] == "span" and r["name"] == "attempt"
    }
    assert {"GMS", "GST"} <= finished
    assert "GRU" not in finished  # it was hung when the kill landed
