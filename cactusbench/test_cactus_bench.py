"""Tests of the benchmark itself, at the laptop preset (about a minute).

    python -m pytest cactusbench/test_cactus_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))


def bench(*argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--preset", "laptop", *argv],
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def traced_pass(tmp_path_factory):
    """One traced iteration of every workload."""
    output = tmp_path_factory.mktemp("cactusbench") / "record.json"
    stdout = bench("--passes", "0", "--seconds", "0", "--trace",
                   "--output", str(output))
    return json.loads(output.read_text(encoding="utf-8")), stdout


def test_result_line_carries_every_end_to_end_metric():
    stdout = bench("--workload", "report-cold", "--seconds", "0")
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    printed = {line.split()[1] for line in stdout.splitlines()[:-1]}
    assert printed == set(result["metrics"])


def test_traced_pass_prints_every_per_layer_metric(traced_pass):
    record, stdout = traced_pass
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    printed = {
        line.split()[1] for line in stdout.splitlines()
        if line.split() and line.split()[0] in run.WORKLOADS
    }
    assert per_layer <= printed
    for entry in record["workloads"].values():
        assert set(entry["per_layer"]) == per_layer
        assert entry["failed"] == 0


def test_every_declared_span_fires(traced_pass):
    record, _ = traced_pass
    fired = set()
    for entry in record["workloads"].values():
        assert entry["unfired"] == []
        fired |= set(entry["fired"])
    assert fired == set(layers.span_targets())


def test_corrupt_result_counts_as_failed(tmp_path, monkeypatch):
    """A cache entry corrupted at rest still parses, so the program
    serves it; the output check must count that operation as failed."""
    monkeypatch.setenv("REPRO_CELLKERNEL_DIR", str(run.WORK_DIR / "cellkernel"))
    preset = dataclasses.replace(workload.PRESETS["laptop"], seed=3)
    warm = workload.Bench("report-warm", preset, tmp_path)
    assert warm.compare_outputs(warm.setup()) == (0, [])
    corrupted = 0
    for path in sorted(warm.warm_dir.rglob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("abbr") == "GMS" and "table1" in payload:
            payload["table1"]["kernels_100"] += 1
            path.write_text(json.dumps(payload), encoding="utf-8")
            corrupted += 1
    assert corrupted == 1
    result = workload.measure(warm, seconds=0)
    assert result["attempted"] == warm.ops
    assert result["failed"] == 1


def test_compare_verdicts():
    assert run.verdict([1.0, 1.0], [1.3, 1.3], 0.1, "lower") == "worse"
    assert run.verdict([1.0, 1.0], [0.7, 0.7], 0.1, "lower") == "improved"
    assert run.verdict([1.0, 1.0], [1.05, 1.05], 0.1, "lower") == "unchanged"
    assert run.verdict([1.0, 1.0], [0.7, 0.7], 0.1, "higher") == "worse"
    assert run.verdict([1.0, 2.0, 1.0, 2.0], [1.0, 1.0], 0.1, "lower") == "unresolved"
