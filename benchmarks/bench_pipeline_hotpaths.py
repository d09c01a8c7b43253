"""Hot-path regression gate: the engine's run profile against a baseline.

The script keeps no stopwatch of its own.  Each pass makes two runs at
one preset, both serial (``jobs=1``) and without a result cache, and
reads every timing from the run's own profile
(``report.run_profile.workload_phases()``, the per-workload totals of
the engine's ``stream-gen``/``simulate``/``analyze`` spans):

* ``run_suite(["Cactus"])`` gives each ``<ABBR>`` row: ``stream_s``,
  ``simulate_s`` and ``analyze_s``, and their sum as ``total_s``;
* ``run_sweep(DEVICE_ZOO)`` gives each ``SWEEP-<ABBR>`` row: the
  workload's ``simulate`` phase over the eight zoo devices, i.e. one
  :func:`repro.gpu.batched.simulate_devices` call, as ``total_s``.

Every field of a row is the median of ``PASSES`` passes; the median
also absorbs the first pass's one-off native-kernel build.  With
``--check BASELINE`` the script fails (exit code 1) when a row, or the
combined total over the rows both reports share, is more than
``TOLERANCE`` times its baseline *and* more than ``MIN_SECONDS`` above
it.  The double threshold keeps a shared machine's noise from gating:
sub-100 ms rows swing far more than 1.5x for free.

The CI job::

    PYTHONPATH=src python benchmarks/bench_pipeline_hotpaths.py \
        --preset observation --check benchmarks/BENCH_baseline.json \
        --output BENCH_pipeline.json

Re-baselining: when a change legitimately moves the numbers, rerun on a
quiet machine at the committed revision and review the diff like code::

    PYTHONPATH=src python benchmarks/bench_pipeline_hotpaths.py \
        --preset observation --output benchmarks/BENCH_baseline.json

The gate's rule is unit-tested here (no runs, no timing)::

    python -m pytest -q benchmarks/bench_pipeline_hotpaths.py

Stream digests are checked by the golden suite
(``tests/golden/test_digest_coverage.py``), not here.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = Path(__file__).parent / "output" / "BENCH_pipeline.json"

#: Passes per run of the script; every row is their median.
PASSES = 5
#: A value regresses when it exceeds its baseline by this ratio ...
TOLERANCE = 1.5
#: ... and by this many seconds.
MIN_SECONDS = 0.1

_PRESETS = ("laptop", "observation", "paper")
_PHASES = {"stream_s": "stream-gen", "simulate_s": "simulate", "analyze_s": "analyze"}


def one_pass(preset_name: str) -> Dict[str, Dict[str, float]]:
    """One suite run and one zoo sweep, as rows read from their profiles."""
    from repro.core import LAPTOP_SCALE, OBSERVATION_SCALE, PAPER_SCALE
    from repro.core import run_suite, run_sweep
    from repro.gpu import DEVICE_ZOO

    preset = next(
        p for p in (LAPTOP_SCALE, OBSERVATION_SCALE, PAPER_SCALE)
        if p.name == preset_name
    )
    suite = run_suite(["Cactus"], preset=preset, jobs=1)
    sweep = run_sweep(list(DEVICE_ZOO.values()), preset=preset, jobs=1)
    # Index, never default: a renamed span must fail here, not read 0.
    rows: Dict[str, Dict[str, float]] = {}
    for abbr, phases in suite.run_profile.workload_phases().items():
        row = {field: phases[phase] for field, phase in _PHASES.items()}
        row["total_s"] = sum(row.values())
        rows[abbr] = row
    for abbr, phases in sweep.run_profile.workload_phases().items():
        rows[f"SWEEP-{abbr}"] = {"total_s": phases["simulate"]}
    return rows


def _commit() -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return result.stdout.strip() or None


def run_benchmark(preset_name: str) -> Dict:
    """``PASSES`` passes at *preset_name*, each row field their median."""
    import numpy as np

    runs = [one_pass(preset_name) for _ in range(PASSES)]
    workloads = {
        key: {
            field: statistics.median(run[key][field] for run in runs)
            for field in runs[0][key]
        }
        for key in runs[0]
    }
    return {
        "schema": 2,
        "preset": preset_name,
        "passes": PASSES,
        "commit": _commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "host": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workloads": workloads,
    }


# -- the gate -----------------------------------------------------------
def trip_point(base_s: float) -> float:
    """The value above which a row with baseline *base_s* regresses."""
    return max(base_s * TOLERANCE, base_s + MIN_SECONDS)


def schema_problem(entry) -> Optional[str]:
    """Why *entry* cannot be timing-compared, or None if it can.

    The gate only ever reads ``total_s``, so that is the schema: a
    finite, non-negative number.  Entries violating it (null
    placeholders, strings, missing keys from hand-edited baselines) are
    skipped *explicitly* — reported, never silently compared as 0.
    """
    if not isinstance(entry, dict):
        return f"entry is {type(entry).__name__}, not an object"
    total = entry.get("total_s")
    if isinstance(total, bool) or not isinstance(total, (int, float)):
        return f"total_s is {total!r}, not a number"
    if not math.isfinite(total) or total < 0:
        return f"total_s is {total!r}, not finite and >= 0"
    return None


def compare(
    baseline: Dict,
    fresh: Dict,
    skipped: Optional[List[str]] = None,
) -> List[str]:
    """Regression messages (empty list = gate passes).

    A timing regresses when it is above :func:`trip_point`, i.e. when
    ``fresh > baseline * TOLERANCE`` AND ``fresh > baseline +
    MIN_SECONDS``; everything else — speedups,
    small absolute drifts, rows absent from either side — is
    informational only.  Entries failing :func:`schema_problem` on
    either side are excluded from the comparison and appended to
    *skipped* (when given) as ``"<key>: <reason>"`` strings.
    """
    if baseline.get("preset") != fresh.get("preset"):
        return [
            f"preset mismatch: baseline is {baseline.get('preset')!r}, "
            f"fresh run is {fresh.get('preset')!r} — regenerate the "
            f"baseline (see module docstring)"
        ]

    regressions: List[str] = []

    def check(label: str, base_s: float, fresh_s: float) -> None:
        if fresh_s > trip_point(base_s):
            regressions.append(
                f"{label}: {fresh_s:.3f}s vs baseline {base_s:.3f}s "
                f"({fresh_s / base_s:.2f}x, tolerance {TOLERANCE:.2f}x)"
            )

    base_workloads = baseline.get("workloads", {})
    fresh_workloads = fresh.get("workloads", {})
    shared_base = shared_fresh = 0.0
    for abbr, entry in fresh_workloads.items():
        reference = base_workloads.get(abbr)
        if reference is None:
            continue  # new row: informational, never gating
        problem = schema_problem(entry)
        if problem is None:
            base_problem = schema_problem(reference)
            problem = f"baseline {base_problem}" if base_problem else None
        if problem is not None:
            if skipped is not None:
                skipped.append(f"{abbr}: {problem}")
            continue
        check(f"{abbr} total", reference["total_s"], entry["total_s"])
        shared_base += float(reference["total_s"])
        shared_fresh += float(entry["total_s"])

    # Combined total over the *shared* rows only, so adding or removing
    # a workload never masquerades as a timing change.
    check("combined total (shared rows)", shared_base, shared_fresh)
    return regressions


def check_against(baseline_path: Path, report: Dict) -> int:
    """Print *report* against the baseline and return the exit code."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_workloads = baseline.get("workloads", {})
    for key, entry in report["workloads"].items():
        reference = base_workloads.get(key)
        if reference is None or schema_problem(reference):
            continue
        base_s = reference["total_s"]
        print(
            f"{key:<10} baseline {base_s:7.3f}s  fresh {entry['total_s']:7.3f}s"
            f"  trips above {trip_point(base_s):7.3f}s"
        )
    skipped: List[str] = []
    regressions = compare(baseline, report, skipped=skipped)
    for message in skipped:
        print(f"skipped (schema): {message}")
    if regressions:
        print("\nFAIL: gross benchmark regressions:", file=sys.stderr)
        for message in regressions:
            print(f"  {message}", file=sys.stderr)
        print(
            "\nIf this slowdown is expected, re-baseline (see the "
            "docstring of benchmarks/bench_pipeline_hotpaths.py).",
            file=sys.stderr,
        )
        return 1
    print(f"\nbenchmark gate passed against {baseline_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--preset", choices=_PRESETS, default="observation",
        help="scale preset to benchmark at (default: observation)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"where to write the report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check", type=Path, metavar="BASELINE", default=None,
        help="fail on a gross slowdown against this baseline report",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.preset)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    workloads = report["workloads"]
    for abbr, row in workloads.items():
        if abbr.startswith("SWEEP-"):
            continue
        print(
            f"{abbr:<4}  stream {row['stream_s']:7.3f}s  "
            f"simulate {row['simulate_s']:7.3f}s  "
            f"analyze {row['analyze_s']:7.3f}s  "
            f"total {row['total_s']:7.3f}s  "
            f"8-device sweep {workloads['SWEEP-' + abbr]['total_s']:7.3f}s"
        )
    combined = sum(row["total_s"] for row in workloads.values())
    print(
        f"combined: {combined:.3f}s ({args.preset} preset, median of "
        f"{report['passes']} passes) -> {args.output}\n"
    )
    if args.check is None:
        return 0
    return check_against(args.check, report)


# -- pytest coverage of the gate rule (no runs, no timing) ---------------
def _report(preset: str, totals: Dict[str, float]) -> Dict:
    return {
        "preset": preset,
        "workloads": {
            abbr: {"total_s": seconds} for abbr, seconds in totals.items()
        },
    }


def test_within_tolerance_passes():
    baseline = _report("observation", {"GMS": 1.0, "GST": 0.5})
    fresh = _report("observation", {"GMS": 1.4, "GST": 0.7})
    assert compare(baseline, fresh) == []


def test_gross_slowdown_fails():
    baseline = _report("observation", {"GMS": 1.0})
    fresh = _report("observation", {"GMS": 1.8})
    messages = compare(baseline, fresh)
    assert len(messages) == 2  # the workload and the combined total
    assert "GMS total" in messages[0]


def test_tiny_absolute_slowdowns_never_gate():
    # 10x slower but only 9ms absolute: below the floor, not a failure.
    baseline = _report("observation", {"GRU": 0.001})
    fresh = _report("observation", {"GRU": 0.010})
    assert compare(baseline, fresh) == []


def test_speedups_and_new_workloads_pass():
    baseline = _report("observation", {"GMS": 2.0})
    fresh = _report("observation", {"GMS": 0.5, "NEW": 9.9})
    assert compare(baseline, fresh) == []


def test_preset_mismatch_fails():
    baseline = _report("observation", {"GMS": 1.0})
    fresh = _report("laptop", {"GMS": 1.0})
    messages = compare(baseline, fresh)
    assert len(messages) == 1 and "preset mismatch" in messages[0]


def test_schema_invalid_entries_skip_explicitly():
    baseline = _report("observation", {"GMS": 1.0, "GST": 0.5})
    fresh = _report("observation", {"GMS": 1.0, "GST": 0.5})
    # A null placeholder, a string, a NaN, and a missing total_s must
    # each be skipped with a reason — not compared, not crash the gate.
    baseline["workloads"]["SWEEP-A"] = {"total_s": None}
    fresh["workloads"]["SWEEP-A"] = {"total_s": 0.1}
    baseline["workloads"]["SWEEP-B"] = {"total_s": 0.1}
    fresh["workloads"]["SWEEP-B"] = {"total_s": "fast"}
    baseline["workloads"]["SWEEP-C"] = {"total_s": 0.1}
    fresh["workloads"]["SWEEP-C"] = {"total_s": float("nan")}
    baseline["workloads"]["SWEEP-D"] = {"launches": 10}
    fresh["workloads"]["SWEEP-D"] = {"total_s": 99.0}
    skipped: List[str] = []
    assert compare(baseline, fresh, skipped=skipped) == []
    assert sorted(m.split(":")[0] for m in skipped) == [
        "SWEEP-A", "SWEEP-B", "SWEEP-C", "SWEEP-D",
    ]


def test_schema_problem_reasons():
    assert schema_problem({"total_s": 0.5}) is None
    assert schema_problem({"total_s": 0}) is None
    assert "not a number" in schema_problem({"total_s": None})
    assert "not a number" in schema_problem({"total_s": True})
    assert "not a number" in schema_problem({})
    assert "not finite" in schema_problem({"total_s": float("inf")})
    assert "not finite" in schema_problem({"total_s": -1.0})
    assert "not an object" in schema_problem([1, 2])


if __name__ == "__main__":
    raise SystemExit(main())
