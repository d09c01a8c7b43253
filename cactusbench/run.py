"""Benchmark of record for the Cactus reproduction.

Measures what a user of ``python -m repro`` waits for, end to end, on
four workloads (see README.md), and with ``--trace`` where the time
goes, layer by layer.  Run from the repository root:

    python3 cactusbench/run.py --workload report-cold --seed 1
    python3 cactusbench/run.py --workload sweep-warm --trace 1
    python3 cactusbench/run.py --output A.json      # every workload, 3 passes
    python3 cactusbench/run.py --compare A.json B.json

With ``--workload`` it runs one workload and prints, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of BENCHMARK.json, or with ``--trace 1`` the
``per_layer`` ones).  Without it, it runs every workload for
``--passes`` passes, reversing the workload order on alternate passes
because medians drift over minutes on a shared machine.

Load shape: a closed loop with a single generator.  A run starts
``SETUPS`` fresh child processes (``workload.py``) one after another;
each sets up and then measures for its share of ``--seconds``.  This
process waits while a child runs, so at most one core is busy.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Everything a run leaves behind (caches, the compiled MD kernel, the
#: cross-workload fingerprint ledger) stays under this directory.
WORK_DIR = HERE / ".work"
WORKLOADS = ("report-cold", "report-warm", "sweep-cold", "sweep-warm")
#: Set-up samples per run; ``setup_s`` is their median.
SETUPS = 3
#: A run must end within 180 s; children are killed at this deadline.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A run could not produce a result."""


def load_spec() -> Dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        REPRO_CELLKERNEL_DIR=str(WORK_DIR / "cellkernel"),
        TMPDIR=str(WORK_DIR / "tmp"),
    )
    return env


def spawn(mode: str, args: argparse.Namespace, deadline: float,
          workload: str, seconds: float = 0.0) -> Tuple[float, Optional[Dict]]:
    """Run one child to completion: (seconds from start to READY, result)."""
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--mode", mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--preset", args.preset,
        "--work-dir", str(WORK_DIR),
    ]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT)
    )
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    ready = None
    last = ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.monotonic() - start
            elif line.strip():
                last = line
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited {proc.returncode}")
    if mode == "build":
        return 0.0, None
    if ready is None:
        raise BenchError(f"{mode} child for {workload} never became ready")
    return ready, json.loads(last)


def prebuild(args: argparse.Namespace, deadline: float) -> None:
    """Compile the MD pair-count kernel once per checkout, outside set-up."""
    if not glob.glob(str(WORK_DIR / "cellkernel" / "*.so")):
        spawn("build", args, deadline, WORKLOADS[0])


def run_workload(workload: str, args: argparse.Namespace, spec: Dict,
                 trace: bool) -> Dict:
    """One run of one workload: the contract's result object, plus detail."""
    deadline = time.monotonic() + DEADLINE_S
    prebuild(args, deadline)
    if trace:
        _, raw = spawn("trace", args, deadline, workload, args.seconds)
        values = raw["layers"]
        declared = spec["per_layer"]
    else:
        setups = []
        children = []
        for _ in range(SETUPS):
            ready, child = spawn("measure", args, deadline, workload,
                                 args.seconds / SETUPS)
            setups.append(ready)
            children.append(child)
        raw = {"walls": [], "cache_files": [], "cache_bytes": [],
               "problems": [], "attempted": 0, "failed": 0}
        for child in children:
            for key in raw:
                raw[key] += child[key]
        values = {
            # The host's slow phases only ever add time, so the fastest
            # iteration tracks the code's own cost; medians of this few
            # samples spread past the bound on a shared VM.
            "wall_s": min(raw["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "cache_mb": statistics.median(raw["cache_bytes"]) / 1e6,
            "cache_files": statistics.median(raw["cache_files"]),
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    for problem in raw["problems"]:
        print(f"[{workload}] check failed: {problem}", file=sys.stderr)
    return {
        "correct": not raw["problems"] and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "walls": raw["walls"],
        "unfired": raw.get("missing", []),
        "fired": raw.get("fired", []),
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def print_metrics(workload: str, result: Dict) -> None:
    for name, metric in result["metrics"].items():
        line = f"{workload:<12} {name:<30} {metric['value']:>14.6g} {metric['unit']}"
        if name == "wall_s":
            q1, _, q3 = quartiles(result["walls"])
            line += f"  (q1 {q1:.4g}, q3 {q3:.4g}, n={len(result['walls'])})"
        print(line)
    if result["unfired"]:
        print(f"{workload:<12} unfired spans (target missing): "
              f"{', '.join(result['unfired'])}")


def run_all(args: argparse.Namespace, spec: Dict) -> int:
    """Every workload, ``--passes`` passes, order reversed on odd passes,
    then with ``--trace`` one traced pass."""
    record: Dict = {
        "seed": args.seed, "preset": args.preset, "seconds": args.seconds,
        "workloads": {w: {"end_to_end": {}, "attempted": 0, "failed": 0}
                      for w in WORKLOADS},
    }
    runs = [(w, False) for index in range(args.passes)
            for w in (WORKLOADS if index % 2 == 0 else WORKLOADS[::-1])]
    if args.trace:
        runs += [(w, True) for w in WORKLOADS]
    ok = True
    for workload, trace in runs:
        result = run_workload(workload, args, spec, trace)
        print_metrics(workload, result)
        entry = record["workloads"][workload]
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        ok &= result["correct"]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        if trace:
            entry.update(per_layer=values, fired=result["fired"],
                         unfired=result["unfired"])
        else:
            for name, value in values.items():
                entry["end_to_end"].setdefault(name, []).append(value)
    print()
    print("median over passes [q1, q3] of each end-to-end metric:")
    for workload, entry in record["workloads"].items():
        for name, values in entry["end_to_end"].items():
            q1, med, q3 = quartiles(values)
            print(f"{workload:<12} {name:<14} {med:>12.6g} "
                  f"[{q1:.6g}, {q3:.6g}] n={len(values)}")
        print(f"{workload:<12} failed {entry['failed']} of "
              f"{entry['attempted']} operations")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    return 0 if ok else 1


def verdict(before: List[float], after: List[float], bound: float,
            better: str) -> str:
    """improved / unchanged / worse / unresolved for one metric."""
    b1, b_med, b3 = quartiles(before)
    a1, a_med, a3 = quartiles(after)
    if any(med and (q3 - q1) / abs(med) > bound
           for q1, med, q3 in ((b1, b_med, b3), (a1, a_med, a3))):
        return "unresolved"
    if b_med == 0:
        return "unchanged" if a_med == 0 else "worse"
    change = (a_med - b_med) / abs(b_med)
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str, spec: Dict) -> int:
    """Judge B against A, every (metric, workload) pair on its own."""
    with open(path_a, encoding="utf-8") as handle:
        before = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        after = json.load(handle)["workloads"]
    worse = 0
    for metric in spec["end_to_end"]:
        for workload in WORKLOADS:
            a = before.get(workload, {}).get("end_to_end", {}).get(metric["name"])
            b = after.get(workload, {}).get("end_to_end", {}).get(metric["name"])
            if not a or not b:
                result = "unresolved"
                line = "(missing on one side)"
            else:
                result = verdict(a, b, metric["bound"], metric["better"])
                line = (f"{statistics.median(a):.6g} -> "
                        f"{statistics.median(b):.6g} {metric['unit']}")
            worse += result == "worse"
            print(f"{metric['name']:<14} {workload:<12} {result:<10} {line} "
                  f"(bound {metric['bound']:.0%})")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cactus benchmark of record (see cactusbench/README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--preset", choices=("observation", "laptop"),
                        default="observation")
    parser.add_argument("--passes", type=int, default=3,
                        help="passes over every workload (without --workload)")
    parser.add_argument("--output", help="write every value as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge B against A with the bounds of BENCHMARK.json")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.workload is None:
            return run_all(args, spec)
        result = run_workload(args.workload, args, spec, trace=bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"cactusbench: error: {exc}", file=sys.stderr)
        return 2
    print_metrics(args.workload, result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
