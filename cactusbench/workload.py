"""One benchmark workload, run in one fresh process.

``run.py`` starts this file several times per run.  The process imports
``repro`` from the checkout's ``src/``, sets the workload up, prints
``READY`` (the parent times set-up from process start to that line), and
then, by ``--mode``:

* ``build``   -- import everything and compile the MD pair-count kernel;
* ``measure`` -- run timed iterations for ``--seconds`` (at least one)
  and print one JSON line of raw samples;
* ``trace``   -- the same, then one more iteration with the per-layer
  spans of ``layers.py`` installed.

Set-up is what must happen before the first timed iteration: the
imports and, for a warm workload, one cold run that populates its
cache.  A cold workload gets no warm-up run, so its first timed
iteration costs what ``python -m repro`` costs a user in a fresh
process: lazy imports and first calls included.

Every iteration goes through public entry points only (``run_suite``,
``run_sweep``, ``generate_report``, ``check_observations``,
``analyze_sweep``/``render_sweep_markdown``, ``KernelIndex``), as a
``python -m repro --cache-dir D ...`` process would: each iteration
opens a fresh ``ResultCache`` on its directory.

Output checks.  One operation is one (workload, device)
characterization.  Each is fingerprinted as the sha256 of
``characterization_to_dict`` in canonical JSON.  A ledger under the work
directory, keyed by source hash, preset and seed, keeps the first
fingerprint seen for every operation.  Every later result must equal it:
iterations of one run, warm against cold, runs of other workloads, and
the sweep's RTX 3080 column against the report's Cactus results.  An
operation that is missing or differs counts as failed.  The observation
count and the similarity answers are held to the ledger the same way.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (sibling module; sys.path[0] is this directory)
import repro.analysis.similarity as similarity  # noqa: E402
import repro.analysis.sweep as sweep_analysis  # noqa: E402
import repro.core as core  # noqa: E402
import repro.core.compare as compare  # noqa: E402
import repro.core.report as report  # noqa: E402
import repro.core.serialize as serialize  # noqa: E402
from repro.gpu.device import DEVICE_ZOO, RTX_3080  # noqa: E402
from repro.workloads.registry import list_workloads  # noqa: E402

WORKLOADS = ("report-cold", "report-warm", "sweep-cold", "sweep-warm")
PRESETS = {"observation": core.OBSERVATION_SCALE, "laptop": core.LAPTOP_SCALE}
PRT_SUITES = ("Parboil", "Rodinia", "Tango")
DIGEST_FIXTURE = ROOT / "tests" / "golden" / "fixtures" / "stream_digests.json"
#: ``python -m repro observations`` exits non-zero below this count.
OBSERVATIONS_REQUIRED = 11
KNN_K = 5


@dataclasses.dataclass
class Outcome:
    """What one iteration produced."""

    #: ``ABBR@device`` -> characterization: one entry per operation.
    results: Dict[str, object]
    #: Other outputs that must repeat exactly: name -> value.
    checks: Dict[str, str]
    #: Entries the result cache stored.
    stores: int


def fingerprint(characterization) -> str:
    payload = serialize.characterization_to_dict(characterization)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def footprint(path: Path, skip: str = "") -> Tuple[int, int]:
    """(files, bytes) under *path*, leaving out the top-level *skip* entry."""
    files = size = 0
    top = str(path)
    stack = [top] if path.is_dir() else []
    while stack:
        current = stack.pop()
        for entry in os.scandir(current):
            if entry.is_dir(follow_symlinks=False):
                if not (current == top and entry.name == skip):
                    stack.append(entry.path)
            else:
                files += 1
                size += entry.stat(follow_symlinks=False).st_size
    return files, size


def ledger_path(work_dir: Path, preset, seed: int) -> Path:
    """Per (source, preset, seed) ledger, so it never outlives the code."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    name = f"{digest.hexdigest()[:16]}-{preset.name}-seed{seed}.json"
    return work_dir / "ledger" / name


def load_ledger(path: Path) -> Dict[str, str]:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def save_ledger(path: Path, entries: Dict[str, str]) -> None:
    merged = {**entries, **load_ledger(path)}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(merged, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


class Bench:
    """One workload: set-up, timed iterations and their output checks."""

    def __init__(self, name: str, preset, root: Path) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
        self.kind, temperature = name.split("-")
        self.warm = temperature == "warm"
        self.preset = preset
        self.root = root
        self.warm_dir = root / "warm-cache"
        self.devices = list(DEVICE_ZOO.values())
        cactus = list_workloads("Cactus")
        if self.kind == "report":
            prt = [a for suite in PRT_SUITES for a in list_workloads(suite)]
            self.ops = len(cactus) + len(prt)
        else:
            self.ops = len(cactus) * len(self.devices)
        #: First value seen for every output: op fingerprints and checks.
        self.reference: Dict[str, str] = {}
        self._serial = 0

    # -- one pass of the user's commands ----------------------------------
    def _run(self, cache_dir: Path, journal_dir: Path) -> Outcome:
        cache = core.ResultCache(cache_dir=str(cache_dir))
        common = dict(preset=self.preset, cache=cache, jobs=1, keep_going=True)
        if self.kind == "report":
            cactus = core.run_suite(["Cactus"], device=RTX_3080, **common)
            prt = core.run_suite(list(PRT_SUITES), device=RTX_3080, **common)
            report.generate_report(cactus, prt, cache_stats=cache.stats)
            try:
                passed = compare.check_observations(cactus, prt).passed
            except (KeyError, ValueError):
                passed = 0  # a partial run cannot be judged
            results = {
                f"{abbr}@{RTX_3080.name}": c
                for run in (cactus, prt)
                for abbr, c in run.results.items()
            }
            return Outcome(results, {"observations": str(passed)},
                           cache.stats.stores)
        sweep = core.run_sweep(
            self.devices, journal_dir=str(journal_dir), **common
        )
        sweep_analysis.render_sweep_markdown(
            sweep_analysis.analyze_sweep(sweep.results, sweep.devices)
        )
        results = {
            f"{abbr}@{device}": c
            for abbr, per_device in sweep.results.items()
            for device, c in per_device.items()
        }
        checks = {"similarity": self._similarity(results)} if self.warm else {}
        return Outcome(results, checks, cache.stats.stores)

    @staticmethod
    def _similarity(results) -> str:
        """k-NN over every (device, kernel) profile, one query per RTX 3080
        kernel; returns a fingerprint of the answers."""
        index = similarity.KernelIndex(feature_names=similarity.METRIC_FEATURES)
        queries = []
        for op, characterization in results.items():
            for kernel in characterization.profile.kernels:
                key = f"{op}:{kernel.name}"
                vector = similarity.metric_features(kernel.metrics)
                index.add(key, vector)
                if op.endswith("@" + RTX_3080.name):
                    queries.append((key, vector))
        answers = [
            [(n.key, repr(n.distance)) for n in index.knn(v, KNN_K, exclude=key)]
            for key, v in queries
        ]
        return hashlib.sha256(json.dumps(answers).encode("utf-8")).hexdigest()

    def _fresh_dir(self, prefix: str) -> Path:
        self._serial += 1
        return self.root / f"{prefix}-{self._serial}"

    # -- set-up and iterations -----------------------------------------
    def setup(self) -> Optional[Outcome]:
        """Populate the cache of a warm workload with one cold run.

        Returns that run's outcome, to be checked once set-up time has
        been taken.  A cold workload needs no set-up beyond the imports.
        """
        if not self.warm:
            return None
        journal = self._fresh_dir("journal")
        outcome = self._run(self.warm_dir, journal)
        shutil.rmtree(journal, ignore_errors=True)
        return outcome

    def iteration(self) -> Tuple[float, Outcome, Path]:
        """One timed iteration: (wall seconds, outcome, cache directory).

        Its journal is deleted afterwards, outside the timed region; a
        cold cache directory is deleted by :meth:`release`.
        """
        cache_dir = self.warm_dir if self.warm else self._fresh_dir("cache")
        journal = self._fresh_dir("journal")
        start = time.perf_counter()
        outcome = self._run(cache_dir, journal)
        wall = time.perf_counter() - start
        shutil.rmtree(journal, ignore_errors=True)
        return wall, outcome, cache_dir

    def release(self, cache_dir: Path) -> None:
        if cache_dir != self.warm_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _agrees(self, key: str, value: str) -> bool:
        return self.reference.setdefault(key, value) == value

    def compare_outputs(self, outcome: Outcome) -> Tuple[int, List[str]]:
        """(failed operations, other problems) of one outcome."""
        matched = sum(
            self._agrees(op, fingerprint(c)) for op, c in outcome.results.items()
        )
        problems = [
            f"{name} {value!r} differs from earlier runs' "
            f"{self.reference[name]!r}"
            for name, value in outcome.checks.items()
            if not self._agrees(name, value)
        ]
        passed = outcome.checks.get("observations")
        if (passed is not None and self.preset.name == "observation"
                and int(passed) < OBSERVATIONS_REQUIRED):
            problems.append(
                f"only {passed} observations passed "
                f"(need {OBSERVATIONS_REQUIRED})"
            )
        return self.ops - matched, problems

    def stream_digest_problems(self) -> List[str]:
        """Seed-0 streams must match the pinned golden digests.

        Checked once per checkout and preset; the verdict is kept in the
        ledger.
        """
        if self.preset.seed != 0:
            return []
        if "stream-digests" not in self.reference:
            problems = stream_digest_problems(self.preset)
            self.reference["stream-digests"] = "; ".join(problems) or "ok"
        verdict = self.reference["stream-digests"]
        return [] if verdict == "ok" else [verdict]


def stream_digest_problems(preset) -> List[str]:
    if not DIGEST_FIXTURE.exists():
        print(f"note: {DIGEST_FIXTURE} absent; digest check skipped",
              file=sys.stderr)
        return []
    from repro.gpu.digest import launch_stream_digest
    from repro.profiler.profiler import Profiler
    from repro.workloads.registry import get_workload

    pinned = json.loads(DIGEST_FIXTURE.read_text(encoding="utf-8"))
    pinned = pinned["presets"].get(preset.name, {})
    profiler = Profiler()
    problems = []
    for abbr, entry in pinned.items():
        workload = get_workload(abbr, scale=preset.for_workload(abbr), seed=0)
        stream = profiler.prepare_stream(workload)
        if launch_stream_digest(stream) != entry["digest"]:
            problems.append(f"{abbr} stream digest differs from the fixture")
    return problems


def measure(bench: Bench, seconds: float) -> Dict:
    """Timed iterations until *seconds* have passed (at least one)."""
    walls: List[float] = []
    sizes: List[Tuple[int, int]] = []
    failed = 0
    problems: List[str] = []
    before = footprint(bench.warm_dir)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, outcome, cache_dir = bench.iteration()
        size = footprint(cache_dir)
        bench.release(cache_dir)
        bad, issues = bench.compare_outputs(outcome)
        if bench.warm and (outcome.stores or size != before):
            issues.append(
                f"warm iteration stored {outcome.stores} entries "
                f"(cache {before} -> {size} files, bytes)"
            )
        walls.append(wall)
        sizes.append(size)
        failed += bad
        problems += issues
    return {
        "walls": walls,
        "cache_files": [s[0] for s in sizes],
        "cache_bytes": [s[1] for s in sizes],
        "attempted": bench.ops * len(walls),
        "failed": failed,
        "problems": problems,
    }


def traced_iteration(bench: Bench, untraced_walls: List[float]) -> Dict:
    """One iteration with every span installed: the per-layer metrics.

    ``cache.bytes_written`` is what the iteration added to the result
    cache, leaving out the stream cache under ``streams/``.
    """
    before = footprint(bench.warm_dir, skip="streams")[1]
    trace = layers.LayerTrace()
    with trace:
        wall, outcome, cache_dir = bench.iteration()
    written = footprint(cache_dir, skip="streams")[1]
    if bench.warm:
        written -= before
    bench.release(cache_dir)
    failed, problems = bench.compare_outputs(outcome)
    median = sorted(untraced_walls)[len(untraced_walls) // 2]
    return {
        "layers": trace.metrics(written, wall / median - 1.0),
        "fired": sorted(trace.fired),
        "missing": trace.missing,
        "failed": failed,
        "problems": problems,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("build", "measure", "trace"))
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        default="observation")
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.mode == "build":
        from repro.workloads.molecular import cellkernel

        cellkernel.load_kernel()
        return 0

    preset = dataclasses.replace(PRESETS[args.preset], seed=args.seed)
    root = args.work_dir / f"{args.workload}-{os.getpid()}"
    root.mkdir(parents=True)
    try:
        bench = Bench(args.workload, preset, root)
        populated = bench.setup()
        print("READY", flush=True)

        ledger = ledger_path(args.work_dir, preset, args.seed)
        bench.reference = load_ledger(ledger)
        problems = bench.stream_digest_problems()
        if populated is not None:
            failed, issues = bench.compare_outputs(populated)
            problems += issues
            if failed:
                problems.append(f"{failed} operations of the populating run "
                                f"differ from earlier runs")
        if args.mode == "trace" and not bench.warm:
            # Keep first-call costs out of the traced/untraced comparison.
            bench.release(bench.iteration()[2])
        result = measure(bench, args.seconds)
        problems += result.pop("problems")
        if args.mode == "trace":
            traced = traced_iteration(bench, result["walls"])
            problems += traced.pop("problems")
            result["failed"] += traced.pop("failed")
            result["attempted"] += bench.ops
            result.update(traced)
        save_ledger(ledger, bench.reference)
        result["problems"] = problems
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = rss_kb / 1024.0
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
