#!/usr/bin/env python3
"""Kill-and-resume smoke: SIGTERM a live run, then resume it.

Not a pytest module (the filename keeps it out of collection) — this is
an end-to-end process-level check used by the CI ``robustness`` job.
For each case — ``table1`` (a suite run), ``sweep`` (a two-device
sweep; both share one journal format), ``sweep-cached`` (the same
sweep over a shared disk cache, the shape service jobs run in),
``table1-pool`` (the suite run on a two-worker process pool; serial
and pooled runs share one attempt loop) and ``observations`` (two runs
on one journal directory, Cactus then PRT):

1. launch ``python -m repro`` with a journal dir and no cache (or, for
   ``sweep-cached``, a fresh ``--cache-dir``),
2. poll the journal's progress (``RunJournal.peek``) and SIGTERM the
   process once at least two workloads of its last run have been
   checkpointed (for
   ``observations``: once the Cactus run is complete and the PRT run is
   under way), and require that no process of its group (pool workers
   included) is alive 5 s after it exits,
3. rerun the identical command and assert it resumes, skipping every
   checkpointed workload (for ``observations``: every Cactus workload),
   and completes with exit code 0, with the results kept in the cache —
   the journal's private ``results/`` cache without a cache dir, the
   shared one with it — and no ``done/`` markers written.

Usage: ``kill_resume_smoke.py [table1] [sweep] [sweep-cached]
[table1-pool] [observations]`` (default: all five).
Exit code 0 = smoke passed.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.core.journal import RunJournal  # noqa: E402
from repro.workloads import list_workloads  # noqa: E402

KILL_AFTER_CHECKPOINTS = 2
POLL_S = 0.05
#: PRT workloads take milliseconds each: watch the journal often enough
#: to land the kill inside the PRT run.
JOURNAL_POLL_S = 0.002
DEADLINE_S = 300.0
#: How long after a SIGTERM'd run exits its process group must be empty.
OUTLIVE_S = 5.0


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # Pin the run shape: journaled, no jobs, cache dir or retries from
    # the environment (each case picks its own cache and jobs flags).
    for name in ("REPRO_JOBS", "REPRO_RETRIES", "REPRO_TIMEOUT",
                 "REPRO_CACHE_DIR", "REPRO_JOURNAL_DIR"):
        env.pop(name, None)
    return env


SWEEP = ["sweep", "--devices", "RTX 3080,V100"]
CACTUS = ["Cactus"]
PRT = ["Parboil", "Rodinia", "Tango"]

#: Whether each case runs over a shared disk cache, its global flags
#: plus subcommand, and the suites of each of its runs, in run order.
#: The observation preset makes ``observations`` exit 0.
CASES = {
    "table1": (False, ["table1"], [CACTUS]),
    "sweep": (False, SWEEP, [CACTUS]),
    "sweep-cached": (True, SWEEP, [CACTUS]),
    "table1-pool": (False, ["--jobs", "2", "table1"], [CACTUS]),
    "observations": (
        False, ["--preset", "observation", "observations"], [CACTUS, PRT],
    ),
}


def _command(work_dir, case):
    cached, subcommand, _ = CASES[case]
    cache = ["--cache-dir", str(work_dir / "cache")] if cached else ["--no-cache"]
    return [
        sys.executable, "-m", "repro",
        *cache, "--journal-dir", str(work_dir / "journal"),
        *subcommand,
    ]


def _cache_problems(work_dir, case):
    """Results must live in one cache, and the journal keeps no markers."""
    cached = CASES[case][0]
    results = work_dir / ("cache" if cached else "journal/results")
    problems = []
    if not any(results.glob("v*/*/*.json")):
        problems.append(f"no cache entries under {results}")
    if cached and (work_dir / "journal" / "results").exists():
        problems.append("journal kept private results beside --cache-dir")
    if (work_dir / "journal" / "done").exists():
        problems.append("journal wrote a done/ marker directory")
    return problems


def _group_members(pgid):
    """Live (non-zombie) PIDs in process group *pgid*, read from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def _outliving(pgid):
    """Members of *pgid* still alive ``OUTLIVE_S`` after its leader exited."""
    deadline = time.monotonic() + OUTLIVE_S
    while True:
        members = _group_members(pgid)
        if not members or time.monotonic() >= deadline:
            return members
        time.sleep(POLL_S)


def _checkpointed(journal_dir, runs):
    """Workloads of *runs* (one set per run, in order) known complete.

    ``run.json`` holds the progress of the latest run only; every run
    before the one it names has completed.
    """
    progress = RunJournal.peek(journal_dir)
    selected = set(progress["selected"])
    for index, run in enumerate(runs):
        if run == selected:
            return set().union(*runs[:index], progress["done"])
    return set()


def _workloads(suites):
    return {abbr for suite in suites for abbr in list_workloads(suite)}


def _resumed(stderr):
    """Workloads the ``[journal] resumed, skipping ...`` lines name."""
    return {
        abbr.strip()
        for line in stderr.splitlines()
        if line.startswith("[journal] resumed")
        for abbr in line.split(": ", 1)[1].split(",")
    }


def smoke(case):
    """One SIGTERM-then-resume cycle for *case*; returns an exit code."""
    print(f"[{case}]")
    runs = [_workloads(suites) for suites in CASES[case][2]]
    earlier, last = set().union(*runs[:-1]), runs[-1]
    expected = earlier | last
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as work:
        work_dir = Path(work)
        journal_dir = work_dir / "journal"
        # -- phase 1: start and kill mid-run ---------------------------
        proc = subprocess.Popen(
            _command(work_dir, case), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = time.monotonic() + DEADLINE_S
        killed_at = None
        while proc.poll() is None and time.monotonic() < deadline:
            done = _checkpointed(journal_dir, runs)
            if len(done & last) >= KILL_AFTER_CHECKPOINTS:
                killed_at = done
                try:
                    proc.send_signal(signal.SIGTERM)
                except ProcessLookupError:
                    pass
                break
            time.sleep(JOURNAL_POLL_S)
        rc = proc.wait(timeout=60)
        # SIGTERM unwinds the run, which terminates its pool workers:
        # none may outlive it.  The group is reaped either way.
        leftover = _outliving(proc.pid)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if leftover:
            print(
                f"FAIL: process(es) {leftover} of the SIGTERM'd run still "
                f"alive {OUTLIVE_S:.0f}s after it exited", file=sys.stderr,
            )
            return 1

        if killed_at is None:
            print(
                f"FAIL: run finished (rc={rc}) before "
                f"{KILL_AFTER_CHECKPOINTS} journal checkpoints appeared — "
                f"nothing was interrupted", file=sys.stderr,
            )
            return 1
        if rc == 0:
            print("FAIL: SIGTERM'd run still exited 0", file=sys.stderr)
            return 1
        survivors = _checkpointed(journal_dir, runs)
        print(
            f"killed run (rc={rc}) with {len(survivors)} checkpointed "
            f"workload(s): {', '.join(sorted(survivors))}"
        )
        if survivors >= expected:
            print("FAIL: every workload already checkpointed — the kill "
                  "landed too late to exercise resumption", file=sys.stderr)
            return 1
        if not survivors >= earlier:
            print("FAIL: the earlier runs' checkpoints are missing "
                  f"(killed too early, or wiped): {sorted(earlier - survivors)}",
                  file=sys.stderr)
            return 1

        # -- phase 2: resume -------------------------------------------
        result = subprocess.run(
            _command(work_dir, case), env=_env(),
            capture_output=True, text=True, timeout=DEADLINE_S,
        )
        if result.returncode != 0:
            print(f"FAIL: resumed run exited {result.returncode}\n"
                  f"{result.stderr}", file=sys.stderr)
            return 1
        if not _resumed(result.stderr) >= survivors:
            print("FAIL: resumed run did not skip every checkpointed "
                  f"workload\n{result.stderr}", file=sys.stderr)
            return 1
        final = _checkpointed(journal_dir, runs)
        if final != expected:
            print(f"FAIL: final journal covers {sorted(final)}, "
                  f"expected {sorted(expected)}", file=sys.stderr)
            return 1
        missing = survivors - final
        if missing:
            print(f"FAIL: checkpointed workloads vanished: {missing}",
                  file=sys.stderr)
            return 1
        problems = _cache_problems(work_dir, case)
        if problems:
            print("FAIL: " + "; ".join(problems), file=sys.stderr)
            return 1
        print(
            f"resumed run skipped {len(survivors)} checkpointed "
            f"workload(s) and completed the remaining "
            f"{len(expected) - len(survivors)} — smoke passed"
        )
        return 0


def main(argv):
    for case in argv or list(CASES):
        rc = smoke(case)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
