"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    List registered workloads per suite.
``characterize ABBR``
    Full Section-V treatment for one workload.
``table1``
    The Cactus Table-I statistics.
``observations``
    Run both suites and print the Observation 1-12 scoreboard.
``report``
    Full Markdown characterization report (optionally to a file).
``sweep``
    Characterize a suite across a list of devices (one stream per
    workload, batched device-axis simulation) and print the
    cross-device differential: roofline elbows, classification flips,
    dominant-kernel shifts.
``trace ABBR PATH``
    Export a workload's kernel launch stream as a JSONL trace.
``cache``
    Inspect the persistent result cache: entry counts, version
    directory, source fingerprint, and optional pruning of stale trees.
``similar``
    Build a kernel-similarity index over a suite run and answer
    nearest-neighbour or representative-subset queries.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys
from typing import Optional, Sequence

from repro.core import (
    LAPTOP_SCALE,
    OBSERVATION_SCALE,
    PAPER_SCALE,
    ResultCache,
    RetryPolicy,
    SuiteRunError,
    characterize,
    check_observations,
    run_suite,
    run_sweep,
)
from repro.core import resilience
from repro.core.engine import _resolve_jobs
from repro.gpu.device import DEVICE_ZOO, device_by_name
from repro.gpu.digest import source_fingerprint
from repro.core.report import generate_report, render_run_profile
from repro.workloads import get_workload, list_workloads

_PRESETS = {
    "laptop": LAPTOP_SCALE,
    "observation": OBSERVATION_SCALE,
    "paper": PAPER_SCALE,
}

#: Sanity ceilings for CLI numeric flags — generous enough for any real
#: machine, tight enough to reject typos ("--jobs 10000000").
_MAX_JOBS = 1024
_MAX_RETRIES = 100
_MAX_TIMEOUT_S = 7 * 24 * 3600.0


def _jobs_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer worker count, got {text!r}"
        ) from None
    if abs(value) > _MAX_JOBS:
        raise argparse.ArgumentTypeError(
            f"worker count out of range (|N| <= {_MAX_JOBS}), got {value}"
        )
    return value


def _retries_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer retry count, got {text!r}"
        ) from None
    if value < 0 or value > _MAX_RETRIES:
        raise argparse.ArgumentTypeError(
            f"retry count must be in [0, {_MAX_RETRIES}], got {value}"
        )
    return value


def _timeout_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}"
        ) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"timeout must be finite, got {text!r}"
        )
    if value <= 0 or value > _MAX_TIMEOUT_S:
        raise argparse.ArgumentTypeError(
            f"timeout must be in (0, {_MAX_TIMEOUT_S:.0f}] seconds, "
            f"got {value}"
        )
    return value


def _env_default(name: str, convert):
    """Validated default from an environment variable (None if unset).

    Environment values pass through the same validators as flags so a
    bad ``REPRO_*`` value fails at parse time with a clear message
    instead of deep inside a suite run.
    """
    raw = os.environ.get(name)
    if raw in (None, ""):
        return None
    try:
        return convert(raw)
    except argparse.ArgumentTypeError as exc:
        raise SystemExit(f"repro: error: {name}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cactus (IISWC 2021) reproduction pipeline",
        epilog=(
            "Environment: REPRO_CACHE_DIR, REPRO_JOBS, REPRO_RETRIES, "
            "REPRO_TIMEOUT, REPRO_JOURNAL_DIR and REPRO_TRACE_DIR "
            "provide defaults for the matching flags; an explicit flag "
            "always overrides its environment variable. "
            "Failure semantics: suite commands "
            "keep going past failed workloads by default (failures are "
            "listed on stderr, aggregates cover the survivors, exit "
            "code 0); --strict makes any workload failure abort with a "
            "non-zero exit code."
        ),
    )
    parser.add_argument(
        "--preset",
        choices=sorted(_PRESETS),
        default="laptop",
        help="scale preset for suite-level commands (default: laptop)",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=_env_default("REPRO_JOBS", _jobs_arg),
        metavar="N",
        help="characterize N workloads in parallel for suite-level "
        "commands (negative: one worker per CPU; default: "
        "$REPRO_JOBS, else serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR") or None,
        metavar="PATH",
        help="persist characterization results under PATH and reuse "
        "them across runs (default: $REPRO_CACHE_DIR, else no cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run uncached even when --cache-dir or $REPRO_CACHE_DIR "
        "is set",
    )
    parser.add_argument(
        "--retries",
        type=_retries_arg,
        default=_env_default("REPRO_RETRIES", _retries_arg),
        metavar="N",
        help="retry each failed workload up to N times; only "
        "transient failures (I/O, broken pool, timeout) are "
        "retried (default: $REPRO_RETRIES, else 2)",
    )
    parser.add_argument(
        "--timeout",
        type=_timeout_arg,
        default=_env_default("REPRO_TIMEOUT", _timeout_arg),
        metavar="SECONDS",
        help="per-workload wall-clock timeout; a worker exceeding it "
        "is killed and the workload counted failed (requires "
        "--jobs > 1; default: $REPRO_TIMEOUT, else none)",
    )
    fail_mode = parser.add_mutually_exclusive_group()
    fail_mode.add_argument(
        "--strict",
        action="store_true",
        help="abort (non-zero exit) if any workload fails after "
        "retries",
    )
    fail_mode.add_argument(
        "--keep-going",
        action="store_true",
        help="run every workload even when some fail and report over "
        "the survivors (the default; listed for symmetry with "
        "--strict)",
    )
    parser.add_argument(
        "--journal-dir",
        default=os.environ.get("REPRO_JOURNAL_DIR"),
        metavar="PATH",
        help="checkpoint completed workloads under PATH; an "
        "interrupted run with identical parameters resumes there "
        "and skips finished workloads (default: $REPRO_JOURNAL_DIR, "
        "else no journal)",
    )
    trace_mode = parser.add_mutually_exclusive_group()
    trace_mode.add_argument(
        "--trace-dir",
        default=None,
        metavar="PATH",
        help="write a run-scoped observability log under PATH: an "
        "append-only events.jsonl plus a Chrome/Perfetto trace.json "
        "(default: $REPRO_TRACE_DIR, else tracing off)",
    )
    trace_mode.add_argument(
        "--no-trace",
        action="store_true",
        help="disable trace output even when $REPRO_TRACE_DIR is set",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered workloads")

    one = sub.add_parser("characterize", help="characterize one workload")
    one.add_argument("abbr", help="workload abbreviation, e.g. GMS")
    one.add_argument("--scale", type=float, default=0.25)

    sub.add_parser("table1", help="print the Cactus Table I")

    sub.add_parser(
        "observations", help="evaluate Observations 1-12 on both suites"
    )

    report = sub.add_parser("report", help="full Markdown report")
    report.add_argument("--output", default=None,
                        help="write the report to this file")
    report.add_argument("--with-prt", action="store_true",
                        help="include the PRT comparison sections")

    sweep = sub.add_parser(
        "sweep",
        help="characterize a suite across a device zoo",
        description=(
            "Each workload's launch stream is generated once and the "
            "whole device list is simulated in a single batched pass; "
            "prints per-device Table-I style rows plus the "
            "cross-device differential (elbows, classification flips, "
            "dominant-kernel shifts)."
        ),
    )
    device_sel = sweep.add_mutually_exclusive_group(required=True)
    device_sel.add_argument(
        "--devices",
        metavar="NAME[,NAME...]",
        help="comma-separated device names from the zoo "
        f"(known: {', '.join(DEVICE_ZOO)})",
    )
    device_sel.add_argument(
        "--all-devices",
        action="store_true",
        help="sweep every device in the zoo",
    )
    sweep.add_argument(
        "--suite",
        default="Cactus",
        help="suite to sweep (default: Cactus)",
    )
    sweep.add_argument(
        "--workloads",
        metavar="ABBR[,ABBR...]",
        default=None,
        help="restrict to these workload abbreviations",
    )
    sweep.add_argument(
        "--baseline",
        default=None,
        metavar="NAME",
        help="device the dominant-kernel shift column compares "
        "against (default: RTX 3080 when swept, else the first "
        "device)",
    )
    sweep.add_argument(
        "--output", default=None, help="write the sweep section to this file"
    )

    serve = sub.add_parser(
        "serve",
        help="run the characterization service (HTTP/JSON job API)",
        description=(
            "Boots an asyncio HTTP server over the characterization "
            "engine: POST /v1/jobs submits suite/workload/sweep "
            "requests, identical concurrent submissions coalesce onto "
            "one engine run, per-client token buckets bound the "
            "submission rate, and GET /v1/jobs/{id}/events streams the "
            "run's observability log.  SIGTERM drains gracefully; "
            "journaled in-flight runs resume on the next start with "
            "the same --state-dir.  The service shares the on-disk "
            "result cache selected by --cache-dir/$REPRO_CACHE_DIR."
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="N",
        help="listen port; 0 picks an ephemeral port, written with the "
        "host to <state-dir>/server.json for discovery (default: 0)",
    )
    serve.add_argument(
        "--state-dir",
        default=os.environ.get("REPRO_STATE_DIR", ".repro-service"),
        metavar="PATH",
        help="durable service state: job records, per-job journals and "
        "traces, the default cache (default: $REPRO_STATE_DIR, else "
        "./.repro-service)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent engine runs (worker threads; default: 2)",
    )
    serve.add_argument(
        "--engine-jobs",
        type=int,
        default=None,
        metavar="N",
        help="override every job's engine worker-process count "
        "(default: honour the per-request 'jobs' field)",
    )
    serve.add_argument(
        "--quota-burst",
        type=float,
        default=32.0,
        metavar="N",
        help="per-client token-bucket capacity: submissions admitted "
        "instantly from a cold start (default: 32)",
    )
    serve.add_argument(
        "--quota-rate",
        type=float,
        default=8.0,
        metavar="N",
        help="per-client sustained submission rate, tokens/second "
        "(default: 8)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="on SIGTERM, wait this long for running jobs before "
        "persisting them as interrupted (default: 5)",
    )

    trace = sub.add_parser("trace", help="export a workload kernel trace")
    trace.add_argument("abbr")
    trace.add_argument("path")
    trace.add_argument("--scale", type=float, default=0.1)

    cache_cmd = sub.add_parser(
        "cache",
        help="inspect (and optionally prune) the persistent result cache",
        description=(
            "Prints the persistent cache location, version directory, "
            "model-source fingerprint, and entry count for the "
            "--cache-dir (or $REPRO_CACHE_DIR) tree.  --prune removes "
            "version trees of other cache schemas and other source "
            "fingerprints."
        ),
    )
    cache_cmd.add_argument(
        "--prune",
        action="store_true",
        help=(
            "delete persistent trees of other cache schema versions "
            "and other source fingerprints"
        ),
    )

    similar = sub.add_parser(
        "similar",
        help="query the kernel-similarity index over a suite run",
        description=(
            "Characterizes the suite, builds a KernelIndex over the "
            "per-kernel metric feature vectors (keys are ABBR:kernel), "
            "and answers one query: --query KEY lists the k nearest "
            "kernels; --representatives N picks N medoid kernels; "
            "--coverage F picks the smallest subset reaching coverage "
            "F."
        ),
    )
    query_sel = similar.add_mutually_exclusive_group(required=True)
    query_sel.add_argument(
        "--query",
        metavar="ABBR:KERNEL",
        help="list the nearest neighbours of this kernel",
    )
    query_sel.add_argument(
        "--representatives",
        type=int,
        metavar="N",
        help="select N representative kernels (k-medoids)",
    )
    query_sel.add_argument(
        "--coverage",
        type=float,
        metavar="FRACTION",
        help="select the smallest representative subset reaching this "
        "coverage in (0, 1]",
    )
    similar.add_argument(
        "-k",
        type=int,
        default=5,
        metavar="N",
        help="neighbours to list for --query (default: 5)",
    )
    similar.add_argument(
        "--suite",
        default="Cactus",
        help="suite to index (default: Cactus)",
    )
    similar.add_argument(
        "--workloads",
        metavar="ABBR[,ABBR...]",
        default=None,
        help="restrict the corpus to these workload abbreviations",
    )

    return parser


def _cmd_list() -> int:
    for suite in ("Cactus", "CactusExt", "Parboil", "Rodinia", "Tango"):
        members = list_workloads(suite)
        print(f"{suite} ({len(members)}):")
        for abbr in members:
            workload = get_workload(abbr, scale=0.01)
            print(f"  {abbr:<14} {workload.name} — {workload.info.description}")
    return 0


def _cmd_characterize(abbr: str, scale: float) -> int:
    result = characterize(get_workload(abbr, scale=scale))
    profile = result.profile
    point = result.aggregate_point
    print(f"{result.abbr}: {profile.workload} at scale {scale}")
    print(f"  kernels: {result.table1.kernels_100} "
          f"(70% of time in {result.table1.kernels_70})")
    print(f"  total warp insts: {result.table1.total_warp_insts:.3e}")
    print(f"  aggregate: II={point.intensity:.2f}, GIPS={point.gips:.2f} "
          f"({point.intensity_class}-intensive)")
    print("  top kernels:")
    for kernel in profile.kernels[:8]:
        share = kernel.total_time_s / profile.total_time_s
        print(f"    {kernel.name:<44} {share:6.1%} "
              f"x{kernel.invocations}")
    return 0


def _epilogue(
    reports, cache: Optional[ResultCache], profiles: Sequence[str] = ()
) -> None:
    """The stderr tail of every suite command (keeps exhibits clean).

    Lists each run's degradation, journal resume and workload failures,
    then the run-profile tables titled by *profiles* (one title per
    run, in run order), the cache summary and the trace directory;
    prints nothing when the command made no run.
    """
    if not reports:
        return
    for report in reports:
        if report.fallback_reason:
            print(
                f"[engine] degraded to serial: {report.fallback_reason}",
                file=sys.stderr,
            )
        if report.resumed:
            print(
                f"[journal] resumed, skipping {len(report.resumed)} "
                f"completed workload(s): {', '.join(report.resumed)}",
                file=sys.stderr,
            )
        for failure in report.failures:
            print(f"[failed] {failure.render()}", file=sys.stderr)
    for title, report in zip(profiles, reports):
        body = render_run_profile(report)
        if body is not None:
            print(f"## {title}\n\n{body}\n", file=sys.stderr)
    if cache is not None:
        print(f"[cache] {cache.stats.render()}", file=sys.stderr)
    for trace_dir in dict.fromkeys(r.trace_dir for r in reports if r.trace_dir):
        print(
            f"[trace] events.jsonl and trace.json written under {trace_dir}",
            file=sys.stderr,
        )


def _cmd_table1(run) -> int:
    from repro.analysis.tables import render_table1

    result = run(run_suite, ["Cactus"])
    rows = [c.table1 for c in result.suite("Cactus")]
    print(render_table1(rows))
    return 0


def _cmd_observations(run) -> int:
    cactus = run(run_suite, ["Cactus"])
    prt = run(run_suite, ["Parboil", "Rodinia", "Tango"])
    try:
        report = check_observations(cactus, prt)
    except (KeyError, ValueError) as exc:
        print(
            f"observations skipped: requires the full workload set "
            f"({type(exc).__name__}: {exc})",
            file=sys.stderr,
        )
        return 1 if cactus.failures or prt.failures else 0
    print(report.render())
    return 0 if report.passed >= 11 else 1


def _cmd_report(output: Optional[str], with_prt: bool, run) -> int:
    # No cache stats in the text: they differ between a cold and a warm
    # run, and the epilogue's [cache] line already carries them.
    cactus = run(run_suite, ["Cactus"])
    prt = run(run_suite, ["Parboil", "Rodinia", "Tango"]) if with_prt else None
    text = generate_report(cactus, prt)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {output}")
    else:
        print(text)
    return 0


def _cmd_sweep(args, run) -> int:
    from repro.analysis.sweep import analyze_sweep, render_sweep_markdown

    if args.all_devices:
        devices = list(DEVICE_ZOO.values())
    else:
        try:
            devices = [
                device_by_name(name)
                for name in args.devices.split(",")
                if name.strip()
            ]
        except KeyError as exc:
            print(f"repro: error: {exc.args[0]}", file=sys.stderr)
            return 2
        if not devices:
            print("repro: error: --devices: empty list", file=sys.stderr)
            return 2
    workloads = (
        [w for w in args.workloads.split(",") if w.strip()]
        if args.workloads
        else None
    )
    report = run(run_sweep, devices, suites=[args.suite], workloads=workloads)
    analysis = analyze_sweep(
        report.results, report.devices, baseline=args.baseline
    )
    text = render_sweep_markdown(analysis)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_cache(args, cache: Optional[ResultCache]) -> int:
    if cache is None:
        print(
            "repro: error: cache: no cache directory (pass --cache-dir or "
            "set $REPRO_CACHE_DIR, without --no-cache)",
            file=sys.stderr,
        )
        return 2
    print(f"cache dir:    {cache.cache_dir}")
    print(f"version dir:  {cache.version_dir}")
    print(f"fingerprint:  {source_fingerprint()}")
    print(f"entries:      {cache.persistent_entries()}")
    if args.prune:
        removed = cache.prune()
        print(f"pruned:       {removed} stale tree(s)")
    return 0


def _cmd_similar(args, run) -> int:
    from repro.analysis.similarity import (
        METRIC_FEATURES,
        KernelIndex,
        metric_features,
    )

    workloads = (
        [w for w in args.workloads.split(",") if w.strip()]
        if args.workloads
        else None
    )
    result = run(run_suite, [args.suite], workloads=workloads)

    index = KernelIndex(feature_names=METRIC_FEATURES)
    profiles: dict = {}
    for abbr, char in result.results.items():
        for kernel in char.profile.kernels:
            key = f"{abbr}:{kernel.name}"
            index.add(key, metric_features(kernel.metrics), kernel)
            profiles[key] = kernel
    if not profiles:
        print("repro: error: empty corpus (no kernels)", file=sys.stderr)
        return 1
    print(
        f"index: {len(profiles)} kernels from {len(result.results)} "
        f"workload(s) over {len(METRIC_FEATURES)} metric features"
    )

    if args.query is not None:
        if args.query not in profiles:
            print(
                f"repro: error: unknown kernel key {args.query!r} "
                f"(keys look like ABBR:kernel_name)",
                file=sys.stderr,
            )
            return 2
        if args.k < 1:
            print("repro: error: -k must be >= 1", file=sys.stderr)
            return 2
        vector = metric_features(profiles[args.query].metrics)
        neighbors = index.knn(vector, args.k, exclude=args.query)
        print(f"nearest {len(neighbors)} to {args.query}:")
        for rank, neighbor in enumerate(neighbors, start=1):
            marker = "  (exact)" if neighbor.exact else ""
            print(
                f"  {rank:>2}. {neighbor.key:<52} "
                f"d={neighbor.distance:.4f}{marker}"
            )
        return 0

    if args.representatives is not None:
        if not 1 <= args.representatives <= len(profiles):
            print(
                f"repro: error: --representatives must be in "
                f"[1, {len(profiles)}]",
                file=sys.stderr,
            )
            return 2
        subset = index.representative_subset(args.representatives)
    else:
        if not 0 < args.coverage <= 1:
            print(
                "repro: error: --coverage must be in (0, 1]",
                file=sys.stderr,
            )
            return 2
        subset = index.representatives_for_target(args.coverage)
    print(
        f"representatives ({len(subset.representative_labels)} kernels, "
        f"coverage {subset.coverage:.3f}):"
    )
    for label in subset.representative_labels:
        kernel = profiles[label]
        print(
            f"  {label:<52} {kernel.total_time_s:10.3e} s "
            f"x{kernel.invocations}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import JobManager, QuotaConfig, ReproService

    if args.workers < 1:
        print("repro: error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        quota = QuotaConfig(
            capacity=args.quota_burst, refill_per_s=args.quota_rate
        )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    manager = JobManager(
        state_dir=args.state_dir,
        workers=args.workers,
        engine_jobs=args.engine_jobs,
        cache_dir=args.cache_dir,  # None → <state-dir>/cache
        quota=quota,
    )

    async def _serve() -> int:
        service = ReproService(
            manager,
            host=args.host,
            port=args.port,
            drain_grace_s=args.drain_grace,
        )
        port = await service.start()
        recovered = manager.stats()["recovered"]
        if recovered:
            print(
                f"[serve] recovered {len(recovered)} unfinished job(s); "
                "re-queued for journal resume",
                file=sys.stderr,
            )
        print(
            f"[serve] listening on http://{args.host}:{port} "
            f"(state: {manager.state_dir}, cache: {manager.cache_dir})",
            file=sys.stderr,
        )
        interrupted = await service.serve_forever()
        if interrupted:
            print(
                f"[serve] drained; {len(interrupted)} job(s) journaled "
                "as interrupted (restart with the same --state-dir to "
                "resume)",
                file=sys.stderr,
            )
        else:
            print("[serve] drained cleanly", file=sys.stderr)
        return 0

    return asyncio.run(_serve())


def _cmd_trace(abbr: str, path: str, scale: float) -> int:
    from repro.profiler import export_trace

    workload = get_workload(abbr, scale=scale)
    count = export_trace(workload.launch_stream(), path)
    print(f"wrote {count} launches from {abbr} to {path}")
    return 0


def _exit_on_sigterm(signum, frame) -> None:
    """SIGTERM ends a suite command as ``sys.exit(143)`` would.

    The exception unwinds through the engine, whose ``finally`` stops
    its pool workers before the process exits.  The flag set first
    survives the exception being discarded (see
    :data:`repro.core.resilience.terminated`).
    """
    resilience.terminated = 128 + signum
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    preset = _PRESETS[args.preset]
    if args.cache_dir is not None and os.path.exists(args.cache_dir) \
            and not os.path.isdir(args.cache_dir):
        parser.error(f"--cache-dir: not a directory: {args.cache_dir}")
    # Flag > environment; --no-trace silences both (they are mutually
    # exclusive at the argparse level, so --no-trace always means the
    # environment default is being refused).
    trace_dir = args.trace_dir
    if trace_dir is None and not args.no_trace:
        trace_dir = os.environ.get("REPRO_TRACE_DIR") or None
    if trace_dir is not None and os.path.exists(trace_dir) \
            and not os.path.isdir(trace_dir):
        parser.error(f"--trace-dir: not a directory: {trace_dir}")
    if args.timeout is not None and _resolve_jobs(args.jobs) == 1:
        print(
            "repro: warning: --timeout has no effect on the serial path "
            "(pass --jobs > 1)",
            file=sys.stderr,
        )
    cache = (
        ResultCache(args.cache_dir)
        if args.cache_dir and not args.no_cache
        else None
    )
    retries = 2 if args.retries is None else args.retries
    run_kwargs = {
        "preset": preset,
        "jobs": args.jobs,
        "cache": cache,
        "retry_policy": RetryPolicy(
            max_attempts=retries + 1, timeout_s=args.timeout
        ),
        "keep_going": not args.strict,
        "journal_dir": args.journal_dir,
        "trace_dir": trace_dir,
    }
    if args.command == "list":
        return _cmd_list()
    if args.command == "characterize":
        return _cmd_characterize(args.abbr, args.scale)
    if args.command == "cache":
        return _cmd_cache(args, cache)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args.abbr, args.path, args.scale)
    reports: list = []

    def run(runner, *positional, **kwargs):
        """One suite run of this command, kept for the epilogue."""
        report = runner(*positional, **kwargs, **run_kwargs)
        reports.append(report)
        return report

    commands = {
        "table1": lambda: _cmd_table1(run),
        "observations": lambda: _cmd_observations(run),
        "report": lambda: _cmd_report(args.output, args.with_prt, run),
        "sweep": lambda: _cmd_sweep(args, run),
        "similar": lambda: _cmd_similar(args, run),
    }
    # The report's wall-clock tables go to stderr, so its stdout is a
    # function of the recipe alone.
    profiles = (
        ("Run profile", "Run profile (PRT)") if args.command == "report" else ()
    )
    previous_sigterm = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        code = commands[args.command]()
    except SuiteRunError as exc:
        # --strict: a workload failed terminally.  The partial report
        # (with every completed characterization) rode along on the
        # exception; list the failures and exit non-zero.
        _epilogue(reports + [exc.report], cache, profiles)
        print(f"repro: error: {exc}", file=sys.stderr)
        code = 1
    except SystemExit:
        if not resilience.terminated:
            raise
    else:
        _epilogue(reports, cache, profiles)
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        terminated, resilience.terminated = resilience.terminated, 0
    return terminated or code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
