"""Markdown characterization-report generator.

Produces a self-contained Markdown report for a suite run — the whole
Section-V treatment as a document: Table I, the dominance histogram,
aggregate roofline table, the correlation matrix, the dendrogram, and
(when a PRT run is supplied) the Observation 1-12 scoreboard.  Used by
the CLI (``python -m repro report``) and handy for regression diffing
between model versions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.analysis.correlation import correlation_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import CacheStats
from repro.analysis.distribution import dominance_histogram
from repro.analysis.roofline import render_roofline_ascii
from repro.core.compare import check_observations, cluster_dominant_kernels
from repro.core.suite import SuiteRunReport
from repro.gpu.device import RTX_3080


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n{body}\n"


def _code(text: str) -> str:
    return f"```\n{text}\n```"


def _table1(result: SuiteRunReport, suite: str) -> str:
    lines = [
        "| workload | total warp insts | w-avg insts/kernel "
        "| kernels (100%) | kernels (70%) |",
        "|---|---:|---:|---:|---:|",
    ]
    for characterization in result.suite(suite):
        row = characterization.table1
        lines.append(
            f"| {row.abbr} | {row.total_warp_insts:.3e} "
            f"| {row.weighted_avg_insts_per_kernel:.3e} "
            f"| {row.kernels_100} | {row.kernels_70} |"
        )
    return "\n".join(lines)


def _roofline_table(result: SuiteRunReport, suite: str) -> str:
    elbow = RTX_3080.roofline_elbow
    lines = [
        f"Roofline elbow: {elbow:.2f} warp insts / 32B transaction; "
        f"peak {RTX_3080.peak_gips:.1f} GIPS.",
        "",
        "| workload | intensity | GIPS | class |",
        "|---|---:|---:|---|",
    ]
    for characterization in result.suite(suite):
        point = characterization.aggregate_point
        lines.append(
            f"| {characterization.abbr} | {point.intensity:.2f} "
            f"| {point.gips:.2f} | {point.intensity_class} |"
        )
    return "\n".join(lines)


def render_run_profile(run: SuiteRunReport) -> Optional[str]:
    """Render one run's :class:`~repro.obs.metrics.RunProfile` tables.

    Wall-clock numbers differ between any two runs, so they are not part
    of :func:`generate_report`; the CLI prints them on stderr.  Returns
    ``None`` when the run carries no profile (e.g. a report deserialized
    without one).
    """
    from repro.obs.metrics import PHASE_ORDER

    profile = run.run_profile
    if profile is None:
        return None

    lines = ["| phase | total | share | spans |", "|---|---:|---:|---:|"]
    phase_totals = {p: profile.phase_seconds(p) for p in PHASE_ORDER}
    grand_total = sum(phase_totals.values())
    for phase in PHASE_ORDER:
        total = phase_totals[phase]
        stat = profile.histograms.get(f"span.{phase}_s", {})
        share = total / grand_total if grand_total else 0.0
        lines.append(
            f"| {phase} | {total:.3f}s | {share:.1%} "
            f"| {int(stat.get('count', 0))} |"
        )

    by_workload = profile.workload_phases()
    if by_workload:
        lines += [
            "",
            "Per-workload wall clock (all attempts):",
            "",
            "| workload | " + " | ".join(PHASE_ORDER) + " |",
            "|---|" + "---:|" * len(PHASE_ORDER),
        ]
        for abbr in sorted(by_workload):
            phases = by_workload[abbr]
            cells = " | ".join(
                f"{phases.get(p, 0.0):.3f}s" for p in PHASE_ORDER
            )
            lines.append(f"| {abbr} | {cells} |")

    counters = [
        f"workloads completed: {int(profile.counter('engine.workloads_completed'))}",
        f"failed: {int(profile.counter('engine.workloads_failed'))}",
        f"resumed: {int(profile.counter('engine.workloads_resumed'))}",
        f"retries: {profile.retries}",
        f"timeouts: {profile.timeouts}",
        f"pool rebuilds: {profile.pool_rebuilds}",
    ]
    if profile.cache_lookups:
        counters.append(
            f"cache hit rate: {profile.cache_hit_rate:.1%} over "
            f"{int(profile.cache_lookups)} lookups"
        )
    queue = profile.histograms.get("queue.wait_s")
    if queue and queue.get("count"):
        mean = queue["total"] / queue["count"]
        counters.append(
            f"pool queue wait: mean {mean * 1e3:.1f}ms, "
            f"max {queue['max'] * 1e3:.1f}ms over {int(queue['count'])} tasks"
        )
    lines += ["", "Engine counters: " + "; ".join(counters) + "."]
    return "\n".join(lines)


def generate_report(
    cactus: SuiteRunReport,
    prt: Optional[SuiteRunReport] = None,
    title: str = "Cactus characterization report",
    cache_stats: Optional["CacheStats"] = None,
) -> str:
    """Render a Markdown report for a Cactus run (and optional PRT run).

    The report depends on the characterizations alone, so two runs of
    one recipe render the same bytes (the wall-clock tables are
    :func:`render_run_profile`).  Pass the engine's ``cache_stats`` to
    append a result-cache summary section (hit rates tell you whether
    the run was served warm).
    """
    parts: List[str] = [f"# {title}\n"]
    parts.append(
        f"Device: {cactus.device.name}; scale preset: "
        f"{cactus.preset.name}.\n"
    )

    runs = [cactus] if prt is None else [cactus, prt]
    failures = [failure for run in runs for failure in run.failures]
    if failures:
        lines = [
            "The following workloads failed and are excluded from every "
            "aggregate below (suite statistics are computed over the "
            "survivors):",
            "",
            "| workload | phase | error | attempts | elapsed |",
            "|---|---|---|---:|---:|",
        ]
        for failure in failures:
            message = failure.message.replace("|", "\\|").replace("\n", " ")
            lines.append(
                f"| {failure.abbr} | {failure.phase} "
                f"| `{failure.error_type}: {message}` "
                f"| {failure.attempts} | {failure.elapsed_s:.1f}s |"
            )
        for run in runs:
            if run.fallback_reason:
                lines += [
                    "",
                    "Engine degraded to serial execution: "
                    f"{run.fallback_reason}",
                ]
                break
        parts.append(_section("Failed workloads", "\n".join(lines)))

    parts.append(_section("Table I — suite statistics",
                          _table1(cactus, "Cactus")))
    parts.append(
        _section("Aggregate roofline (Fig. 5)",
                 _roofline_table(cactus, "Cactus"))
    )

    points = [
        p
        for characterization in cactus.suite("Cactus")
        for p in characterization.kernel_points
    ]
    parts.append(
        _section(
            "Per-kernel roofline (Figs. 6-7)",
            _code(render_roofline_ascii(points, height=16)),
        )
    )

    matrix = correlation_matrix(cactus.profiles("Cactus"))
    parts.append(
        _section("Correlation analysis (Fig. 8)", _code(matrix.render()))
    )

    if prt is not None:
        histogram = dominance_histogram(
            [
                c.profile
                for s in ("Parboil", "Rodinia", "Tango")
                for c in prt.suite(s)
            ]
        )
        parts.append(
            _section(
                "PRT dominance (Fig. 2)",
                f"Kernels needed for 70% of GPU time → workload count: "
                f"`{histogram}`",
            )
        )
        from repro.analysis.clustering import render_dendrogram

        # Clustering and the observation scoreboard index specific
        # workloads; with a partial run they degrade to an explicit
        # "skipped" note instead of aborting the whole report.
        try:
            *_rest, tree = cluster_dominant_kernels(cactus, prt)
            parts.append(
                _section(
                    "Clustering (Fig. 9)",
                    _code(render_dendrogram(tree, n_clusters=6, max_members=6)),
                )
            )
        except (KeyError, ValueError) as exc:
            parts.append(
                _section(
                    "Clustering (Fig. 9)",
                    f"Skipped: requires the full workload set "
                    f"({type(exc).__name__}: {exc}).",
                )
            )
        try:
            report = check_observations(cactus, prt)
            parts.append(
                _section("Observations 1-12", _code(report.render()))
            )
        except (KeyError, ValueError) as exc:
            parts.append(
                _section(
                    "Observations 1-12",
                    f"Skipped: requires the full workload set "
                    f"({type(exc).__name__}: {exc}).",
                )
            )

    if cache_stats is not None:
        parts.append(
            _section("Engine cache", f"Result cache: {cache_stats.render()}.")
        )

    return "\n".join(parts)
