"""Metrics: the run profile, one counters-and-histograms record per run.

A :class:`RunProfile` is a cheap in-process accumulator (plain dict
updates — no locks, no I/O).  Every tracer owns one, so each process of
a suite run records into its own; a pool worker's profile rides back on
the result tuple and is merged into the run tracer's profile, which is
the record carried on
:class:`~repro.core.suite.SuiteRunReport.run_profile` and rendered by
:func:`repro.core.report.render_run_profile` in the ``report``
command's stderr epilogue.

Naming conventions (what the run profile parses):

``span.<name>_s``
    Histogram of every span with that name (per-phase wall clock).
``workload.<ABBR>.<phase>_s``
    Histogram of one workload's phase timings (``stream-gen``,
    ``simulate``, ``analyze``, ``cache-lookup``, ``cache-store``).
``cache.*``
    Counters mirroring :class:`~repro.core.cache.CacheStats`
    (``disk_hits`` / ``misses`` / ``stores`` / ``corrupt``),
    incremented by the instrumented cache itself.
``engine.*``
    Counters for resilience machinery: ``retries``, ``timeouts``,
    ``pool_rebuilds``, ``pool_fallbacks``,
    ``workloads_completed`` / ``_failed`` / ``_resumed``.
``queue.wait_s``
    Histogram of pool submit → worker pickup latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["RunProfile"]

#: Phase-span names rendered (in this order) in the run-profile table.
PHASE_ORDER = (
    "stream-gen",
    "cache-lookup",
    "simulate",
    "analyze",
    "cache-store",
)


@dataclass
class RunProfile:
    """The metrics record of one run: counters and histograms.

    Every :class:`~repro.obs.spans.Tracer` owns one and records into it
    (dict updates only: no locks, no I/O).  A histogram is the plain
    dict ``{"count", "total", "min", "max"}``, so the profile pickles
    across the pool boundary, serializes losslessly to JSON and
    compares by value (the suite-report round-trip test relies on
    that).
    """

    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # -- recording -----------------------------------------------------
    def incr(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        self._fold(
            name, {"count": 1, "total": value, "min": value, "max": value}
        )

    def merge(self, other: "RunProfile") -> None:
        """Fold another process's profile into this one."""
        for name, value in other.counters.items():
            self.incr(name, value)
        for name, stat in other.histograms.items():
            self._fold(name, stat)

    def _fold(self, name: str, theirs: Dict[str, float]) -> None:
        stat = self.histograms.get(name)
        if stat is None:
            self.histograms[name] = dict(theirs)
            return
        stat["count"] += theirs["count"]
        stat["total"] += theirs["total"]
        stat["min"] = min(stat["min"], theirs["min"])
        stat["max"] = max(stat["max"], theirs["max"])

    # -- derived views -------------------------------------------------
    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    @property
    def cache_lookups(self) -> float:
        return self.counter("cache.disk_hits") + self.counter("cache.misses")

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_lookups
        if not lookups:
            return 0.0
        return self.counter("cache.disk_hits") / lookups

    @property
    def retries(self) -> int:
        return int(self.counter("engine.retries"))

    @property
    def timeouts(self) -> int:
        return int(self.counter("engine.timeouts"))

    @property
    def pool_rebuilds(self) -> int:
        return int(self.counter("engine.pool_rebuilds"))

    def phase_seconds(self, phase: str) -> float:
        """Total seconds spent in one phase span across the whole run."""
        stat = self.histograms.get(f"span.{phase}_s")
        return float(stat.get("total", 0.0)) if stat else 0.0

    def workload_phases(self) -> Dict[str, Dict[str, float]]:
        """Per-workload phase totals: ``{abbr: {phase: seconds}}``.

        Parsed back out of the ``workload.<ABBR>.<phase>_s`` histogram
        names; retried attempts accumulate into the same bucket (the
        profile reports wall-clock *spent*, not just the last try).
        """
        phases: Dict[str, Dict[str, float]] = {}
        for name, stat in self.histograms.items():
            if not name.startswith("workload.") or not name.endswith("_s"):
                continue
            remainder = name[len("workload.") : -len("_s")]
            abbr, separator, phase = remainder.partition(".")
            if not separator:
                continue
            phases.setdefault(abbr, {})[phase] = float(
                stat.get("total", 0.0)
            )
        return phases

    # -- serialization -------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: dict(stat) for name, stat in self.histograms.items()
            },
        }

