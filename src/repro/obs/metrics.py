"""Metrics: counters, gauges, histograms, and the aggregated run profile.

A :class:`MetricsRegistry` is a cheap in-process accumulator (plain
dict updates — no locks, no I/O) that each process of a suite run owns
privately; worker registries are snapshotted into JSON-able dicts,
shipped back with the result tuple, and merged into the parent's
registry.  The merged registry is then frozen into a
:class:`RunProfile` — the machine-readable "where did the wall-clock
go" record carried on
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
    ``pool_rebuilds``, ``pool_fallbacks``, ``journal_checkpoints``,
    ``workloads_completed`` / ``_failed`` / ``_resumed``.
``queue.wait_s``
    Histogram of pool submit → worker pickup latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

__all__ = [
    "HistogramStat",
    "MetricsRegistry",
    "RunProfile",
]

#: Phase-span names rendered (in this order) in the run-profile table.
PHASE_ORDER = (
    "stream-gen",
    "cache-lookup",
    "simulate",
    "analyze",
    "cache-store",
)


@dataclass
class HistogramStat:
    """Streaming summary of one histogram: count / total / min / max."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "HistogramStat") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def as_dict(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HistogramStat":
        count = int(payload.get("count", 0))
        if count == 0:
            return cls()
        return cls(
            count=count,
            total=float(payload.get("total", 0.0)),
            min=float(payload.get("min", 0.0)),
            max=float(payload.get("max", 0.0)),
        )


class MetricsRegistry:
    """Process-local counters/gauges/histograms, mergeable across workers."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramStat] = {}

    # -- recording -----------------------------------------------------
    def incr(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        stat = self.histograms.get(name)
        if stat is None:
            stat = HistogramStat()
            self.histograms[name] = stat
        stat.observe(value)

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        for name, value in other.counters.items():
            self.incr(name, value)
        for name, value in other.gauges.items():
            self.gauges[name] = value  # last writer wins
        for name, stat in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = HistogramStat()
                self.histograms[name] = mine
            mine.merge(stat)

    def merge_dict(self, snapshot: Mapping[str, Any]) -> None:
        """Merge a :meth:`snapshot` produced in another process."""
        for name, value in snapshot.get("counters", {}).items():
            self.incr(name, float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauges[name] = float(value)
        for name, payload in snapshot.get("histograms", {}).items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = HistogramStat()
                self.histograms[name] = mine
            mine.merge(HistogramStat.from_dict(payload))

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able copy safe to pickle across the pool boundary."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: stat.as_dict() for name, stat in self.histograms.items()
            },
        }


@dataclass
class RunProfile:
    """Aggregated observability record of one suite run (JSON-stable).

    A frozen view over the merged :class:`MetricsRegistry` — plain
    dicts of floats, so it serializes losslessly and compares by value
    (the suite-report round-trip test relies on that).
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "RunProfile":
        snapshot = registry.snapshot()
        return cls(
            counters=snapshot["counters"],
            gauges=snapshot["gauges"],
            histograms=snapshot["histograms"],
        )

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

    @property
    def journal_checkpoints(self) -> int:
        return int(self.counter("engine.journal_checkpoints"))

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
            "gauges": dict(self.gauges),
            "histograms": {
                name: dict(stat) for name, stat in self.histograms.items()
            },
        }

