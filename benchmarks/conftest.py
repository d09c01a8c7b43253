"""Shared fixtures for the figure/table regeneration benchmarks.

Both suites are traced once per session at the observation scale; each
benchmark then times the *analysis* step that produces its exhibit and
writes the rendered rows/series to ``benchmarks/output/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import OBSERVATION_SCALE, run_suite

OUTPUT_DIR = Path(__file__).parent / "output"


def _engine_kwargs():
    """Engine knobs from the environment.

    ``REPRO_CACHE_DIR`` points the suite fixtures at a persistent result
    cache (the CI cache-warm smoke runs the Fig. 3 benchmark twice with
    it set and expects the second run to be served warm);
    ``REPRO_JOBS`` fans the characterizations out over a process pool
    (benchmark runs stay strict — a failed workload fails the fixture).
    """
    kwargs = {}
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir:
        kwargs["cache_dir"] = cache_dir
    jobs = os.environ.get("REPRO_JOBS")
    if jobs:
        kwargs["jobs"] = int(jobs)
    return kwargs


def _run_suites(suites):
    """``run_suite`` with cache stats surfaced (and optionally gated).

    With ``REPRO_REQUIRE_CACHE_WARM=1`` (the CI warm run), the fixture
    fails unless every characterization was served from the persistent
    cache — a 100% hit rate, zero misses — and no launch stream was
    generated.  A silent cache-key or serialization regression would
    otherwise recompute (or regenerate) everything and still pass.
    """
    from repro.core import ResultCache

    kwargs = _engine_kwargs()
    cache = None
    cache_dir = kwargs.pop("cache_dir", None)
    if cache_dir:
        cache = ResultCache(cache_dir=cache_dir)
        kwargs["cache"] = cache
    report = run_suite(suites, preset=OBSERVATION_SCALE, **kwargs)
    if cache is not None:
        stats = cache.stats
        print(f"\n[cache] {'+'.join(suites)}: {stats.render()}")
        if os.environ.get("REPRO_REQUIRE_CACHE_WARM"):
            assert stats.misses == 0 and stats.hits == stats.lookups > 0, (
                f"REPRO_REQUIRE_CACHE_WARM is set but the "
                f"{'+'.join(suites)} run was not fully cache-served: "
                f"{stats.render()} (hit rate "
                f"{stats.hit_rate:.0%}, want 100%)"
            )
            histograms = report.run_profile.histograms
            assert "span.stream-gen_s" not in histograms, (
                f"REPRO_REQUIRE_CACHE_WARM is set but the "
                f"{'+'.join(suites)} run generated "
                f"{histograms['span.stream-gen_s']['count']} launch "
                f"stream(s); a warm hit must not need one"
            )
    return report


@pytest.fixture(scope="session")
def cactus_run():
    return _run_suites(["Cactus"])


@pytest.fixture(scope="session")
def prt_run():
    return _run_suites(["Parboil", "Rodinia", "Tango"])


@pytest.fixture(scope="session")
def save_exhibit():
    """Write an exhibit's rendered text to benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n--- {name} ---")
        print(text)

    return _save
