"""Corrupt cache entries are quarantined, counted, and rewritten.

Satellite (ISSUE 2): ``ResultCache`` must treat truncated or bit-rotted
entries as misses, move them aside into ``<cache_dir>/corrupt/`` for
post-mortem inspection, and count them in ``CacheStats`` — so a killed
worker's torn write can never poison later runs.
"""

import json

import pytest

from repro.core import LAPTOP_SCALE, ResultCache
from repro.core.cache import characterization_key
from repro.gpu import RTX_3080
from repro.gpu.simulator import SimulationOptions
from tests.faults import CORRUPT_CACHE, FaultPlan, flip_cache_bytes

from .conftest import run_slice, run_sweep_slice

KEY = "ab" + "0" * 62


def _entry_files(cache):
    return sorted(cache.version_dir.glob("*/*.json"))


class TestQuarantine:
    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY, {"v": 1})
        path = _entry_files(cache)[0]
        path.write_text('{"v": 1', encoding="utf-8")  # torn write

        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(KEY) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        # The broken file moved aside, preserved for inspection.
        assert not path.exists()
        quarantined = list((tmp_path / "corrupt").iterdir())
        assert [p.name for p in quarantined] == [path.name]
        assert quarantined[0].read_text(encoding="utf-8") == '{"v": 1'

    def test_bit_flipped_entry_is_quarantined_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY, {"v": 1})
        assert flip_cache_bytes(cache) == 1

        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(KEY) is None
        assert fresh.stats.corrupt == 1

    def test_non_dict_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY, {"v": 1})
        path = _entry_files(cache)[0]
        path.write_text("[1, 2, 3]", encoding="utf-8")  # valid JSON, wrong shape

        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(KEY) is None
        assert fresh.stats.corrupt == 1

    def test_recompute_rewrites_entry_cleanly(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY, {"v": 1})
        _entry_files(cache)[0].write_text("garbage", encoding="utf-8")

        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(KEY) is None  # quarantined
        fresh.put(KEY, {"v": 2})  # caller recomputes and rewrites
        assert fresh.get(KEY) == {"v": 2}
        again = ResultCache(cache_dir=tmp_path)
        assert again.get(KEY) == {"v": 2}
        assert again.stats.corrupt == 0

    def test_missing_entry_is_plain_miss_not_corrupt(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        assert cache.get(KEY) is None
        assert cache.stats.corrupt == 0
        assert cache.stats.misses == 1

    def test_stats_merge_and_render_cover_corrupt(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY, {"v": 1})
        _entry_files(cache)[0].write_text("x", encoding="utf-8")
        fresh = ResultCache(cache_dir=tmp_path)
        fresh.get(KEY)
        merged = ResultCache().stats
        merged.merge(fresh.stats)
        assert merged.corrupt == 1
        assert merged.as_dict()["corrupt"] == 1
        assert "1 corrupt entry quarantined" in merged.render()
        # Healthy caches never mention quarantine.
        assert "corrupt" not in ResultCache().stats.render()


class TestEndToEnd:
    def test_suite_survives_cache_corruption_bit_for_bit(
        self, baseline, tmp_path
    ):
        # Warm the cache, flip a byte in *every* persistent entry
        # (kernel-level and characterization-level alike), then rerun:
        # each corrupt entry is a quarantined miss, everything is
        # recomputed, and the results stay bit-for-bit correct.
        warm = run_slice(cache_dir=tmp_path)
        assert warm.results == baseline.results
        total = ResultCache(cache_dir=tmp_path).persistent_entries()
        assert flip_cache_bytes(
            ResultCache(cache_dir=tmp_path), max_files=total
        ) == total

        rerun_cache = ResultCache(cache_dir=tmp_path)
        rerun = run_slice(cache=rerun_cache)
        assert rerun.ok
        assert rerun.results == baseline.results
        assert rerun_cache.stats.corrupt >= len(baseline.results)
        assert (tmp_path / "corrupt").is_dir()

        # Third run: the rewritten entries serve cleanly again.
        third_cache = ResultCache(cache_dir=tmp_path)
        third = run_slice(cache=third_cache)
        assert third.results == baseline.results
        assert third_cache.stats.corrupt == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_schema_invalid_entry_is_quarantined_not_a_hit(
        self, baseline, tmp_path, jobs
    ):
        # Valid JSON, valid dict, but not a characterization: the engine
        # must count it corrupt and quarantine it, not report a hit.
        run_slice(cache_dir=tmp_path)
        key = characterization_key(
            RTX_3080, SimulationOptions(), "GMS",
            LAPTOP_SCALE.for_workload("GMS"), LAPTOP_SCALE.seed,
        )
        entry = ResultCache(cache_dir=tmp_path).version_dir / key[:2] / (
            f"{key}.json"
        )
        digest = json.loads(entry.read_text(encoding="utf-8"))["stream_digest"]
        entry.write_text(json.dumps({"stream_digest": digest}), encoding="utf-8")

        rerun_cache = ResultCache(cache_dir=tmp_path)
        rerun = run_slice(cache=rerun_cache, jobs=jobs)
        assert rerun.results == baseline.results
        stats = rerun_cache.stats
        assert (stats.disk_hits, stats.misses, stats.corrupt, stats.stores) == (
            len(baseline.results) - 1, 1, 1, 1
        )
        profile = rerun.run_profile
        assert profile.counter("cache.disk_hits") == stats.disk_hits
        assert profile.counter("cache.misses") == 1
        assert profile.counter("cache.corrupt") == 1
        assert profile.histograms["span.stream-gen_s"]["count"] == 1
        assert (tmp_path / "corrupt" / entry.name).exists()
        # The recompute rewrote the entry: the next run is all hits.
        third_cache = ResultCache(cache_dir=tmp_path)
        assert run_slice(cache=third_cache).results == baseline.results
        assert third_cache.stats.hit_rate == 1.0

    def test_corrupt_cache_fault_kind_round_trips(self, baseline, tmp_path):
        # The CORRUPT_CACHE fault kind flips bytes *after* the workload
        # completes — the run that planted the corruption is unaffected,
        # and a cold scan of the persistent tier quarantines exactly the
        # corrupted entry.
        plan = FaultPlan.single("GMS", CORRUPT_CACHE)
        first = run_slice(cache=ResultCache(cache_dir=tmp_path), fault_plan=plan)
        assert first.results == baseline.results

        scanner = ResultCache(cache_dir=tmp_path)
        for path in sorted(scanner.version_dir.glob("*/*.json")):
            scanner.get(path.stem)
        assert scanner.stats.corrupt == 1

        rerun = run_slice(cache_dir=tmp_path)
        assert rerun.results == baseline.results

    def test_corrupt_cache_fault_reaches_sweeps(self, sweep_baseline, tmp_path):
        # Sweeps run the same attempt body as suite runs, so the
        # post-work hook fires there too — once per attempt, whatever
        # the device count: exactly one entry is left corrupted.
        plan = FaultPlan.single("GMS", CORRUPT_CACHE)
        first = run_sweep_slice(cache_dir=str(tmp_path), fault_plan=plan)
        assert first.results == sweep_baseline.results

        scanner = ResultCache(cache_dir=tmp_path)
        for path in sorted(scanner.version_dir.glob("*/*.json")):
            scanner.get(path.stem)
        assert scanner.stats.corrupt == 1

        rerun = run_sweep_slice(cache_dir=str(tmp_path))
        assert rerun.results == sweep_baseline.results

    def test_quarantined_files_do_not_count_as_entries(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY, {"v": 1})
        before = cache.persistent_entries()
        _entry_files(cache)[0].write_text("x", encoding="utf-8")
        fresh = ResultCache(cache_dir=tmp_path)
        fresh.get(KEY)
        # The quarantine dir lives outside the version tree, so the
        # moved file no longer counts as a cache entry.
        assert fresh.persistent_entries() == before - 1
        assert (tmp_path / "corrupt" / f"{KEY}.json").exists()
