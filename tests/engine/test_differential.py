"""Differential tests: every engine execution mode agrees bit-for-bit.

The paper's science must not depend on *how* the pipeline ran.  The
full Cactus suite is characterized four ways — serial, process-pool
parallel, cold persistent cache, warm persistent cache — and every
resulting :class:`Characterization` must compare **equal** (dataclass
equality: every float identical, every kernel in the same order).
Any model change that breaks this equivalence is a bug in the engine,
not in the model.
"""

import dataclasses

import pytest

from repro.core import (
    LAPTOP_SCALE,
    CharacterizationEngine,
    ResultCache,
    characterize,
    run_suite,
)
from repro.core.serialize import (
    characterization_from_dict,
    characterization_to_dict,
)
from repro.gpu.digest import stable_digest
from repro.workloads import get_workload
from tests.oracles import diff_characterizations, diff_suite_results


@pytest.fixture(scope="module")
def serial_run():
    return run_suite(["Cactus"], preset=LAPTOP_SCALE)


class TestSerialVsParallel:
    def test_parallel_matches_serial_exactly(self, serial_run):
        parallel = run_suite(["Cactus"], preset=LAPTOP_SCALE, jobs=4)
        assert diff_suite_results(serial_run, parallel) == []
        assert serial_run.results == parallel.results

    def test_parallel_preserves_registration_order(self, serial_run):
        parallel = run_suite(["Cactus"], preset=LAPTOP_SCALE, jobs=3)
        assert list(parallel.results) == list(serial_run.results)


class TestEngineVsPlainCharacterize:
    @pytest.mark.parametrize("abbr", ["GST", "GRU", "LMC"])
    def test_run_suite_payload_equals_plain_characterize(self, serial_run, abbr):
        """The engine adds orchestration only: its payload digest equals
        the bare ``characterize()`` pipeline's for the same workload."""
        plain = characterize(
            get_workload(
                abbr,
                scale=LAPTOP_SCALE.for_workload(abbr),
                seed=LAPTOP_SCALE.seed,
            )
        )
        assert stable_digest(
            characterization_to_dict(serial_run[abbr])
        ) == stable_digest(characterization_to_dict(plain))


class TestColdAndWarmCache:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("engine-cache")

    def test_cold_cache_matches_serial(self, serial_run, cache_dir):
        cold_cache = ResultCache(cache_dir=cache_dir)
        cold = run_suite(["Cactus"], preset=LAPTOP_SCALE, cache=cold_cache)
        assert diff_suite_results(serial_run, cold) == []
        # Everything was computed and stored, nothing served warm at the
        # characterization level.  Characterizations are the only thing
        # persisted: one entry per workload, no per-kernel entries.
        assert cold_cache.stats.stores == len(cold) == 10
        assert cold_cache.persistent_entries() == len(cold)

    def test_warm_cache_matches_serial(self, serial_run, cache_dir):
        # Depends on test_cold_cache_matches_serial having populated
        # cache_dir (pytest runs the class in definition order).
        warm_cache = ResultCache(cache_dir=cache_dir)
        warm = run_suite(["Cactus"], preset=LAPTOP_SCALE, cache=warm_cache)
        assert warm_cache.stats.disk_hits == len(warm)
        assert warm_cache.stats.stores == 0
        assert diff_suite_results(serial_run, warm) == []
        assert serial_run.results == warm.results

    def test_warm_parallel_matches_serial(self, serial_run, cache_dir):
        warm_cache = ResultCache(cache_dir=cache_dir)
        warm = run_suite(
            ["Cactus"], preset=LAPTOP_SCALE, jobs=4, cache=warm_cache
        )
        assert diff_suite_results(serial_run, warm) == []


class TestSerializationRoundTrip:
    def test_characterization_round_trips_exactly(self, serial_run):
        for abbr, result in serial_run.results.items():
            clone = characterization_from_dict(
                characterization_to_dict(result)
            )
            assert diff_characterizations(result, clone, abbr) == []
            assert clone == result

    def test_json_round_trip_through_text(self, serial_run):
        import json

        result = serial_run["GMS"]
        text = json.dumps(characterization_to_dict(result))
        clone = characterization_from_dict(json.loads(text))
        assert clone == result

    def test_curve_and_tags_are_tuples_after_round_trip(self, serial_run):
        result = serial_run["GMS"]
        clone = characterization_from_dict(characterization_to_dict(result))
        assert all(isinstance(pair, tuple) for pair in clone.cumulative_curve)
        assert all(
            isinstance(k.tags, tuple) for k in clone.profile.kernels
        )
        assert all(
            isinstance(k.metrics.tags, tuple) for k in clone.profile.kernels
        )


class TestEngineBehaviour:
    def test_single_workload_cache_hit(self, tmp_path):
        first = run_suite(
            workloads=["GST"], cache=ResultCache(cache_dir=tmp_path)
        )
        warm = ResultCache(cache_dir=tmp_path)
        again = run_suite(workloads=["GST"], cache=warm)
        assert warm.stats.disk_hits == 1 and warm.stats.stores == 0
        assert first.results == again.results

    def test_different_scale_misses(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        first = run_suite(workloads=["GST"], cache=cache)["GST"]
        stores_before = cache.stats.stores
        smaller = dataclasses.replace(LAPTOP_SCALE, graph=0.004)
        second = run_suite(workloads=["GST"], preset=smaller, cache=cache)
        # The app-level entry cannot be reused: the recipe (and
        # therefore the key) differs, so the second run computed and
        # stored a fresh entry.
        assert cache.stats.stores > stores_before
        assert first != second["GST"]

    def test_warm_run_generates_no_stream(self, tmp_path):
        run_suite(workloads=["GST", "DCG"], cache_dir=str(tmp_path))
        warm = run_suite(workloads=["GST", "DCG"], cache_dir=str(tmp_path))
        histograms = warm.run_profile.histograms
        assert "span.stream-gen_s" not in histograms
        assert histograms["span.cache-lookup_s"]["count"] == 2

    def test_engine_selects_in_registration_order(self):
        engine = CharacterizationEngine()
        assert engine.select(["Cactus"])[:3] == ["GMS", "LMR", "LMC"]
        assert engine.select(["Cactus"], workloads=["lgt", "GMS"]) == [
            "GMS",
            "LGT",
        ]
        with pytest.raises(ValueError):
            engine.select(["Cactus"], workloads=["NOPE"])

    def test_memory_only_cache_serves_second_call(self):
        engine = CharacterizationEngine(cache=ResultCache())
        a = engine.run_suite(["Cactus"], preset=LAPTOP_SCALE,
                             workloads=["GRU"])
        stores = engine.cache_stats.stores
        b = engine.run_suite(["Cactus"], preset=LAPTOP_SCALE,
                             workloads=["GRU"])
        assert engine.cache_stats.memory_hits >= 1
        assert engine.cache_stats.stores == stores
        assert a.results == b.results
