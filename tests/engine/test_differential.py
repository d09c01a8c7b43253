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
import json

import pytest

from repro.core import (
    LAPTOP_SCALE,
    CharacterizationEngine,
    ResultCache,
    characterize,
    run_suite,
    run_sweep,
)
from repro.core.serialize import (
    METRIC_FIELDS,
    cache_entry_from_dict,
    cache_entry_to_dict,
    characterization_to_dict,
)
from repro.gpu.device import H100, RTX_3080, V100
from repro.gpu.digest import stable_digest
from repro.workloads import get_workload
from repro.workloads.registry import select_workloads
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


def stored_compute_s(cache):
    """The compute seconds every entry of *cache* recorded."""
    return sum(
        json.loads(path.read_text())["compute_s"]
        for path in cache.version_dir.glob("*/*.json")
    )


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
        assert cold.run_profile.counter("cache.saved_s") == 0.0

    def test_warm_cache_matches_serial(self, serial_run, cache_dir):
        # Depends on test_cold_cache_matches_serial having populated
        # cache_dir (pytest runs the class in definition order).
        warm_cache = ResultCache(cache_dir=cache_dir)
        warm = run_suite(["Cactus"], preset=LAPTOP_SCALE, cache=warm_cache)
        assert warm_cache.stats.disk_hits == len(warm)
        assert warm_cache.stats.stores == 0
        assert diff_suite_results(serial_run, warm) == []
        assert serial_run.results == warm.results
        assert warm.run_profile.counter("cache.saved_s") == pytest.approx(
            stored_compute_s(warm_cache)
        )

    def test_warm_parallel_matches_serial(self, serial_run, cache_dir):
        warm_cache = ResultCache(cache_dir=cache_dir)
        warm = run_suite(
            ["Cactus"], preset=LAPTOP_SCALE, jobs=4, cache=warm_cache
        )
        assert diff_suite_results(serial_run, warm) == []
        # Hits in pool workers count in the run that launched them.
        assert warm.run_profile.counter("cache.saved_s") == pytest.approx(
            stored_compute_s(warm_cache)
        )


def entry(result):
    return cache_entry_to_dict(result, "ab" * 32, 0.5)


class TestSerializationRoundTrip:
    """A cache entry stores the profile; decoding rederives the rest."""

    def test_characterization_round_trips_exactly(self, serial_run):
        for abbr, result in serial_run.results.items():
            clone = cache_entry_from_dict(entry(result), RTX_3080)
            assert diff_characterizations(result, clone, abbr) == []
            assert clone == result

    def test_json_round_trip_through_text(self, serial_run):
        result = serial_run["GMS"]
        text = json.dumps(entry(result))
        clone = cache_entry_from_dict(json.loads(text), RTX_3080)
        assert clone == result

    def test_curve_and_tags_are_tuples_after_round_trip(self, serial_run):
        result = serial_run["GMS"]
        clone = cache_entry_from_dict(
            json.loads(json.dumps(entry(result))), RTX_3080
        )
        assert all(isinstance(pair, tuple) for pair in clone.cumulative_curve)
        assert all(
            isinstance(k.tags, tuple) for k in clone.profile.kernels
        )
        assert all(
            isinstance(k.metrics.tags, tuple) for k in clone.profile.kernels
        )

    def test_every_sweep_result_round_trips(self):
        """Every (workload, device) of a 3-device sweep decodes, on its
        own device, to the result it was encoded from."""
        devices = [RTX_3080, V100, H100]
        sweep = run_sweep(devices, preset=LAPTOP_SCALE)
        assert len(sweep.results) == 10
        for abbr, per_device in sweep.results.items():
            for device in devices:
                result = per_device[device.name]
                text = json.dumps(entry(result))
                clone = cache_entry_from_dict(json.loads(text), device)
                assert clone == result, f"{abbr}@{device.name}"
                assert characterization_to_dict(
                    clone
                ) == characterization_to_dict(result)

    def test_entry_holds_one_metric_row_per_kernel(self, serial_run):
        result = serial_run["GMS"]
        payload = entry(result)
        assert sorted(payload) == [
            "abbr", "compute_s", "domain", "fields", "rows",
            "stream_digest", "suite", "workload",
        ]
        assert payload["fields"] == list(METRIC_FIELDS)
        assert [row[0] for row in payload["rows"]] == [
            k.name for k in result.profile.kernels
        ]
        assert all(len(row) == len(METRIC_FIELDS) for row in payload["rows"])

    @pytest.mark.parametrize(
        "damage", ["renamed-field", "short-row", "no-rows"]
    )
    def test_mismatched_layout_is_rejected(self, serial_run, damage):
        payload = json.loads(json.dumps(entry(serial_run["GMS"])))
        if damage == "renamed-field":
            payload["fields"][1] = "time_s"
        elif damage == "short-row":
            payload["rows"][0].pop()
        else:
            payload["rows"] = []
        with pytest.raises(ValueError):
            cache_entry_from_dict(payload, RTX_3080)


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
        run_suite(workloads=["GST", "DCG"], cache=ResultCache(tmp_path))
        warm = run_suite(workloads=["GST", "DCG"], cache=ResultCache(tmp_path))
        histograms = warm.run_profile.histograms
        assert "span.stream-gen_s" not in histograms
        assert histograms["span.cache-lookup_s"]["count"] == 2

    def test_engine_selects_in_registration_order(self):
        assert select_workloads(["Cactus"])[:3] == ["GMS", "LMR", "LMC"]
        assert select_workloads(["Cactus"], workloads=["lgt", "GMS"]) == [
            "GMS",
            "LGT",
        ]
        with pytest.raises(ValueError):
            CharacterizationEngine().run_sweep([RTX_3080], workloads=["NOPE"])

    def test_disk_cache_serves_second_call(self, tmp_path):
        engine = CharacterizationEngine(cache=ResultCache(cache_dir=tmp_path))
        a = engine.run_sweep([RTX_3080], ["Cactus"], preset=LAPTOP_SCALE,
                             workloads=["GRU"])
        stores = engine.cache_stats.stores
        b = engine.run_sweep([RTX_3080], ["Cactus"], preset=LAPTOP_SCALE,
                             workloads=["GRU"])
        assert engine.cache_stats.disk_hits >= 1
        assert engine.cache_stats.stores == stores
        assert a.results == b.results
