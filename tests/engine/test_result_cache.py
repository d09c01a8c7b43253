"""Unit tests for the result cache (one directory, one tier)."""

import io
import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.core.cache import CacheStats, ResultCache
from repro.core.characterize import characterize
from repro.core.journal import JOURNAL_SCHEMA_VERSION, RunJournal
from repro.core.serialize import cache_entry_to_dict
from repro.gpu.digest import CACHE_SCHEMA_VERSION, source_fingerprint
from repro.workloads.registry import get_workload

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


class TestPersistentTier:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, {"value": 1})
        assert cache.get(KEY_A) == {"value": 1}
        assert cache.stats.disk_hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_needs_a_directory(self):
        with pytest.raises(TypeError):
            ResultCache()
        with pytest.raises(ValueError):
            ResultCache(cache_dir="")

    def test_survives_process_boundary_simulation(self, tmp_path):
        ResultCache(cache_dir=tmp_path).put(KEY_A, {"value": 42})
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(KEY_A) == {"value": 42}
        assert fresh.stats.disk_hits == 1

    def test_layout_is_versioned_and_fanned_out(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY_A, {"v": 1})
        version = f"v{CACHE_SCHEMA_VERSION}-{source_fingerprint()[:16]}"
        expected = tmp_path / version / KEY_A[:2] / f"{KEY_A}.json"
        assert cache.version_dir == tmp_path / version
        assert expected.is_file()
        assert json.loads(expected.read_text()) == {"v": 1}

    def test_corrupt_entry_is_a_quarantined_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY_A, {"v": 1})
        path = cache._path(KEY_A)
        path.write_text("{ not json", encoding="utf-8")
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(KEY_A) is None
        assert fresh.stats.misses == 1
        assert fresh.stats.corrupt == 1
        # Moved aside for post-mortem inspection, not left in place.
        assert not path.exists()
        assert (tmp_path / "corrupt" / path.name).is_file()

    def test_every_hit_reads_the_file(self, tmp_path):
        ResultCache(cache_dir=tmp_path).put(KEY_A, {"v": 1})
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(KEY_A) == {"v": 1}
        fresh._path(KEY_A).write_text('{"v": 2}', encoding="utf-8")
        assert fresh.get(KEY_A) == {"v": 2}
        assert fresh.stats.disk_hits == 2

    def test_persistent_entries_counts_current_version(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY_A, {"v": 1})
        cache.put(KEY_B, {"v": 2})
        assert cache.persistent_entries() == 2

    def test_prune_drops_stale_version_trees(self, tmp_path):
        # An older schema, an older model source (same schema, other
        # fingerprint) and the stream tree older versions kept beside.
        stale = ["v0", f"v{CACHE_SCHEMA_VERSION}-{'0' * 16}", "streams"]
        for name in stale:
            (tmp_path / name / "ab").mkdir(parents=True)
            (tmp_path / name / "ab" / ("ab" + "0" * 62 + ".json")).write_text("{}")
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY_A, {"v": 1})
        assert cache.prune() == len(stale)
        assert not any((tmp_path / name).exists() for name in stale)
        assert cache.persistent_entries() == 1


class TestSourceFingerprint:
    @pytest.fixture
    def tree(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).parent, root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return root

    def test_copy_matches_the_package(self, tree):
        assert source_fingerprint(tree) == source_fingerprint()

    def test_model_edit_changes_it(self, tree):
        before = source_fingerprint(tree)
        model = tree / "gpu" / "batched.py"
        source = model.read_text()
        edited = source.replace(
            "BARRIER_LATENCY_CYCLES = 120.0", "BARRIER_LATENCY_CYCLES = 121.0"
        )
        assert edited != source
        model.write_text(edited)
        assert source_fingerprint(tree) != before

    @pytest.mark.parametrize(
        "name", ["cli.py", "service/jobs.py", "obs/spans.py"]
    )
    def test_front_end_edit_keeps_it(self, tree, name):
        before = source_fingerprint(tree)
        path = tree / name
        path.write_text(path.read_text() + "\n# comment\n")
        assert source_fingerprint(tree) == before


class TestStats:
    def test_merge_and_render(self):
        a = CacheStats(disk_hits=3, misses=3, stores=4)
        b = CacheStats(disk_hits=30, misses=30, stores=40, corrupt=2)
        a.merge(b)
        assert a.as_dict() == {
            "disk_hits": 33,
            "misses": 33,
            "stores": 44,
            "corrupt": 2,
        }
        assert a.hits == 33
        assert a.lookups == 66
        assert "hit rate 50%" in a.render()
        assert "2 corrupt entries quarantined" in a.render()

    def test_proxy_tier_absent_from_render_when_zero(self):
        stats = CacheStats(disk_hits=1, misses=1)
        assert "proxy" not in stats.render()

    def test_from_dict_loads_legacy_proxy_hits_payload(self):
        # Persisted service job records written before the similarity
        # proxy and the in-memory tier were removed still carry their
        # counters.
        legacy = {
            "memory_hits": 1, "disk_hits": 2, "misses": 3,
            "stores": 4, "corrupt": 0, "proxy_hits": 7,
        }
        stats = CacheStats.from_dict(legacy)
        assert stats == CacheStats(disk_hits=2, misses=3, stores=4)
        assert "proxy_hits" not in stats.as_dict()
        assert "memory_hits" not in stats.as_dict()

    def test_empty_stats(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert "0/0 hits" in stats.render()


class TestJsonBytes:
    """``atomic_write_json`` writes with ``json.dumps`` (the C encoder);
    cache entries and the journal's ``run.json`` must keep the exact
    bytes the pure-Python ``json.dump`` encoder wrote before."""

    @pytest.fixture(scope="class")
    def characterization(self):
        return characterize(get_workload("GMS", scale=0.05))

    @staticmethod
    def legacy_bytes(payload):
        buffer = io.StringIO()
        json.dump(payload, buffer, separators=(",", ":"))
        return buffer.getvalue().encode("utf-8")

    def test_cache_entry_matches_json_dump(self, tmp_path, characterization):
        payload = cache_entry_to_dict(characterization, "ab" * 32, 0.25)
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(KEY_A, payload)
        written = cache._path(KEY_A).read_bytes()
        assert written == self.legacy_bytes(payload)
        assert list(cache._path(KEY_A).parent.glob("*.tmp")) == []

    def test_journal_marker_matches_json_dump(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.begin(["gms"])
        expected = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "selected": ["GMS"],
            "status": "running",
            "done": [],
        }
        assert journal.run_path.read_bytes() == self.legacy_bytes(expected)
        journal.mark_done("gms")
        expected["done"] = ["GMS"]
        assert journal.run_path.read_bytes() == self.legacy_bytes(expected)
        assert RunJournal.peek(tmp_path)["done"] == ["GMS"]
