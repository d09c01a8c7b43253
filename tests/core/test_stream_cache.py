"""Stream cache: lossless round trips, disjoint keys, schema safety."""

import pytest

from repro.core.cache import characterization_key
from repro.core.streamcache import (
    STREAM_CACHE_SCHEMA_VERSION,
    StreamCache,
    launches_from_payload,
    launches_to_payload,
    stream_key,
)
from repro.gpu.digest import launch_stream_digest
from repro.workloads import get_workload

@pytest.fixture(scope="module")
def stream():
    return list(get_workload("GMS", scale=0.05, seed=7).launch_stream())


class TestRoundTrip:
    def test_payload_round_trip_is_lossless(self, stream):
        rebuilt = launches_from_payload(launches_to_payload(stream))
        assert rebuilt == stream
        # Bit-exactness in one shot: the content digest the result
        # cache keys on is computed from every float in the stream.
        assert launch_stream_digest(rebuilt) == launch_stream_digest(stream)

    def test_rebuilt_stream_shares_kernel_objects(self, stream):
        """Equal kernels deserialize to one object — the simulator's
        per-kernel memo and metric sharing rely on cheap equality."""
        rebuilt = launches_from_payload(launches_to_payload(stream))
        distinct = {id(ln.kernel) for ln in rebuilt}
        assert len(distinct) == len({ln.kernel for ln in stream})

    def test_disk_round_trip(self, stream, tmp_path):
        cache = StreamCache(cache_dir=tmp_path)
        key = stream_key("GMS", 0.05, 7)
        assert cache.get(key) is None
        cache.put(key, stream)
        # A fresh handle (fresh process in real life) sees it.
        again = StreamCache(cache_dir=tmp_path).get(key)
        assert again == stream


class TestKeys:
    def test_key_varies_with_every_component(self):
        base = stream_key("GMS", 0.05, 7, steady_state=True)
        assert base != stream_key("GMS", 0.06, 7)
        assert base != stream_key("GMS", 0.05, 8)
        assert base != stream_key("GMS", 0.05, 7, steady_state=False)
        assert base != stream_key("LMR", 0.05, 7)

    def test_disjoint_from_characterization_keys(self):
        """Stream keys can never collide with result-cache keys for the
        same recipe — different digest tag."""
        from repro.gpu.device import RTX_3080
        from repro.gpu.simulator import SimulationOptions

        skey = stream_key("GMS", 0.05, 7)
        ckey = characterization_key(
            RTX_3080, SimulationOptions(), "GMS", 0.05, 7
        )
        assert skey != ckey


class TestSchemaSafety:
    def test_schema_mismatch_is_a_miss(self, stream, tmp_path):
        cache = StreamCache(cache_dir=tmp_path)
        key = stream_key("GMS", 0.05, 7)
        payload = launches_to_payload(stream)
        payload["schema"] = STREAM_CACHE_SCHEMA_VERSION + 1
        cache.backend.put(key, payload)
        assert cache.get(key) is None

    def test_corrupt_payload_is_a_miss(self, stream, tmp_path):
        cache = StreamCache(cache_dir=tmp_path)
        key = stream_key("GMS", 0.05, 7)
        payload = launches_to_payload(stream)
        del payload["kernels"][0]["mix"]
        cache.backend.put(key, payload)
        assert cache.get(key) is None

    def test_from_payload_raises_on_bad_schema(self, stream):
        payload = launches_to_payload(stream)
        payload["schema"] = "banana"
        with pytest.raises(ValueError):
            launches_from_payload(payload)
