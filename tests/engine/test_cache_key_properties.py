"""Property-based tests for the cache keys and content digests.

The cache is only sound if its keys are (a) stable — the same inputs
hash identically in every process, run, and ``PYTHONHASHSEED`` — and
(b) collision-free across distinct devices, simulation options and
workload recipes.  Hypothesis drives (b); a subprocess round trip
checks (a).  The stream digests stored beside each entry must be
collision-free across kernels.
"""

import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import characterization_key
from repro.gpu.device import RTX_3080, DeviceSpec
from repro.gpu.digest import (
    CACHE_SCHEMA_VERSION,
    canonicalize,
    kernel_digest,
    launch_stream_digest,
    stable_digest,
)
from repro.gpu.kernel import (
    InstructionMix,
    KernelCharacteristics,
    KernelLaunch,
    MemoryFootprint,
)
from repro.gpu.simulator import SimulationOptions, TimingOptions

def result_key(device, opts, abbr="PRB", scale=0.05, seed=0) -> str:
    """Characterization key of one workload recipe."""
    return characterization_key(device, opts, abbr, scale, seed)


# -- strategies --------------------------------------------------------

finite = st.floats(
    min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False
)
fraction = st.floats(min_value=0.0, max_value=0.2)

devices = st.builds(
    DeviceSpec,
    name=st.sampled_from(["A", "B", "dev"]),
    num_sms=st.integers(min_value=1, max_value=256),
    warp_schedulers_per_sm=st.integers(min_value=1, max_value=8),
    warp_insts_per_cycle=st.sampled_from([0.5, 1.0, 2.0]),
    clock_ghz=st.floats(min_value=0.5, max_value=3.0),
    dram_bandwidth_gbs=st.floats(min_value=50.0, max_value=4000.0),
)

options = st.builds(
    SimulationOptions,
    timing=st.builds(
        TimingOptions,
        dram_efficiency=st.floats(min_value=0.1, max_value=1.0),
        model_launch_overhead=st.booleans(),
        model_latency=st.booleans(),
    ),
    model_caches=st.booleans(),
)

kernels = st.builds(
    KernelCharacteristics,
    name=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=24,
    ),
    grid_blocks=st.integers(min_value=1, max_value=1 << 20),
    threads_per_block=st.integers(min_value=1, max_value=1024),
    warp_insts=finite,
    mix=st.builds(
        InstructionMix, fp32=fraction, ld_st=fraction,
        branch=fraction, sync=fraction,
    ),
    memory=st.builds(
        MemoryFootprint,
        bytes_read=finite,
        bytes_written=st.floats(min_value=0.0, max_value=1e9),
        reuse_factor=st.floats(min_value=1.0, max_value=64.0),
        l1_locality=st.floats(min_value=0.0, max_value=1.0),
        coalescence=st.floats(min_value=0.05, max_value=1.0),
    ),
    ilp=st.floats(min_value=1.0, max_value=8.0),
    mlp=st.floats(min_value=1.0, max_value=16.0),
)


# -- stability ---------------------------------------------------------

class TestStability:
    @given(devices, options)
    @settings(max_examples=50, deadline=None)
    def test_key_deterministic_within_process(self, device, opts):
        assert result_key(device, opts) == result_key(device, opts)

    @given(kernels)
    @settings(max_examples=50, deadline=None)
    def test_equal_objects_hash_equal(self, kernel):
        import dataclasses

        clone = dataclasses.replace(kernel)
        assert clone == kernel
        assert kernel_digest(clone) == kernel_digest(kernel)

    def test_key_stable_across_processes(self):
        """A fresh interpreter (different PYTHONHASHSEED) agrees."""
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "from repro.core.cache import characterization_key\n"
            "from repro.gpu.device import RTX_3080\n"
            "from repro.gpu.simulator import SimulationOptions\n"
            "print(characterization_key(RTX_3080, SimulationOptions(), "
            "'PRB', 0.05, 0))\n"
        )
        env = dict(os.environ)
        env.update({"PYTHONHASHSEED": "12345", "PYTHONPATH": src})
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        local = result_key(RTX_3080, SimulationOptions())
        assert out.stdout.strip() == local
        # Pinned: the key hashes the recipe only, so no source edit may
        # move it (model edits move the fingerprinted directory instead).
        assert local == (
            "e0131c75bdc447900331286217990792"
            "d5c1d9037f836d809793e1624ccdbc9a"
        )

    def test_pinned_digest_guards_schema_version(self):
        """Canonical-form changes MUST bump CACHE_SCHEMA_VERSION.

        If this assertion fires, the hashing scheme changed: either
        revert the change or bump
        ``repro.gpu.digest.CACHE_SCHEMA_VERSION`` (invalidating every
        persisted entry) and update the pinned value here.
        """
        assert CACHE_SCHEMA_VERSION == 1
        assert stable_digest(["pin", CACHE_SCHEMA_VERSION, 1.5, "x"]) == (
            "d01cc079ca414a75b2e2fe13b2eac22b"
            "cc12f392823a6b44e7ae2a3a5e8e8f74"
        )


# -- collision resistance ----------------------------------------------

class TestCollisions:
    @given(devices, devices, options)
    @settings(max_examples=50, deadline=None)
    def test_distinct_devices_never_collide(self, d1, d2, opts):
        assert (result_key(d1, opts) == result_key(d2, opts)) == (d1 == d2)

    @given(options, options)
    @settings(max_examples=50, deadline=None)
    def test_distinct_options_never_collide(self, o1, o2):
        k1 = result_key(RTX_3080, o1)
        k2 = result_key(RTX_3080, o2)
        assert (k1 == k2) == (o1 == o2)

    @given(
        st.sampled_from(["GMS", "GST", "PRB"]),
        st.floats(min_value=1e-3, max_value=1.0),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_distinct_recipes_never_collide(self, abbr, scale, seed):
        key = result_key(RTX_3080, SimulationOptions(), abbr, scale, seed)
        base = result_key(RTX_3080, SimulationOptions())
        assert (key == base) == ((abbr, scale, seed) == ("PRB", 0.05, 0))

    @given(kernels, kernels)
    @settings(max_examples=50, deadline=None)
    def test_distinct_kernels_never_collide(self, k1, k2):
        d1, d2 = kernel_digest(k1), kernel_digest(k2)
        assert (d1 == d2) == (k1 == k2)

    def test_no_cache_ablation_uses_distinct_key(self):
        """The no-cache ablation must not poison default entries."""
        default = result_key(RTX_3080, SimulationOptions())
        ablated = result_key(RTX_3080, SimulationOptions(model_caches=False))
        assert default != ablated

    def test_ablation_results_cached_separately(self, tmp_path):
        from repro.core import LAPTOP_SCALE, ResultCache, run_suite

        cache = ResultCache(cache_dir=tmp_path)
        modeled = run_suite(
            workloads=["GST"], preset=LAPTOP_SCALE, cache=cache
        )["GST"]
        ablated = run_suite(
            workloads=["GST"],
            preset=LAPTOP_SCALE,
            options=SimulationOptions(model_caches=False),
            cache=cache,
        )["GST"]
        # Different keys → the second run simulated (stored), not hit.
        assert cache.stats.hits == 0
        assert cache.stats.stores == 2
        assert cache.persistent_entries() == 2
        assert (
            ablated.aggregate_point.intensity
            != modeled.aggregate_point.intensity
        )


# -- stream digests ----------------------------------------------------

class TestStreamDigest:
    @given(st.lists(kernels, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_order_sensitive(self, kernel_list):
        launches = [KernelLaunch(kernel=k) for k in kernel_list]
        digest = launch_stream_digest(launches)
        assert digest == launch_stream_digest(launches)
        reordered = list(reversed(launches))
        if [l.kernel for l in reordered] != [l.kernel for l in launches]:
            assert launch_stream_digest(reordered) != digest

    def test_phase_and_stream_id_matter(self):
        kernel = KernelCharacteristics(
            name="k",
            grid_blocks=1,
            threads_per_block=32,
            warp_insts=1.0,
            memory=MemoryFootprint(bytes_read=32.0),
        )
        base = launch_stream_digest([KernelLaunch(kernel=kernel)])
        assert (
            launch_stream_digest([KernelLaunch(kernel=kernel, stream_id=1)])
            != base
        )
        assert (
            launch_stream_digest([KernelLaunch(kernel=kernel, phase="p")])
            != base
        )


class TestCanonicalize:
    def test_rejects_unhashable_types(self):
        import pytest

        with pytest.raises(TypeError):
            canonicalize(object())
        with pytest.raises(TypeError):
            canonicalize({1: "non-string key"})

    def test_float_exactness(self):
        # 0.1 + 0.2 != 0.3: the canonical form must distinguish them.
        assert stable_digest(0.1 + 0.2) != stable_digest(0.3)
