"""Differential guards for the batched timing model.

The product runs the analytical model only as the (D, K) broadcast
pass of :mod:`repro.gpu.batched`.  These tests pin it **bit for bit**
against an independent implementation: the frozen per-kernel scalar
model in :mod:`tests.gpu.scalar_oracle`, run once per distinct kernel
and device.  They cover every zoo device on every pinned Cactus
workload at the laptop and observation presets, the simulator's option
ablations on every workload, and (via hypothesis) randomly perturbed
device specs — any float-level divergence in any :class:`KernelMetrics`
field is a failure, not a tolerance question.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LAPTOP_SCALE, OBSERVATION_SCALE
from repro.gpu import (
    DEVICE_ZOO,
    RTX_3080,
    V100,
    SimulationOptions,
    simulate_devices,
)
from repro.gpu.batched import batch_kernel_metrics
from repro.gpu.simulator import TimingOptions
from repro.workloads import get_workload, list_workloads
from tests.gpu.scalar_oracle import CacheModel, TimingModel

ZOO = list(DEVICE_ZOO.values())


class NoCacheModel(CacheModel):
    """Ablation cache model: all traffic is compulsory DRAM traffic."""

    def run(self, kernel):
        result = super().run(kernel)
        footprint = kernel.memory
        txn = self.device.dram_transaction_bytes
        total = footprint.total_access_bytes / footprint.coalescence
        read_share = (
            footprint.bytes_read / footprint.unique_bytes
            if footprint.unique_bytes > 0
            else 1.0
        )
        return type(result)(
            l1_hit_rate=0.0,
            l2_hit_rate=0.0,
            dram_transactions=total / txn,
            dram_read_bytes=total * read_share,
            dram_write_bytes=total * (1.0 - read_share),
            total_access_transactions=result.total_access_transactions,
        )


def scalar_metrics(launches, device, options=None):
    """Per-launch metrics from the scalar oracle, one model run per
    distinct kernel."""
    options = options or SimulationOptions()
    cache_model = (
        CacheModel(device) if options.model_caches else NoCacheModel(device)
    )
    model = TimingModel(device, cache_model=cache_model, options=options.timing)
    memo = {}
    records = []
    for launch in launches:
        metrics = memo.get(launch.kernel)
        if metrics is None:
            metrics = memo[launch.kernel] = model.run(launch.kernel)
        records.append(metrics)
    return records


def assert_streams_identical(batched, scalar, context=""):
    assert len(batched) == len(scalar), context
    for i, (b, s) in enumerate(zip(batched, scalar)):
        for f in dataclasses.fields(s):
            bv, sv = getattr(b, f.name), getattr(s, f.name)
            assert bv == sv, (
                f"{context} launch {i} field {f.name}: "
                f"batched={bv!r} scalar={sv!r}"
            )


def preset_streams(preset):
    """Every pinned Cactus workload's launch stream at *preset*, built
    one at a time."""
    for abbr in list_workloads("Cactus"):
        workload = get_workload(
            abbr, scale=preset.for_workload(abbr), seed=preset.seed
        )
        yield abbr, list(workload.launch_stream())


@pytest.fixture(scope="module")
def cactus_streams():
    """Every pinned Cactus workload's laptop-preset launch stream."""
    return dict(preset_streams(LAPTOP_SCALE))


def assert_sweeps_match_oracle(streams):
    """Every stream's 8-device sweep equals the oracle on each device."""
    for abbr, stream in streams:
        batched = simulate_devices(stream, ZOO)
        for device, per_device in zip(ZOO, batched):
            assert_streams_identical(
                per_device,
                scalar_metrics(stream, device),
                context=f"{abbr} on {device.name}",
            )


class TestBatchedEqualsScalar:
    def test_every_zoo_device_every_cactus_workload(self, cactus_streams):
        """The headline differential: 10 workloads x 8 devices."""
        assert_sweeps_match_oracle(cactus_streams.items())

    def test_every_zoo_device_every_cactus_workload_observation(self):
        """The same differential at the observation preset, whose
        streams hold more distinct kernels (GRU: 3,372)."""
        assert_sweeps_match_oracle(preset_streams(OBSERVATION_SCALE))

    @pytest.mark.parametrize(
        "options",
        [
            SimulationOptions(model_caches=False),
            SimulationOptions(
                timing=TimingOptions(
                    dram_efficiency=0.5, model_latency=False
                )
            ),
            SimulationOptions(
                timing=TimingOptions(model_launch_overhead=False)
            ),
        ],
        ids=["no-caches", "half-dram-no-latency", "no-overhead"],
    )
    def test_option_ablations(self, cactus_streams, options):
        """Every simulator switch takes the same branch in both paths."""
        for abbr, stream in cactus_streams.items():
            batched = simulate_devices(stream, ZOO, options=options)
            for device, per_device in zip(ZOO, batched):
                assert_streams_identical(
                    per_device,
                    scalar_metrics(stream, device, options),
                    context=f"{abbr}[{options!r}] on {device.name}",
                )

    def test_single_device_reduces_to_scalar_path(self, cactus_streams):
        """N=1 is the same batched pass, and must match the oracle too."""
        stream = cactus_streams["GRU"]
        for device in ZOO:
            (only,) = simulate_devices(stream, [device])
            assert_streams_identical(
                only, scalar_metrics(stream, device), device.name
            )

    def test_repeated_launches_share_one_record(self, cactus_streams):
        """Equal kernels map to one KernelMetrics object per device —
        the object-identity contract aggregate_launches groups by."""
        stream = cactus_streams["DCG"]
        assert len(stream) > len({ln.kernel for ln in stream})
        batched = simulate_devices(stream, [RTX_3080, V100])
        for per_device in batched:
            by_kernel = {}
            for launch, record in zip(stream, per_device):
                seen = by_kernel.setdefault(launch.kernel, record)
                assert seen is record

    def test_rejects_empty_and_duplicate_devices(self, cactus_streams):
        stream = cactus_streams["GST"]
        with pytest.raises(ValueError):
            simulate_devices(stream, [])
        with pytest.raises(ValueError):
            simulate_devices(stream, [RTX_3080, RTX_3080])

    def test_batch_kernel_metrics_orders_by_device_then_kernel(
        self, cactus_streams
    ):
        kernels = sorted(
            {ln.kernel for ln in cactus_streams["GMS"]},
            key=lambda k: k.name,
        )
        table = batch_kernel_metrics(kernels, ZOO)
        assert len(table) == len(ZOO)
        for row in table:
            assert [m.name for m in row] == [k.name for k in kernels]


device_perturbations = st.fixed_dictionaries(
    {},
    optional={
        "num_sms": st.integers(1, 256),
        "warp_schedulers_per_sm": st.integers(1, 8),
        "clock_ghz": st.floats(0.2, 3.5),
        "dram_bandwidth_gbs": st.floats(10.0, 4000.0),
        "l2_bytes": st.integers(256 * 1024, 128 * 1024 * 1024),
        "l1_bytes_per_sm": st.integers(16 * 1024, 512 * 1024),
        "max_warps_per_sm": st.integers(8, 64),
        "max_blocks_per_sm": st.integers(1, 32),
        "alu_latency_cycles": st.floats(2.0, 20.0),
        "l1_latency_cycles": st.floats(10.0, 80.0),
        "l2_latency_cycles": st.floats(80.0, 400.0),
        "dram_latency_cycles": st.floats(200.0, 900.0),
        "kernel_launch_overhead_s": st.floats(0.0, 1e-4),
    },
)


class TestBatchedProperties:
    @given(overrides=st.lists(device_perturbations, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_random_device_specs_stay_bit_exact(self, overrides):
        """Any plausible DeviceSpec, not just the curated zoo."""
        stream = self._stream()
        devices = [
            RTX_3080.with_overrides(name=f"perturbed-{i}", **kwargs)
            for i, kwargs in enumerate(overrides)
        ]
        batched = simulate_devices(stream, devices)
        for device, per_device in zip(devices, batched):
            assert_streams_identical(
                per_device,
                scalar_metrics(stream, device),
                context=device.name,
            )

    @staticmethod
    @functools.lru_cache(maxsize=1)
    def _stream():
        """Built once: every example reads the same (immutable) stream."""
        workload = get_workload("GST", scale=0.01, seed=3)
        return tuple(workload.launch_stream())
