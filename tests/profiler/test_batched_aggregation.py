"""Differential tests for the batched stream/profile aggregation.

``simulate_devices`` (through its one-device view
``GPUSimulator.run_stream``), the dict-ordered ``kernel_names``, the
incremental ``total_warp_insts`` and the matrix-reduction
``aggregate_launches`` all replaced Python generator loops; each must
agree with a faithful reimplementation of the original fold, and the
batched simulator with the frozen scalar timing model.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.batched import simulate_devices
from repro.gpu.device import RTX_3080
from repro.gpu.kernel import KernelCharacteristics, LaunchStream
from repro.gpu.metrics import SECONDARY_METRICS, KernelMetrics
from repro.gpu.simulator import GPUSimulator
from repro.profiler.profiler import Profiler
from repro.profiler.records import aggregate_launches
from repro.workloads.registry import get_workload
from tests.gpu.scalar_oracle import TimingModel


def _kernel(name: str, insts: float = 1e6) -> KernelCharacteristics:
    return KernelCharacteristics(
        name=name, grid_blocks=32, threads_per_block=128, warp_insts=insts
    )


def _weighted_mean(pairs):
    """Mean of (value, weight) pairs; 0 when total weight is 0."""
    total = 0.0
    weight_sum = 0.0
    for value, weight in pairs:
        total += value * weight
        weight_sum += weight
    return total / weight_sum if weight_sum > 0 else 0.0


def _legacy_aggregate(name, records):
    """The original generator-loop fold, verbatim."""
    total_time = sum(r.duration_s for r in records)
    total_insts = sum(r.warp_insts for r in records)
    total_txn = sum(r.dram_transactions for r in records)

    def avg(metric):
        return _weighted_mean(
            (getattr(r, metric), r.duration_s) for r in records
        )

    return {
        "total_time_s": total_time,
        "total_warp_insts": total_insts,
        "total_dram_transactions": total_txn,
        **{m: avg(m) for m in SECONDARY_METRICS},
    }


@given(
    num_unique=st.integers(1, 10),
    pattern_seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 300),
)
@settings(max_examples=40, deadline=None)
def test_aggregate_launches_matches_legacy_fold(
    num_unique, pattern_seed, length
):
    """Batched aggregation agrees with the sequential fold to float
    reassociation tolerance, on record sequences with the simulator's
    repeated-object structure."""
    rng = np.random.default_rng(pattern_seed)
    unique = []
    for i in range(num_unique):
        values = {m: float(rng.random()) for m in SECONDARY_METRICS}
        unique.append(
            KernelMetrics(
                name="k",
                duration_s=float(rng.uniform(1e-7, 1e-2)),
                warp_insts=float(rng.uniform(1e3, 1e9)),
                dram_transactions=float(rng.uniform(0, 1e7)),
                **values,
            )
        )
    records = [unique[i] for i in rng.integers(0, num_unique, size=length)]

    profile = aggregate_launches("k", records)
    expected = _legacy_aggregate("k", records)

    assert profile.invocations == len(records)
    assert profile.total_time_s == pytest.approx(
        expected["total_time_s"], rel=1e-12
    )
    assert profile.total_warp_insts == pytest.approx(
        expected["total_warp_insts"], rel=1e-12
    )
    assert profile.total_dram_transactions == pytest.approx(
        expected["total_dram_transactions"], rel=1e-12, abs=1e-12
    )
    for metric in SECONDARY_METRICS:
        assert getattr(profile.metrics, metric) == pytest.approx(
            expected[metric], rel=1e-9, abs=1e-12
        ), metric


def test_aggregate_launches_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_launches("k", [])


def test_run_stream_matches_per_launch_run():
    workload = get_workload("GRU", scale=0.001, seed=0)
    launches = list(workload.launch_stream())
    batched = GPUSimulator().run_stream(launches)
    # The scalar model, one kernel at a time: the batched pass's oracle.
    scalar = TimingModel(RTX_3080)
    reference = [scalar.run(l.kernel) for l in launches]
    assert len(batched) == len(launches)
    for got, want in zip(batched, reference):
        assert got == want


def test_run_stream_reuses_metrics_for_identical_kernels():
    k = _kernel("same")
    stream = LaunchStream()
    for _ in range(5):
        stream.launch(k)
    results = GPUSimulator().run_stream(stream)
    assert len(results) == 5
    assert all(r is results[0] for r in results)


def test_kernel_names_dedups_in_first_launch_order():
    stream = LaunchStream()
    for name in ["c", "a", "c", "b", "a", "c"]:
        stream.launch(_kernel(name))
    assert stream.kernel_names == ["c", "a", "b"]


def test_total_warp_insts_tracks_launch_and_extend():
    stream = LaunchStream()
    assert stream.total_warp_insts == 0.0
    stream.launch(_kernel("a", insts=1.5e6))
    other = LaunchStream([stream[0]])
    other.extend(
        LaunchStream([stream[0]])
    )
    stream.extend(other)
    expected = sum(launch.kernel.warp_insts for launch in stream)
    assert stream.total_warp_insts == expected
    assert other.total_warp_insts == 2 * 1.5e6


def test_profile_launches_equals_seed_shape_on_real_workload():
    """Full profiler pass: per-kernel invocation counts still partition
    the stream and totals match a direct per-launch fold."""
    workload = get_workload("GST", scale=0.001, seed=0)
    profiler = Profiler()
    stream = profiler.prepare_stream(workload)
    profile = profiler.profile_metrics(
        stream, simulate_devices(stream, [RTX_3080])[0], workload=workload.name
    )
    assert profile.total_invocations == len(stream)
    sim = GPUSimulator()
    direct_time = sum(sim.run_kernel(l.kernel).duration_s for l in stream)
    assert profile.total_time_s == pytest.approx(direct_time, rel=1e-9)
