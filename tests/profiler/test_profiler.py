"""Tests for the profiler, steady-state selection, and trace export."""

import pytest

from repro.core import characterize
from repro.gpu import (
    RTX_3080,
    KernelCharacteristics,
    KernelLaunch,
    LaunchStream,
    MemoryFootprint,
)
from repro.gpu.batched import simulate_devices
from repro.profiler import (
    Profiler,
    export_trace,
    select_steady_state,
)
from repro.workloads.base import Workload, WorkloadInfo
from tests.oracles import load_trace


def make_kernel(name, insts=1e6):
    return KernelCharacteristics(
        name=name,
        grid_blocks=128,
        threads_per_block=256,
        warp_insts=insts,
        memory=MemoryFootprint(bytes_read=1e6),
    )


class _FakeWorkload(Workload):
    """Deterministic workload: warm-up launches then repeated cycles."""

    repetitive = True

    def __init__(self, cycles=10, scale=1.0, seed=0):
        info = WorkloadInfo(
            name="fake", abbr="FAKE", suite="test", domain="test"
        )
        super().__init__(info, scale=scale, seed=seed)
        self.cycles = cycles

    def launch_stream(self):
        stream = LaunchStream()
        stream.launch(make_kernel("init"))
        for _ in range(self.cycles):
            stream.launch(make_kernel("force", insts=4e6))
            stream.launch(make_kernel("integrate", insts=1e6))
        return stream


class TestProfiler:
    def test_profile_aggregates_by_name(self):
        profile = characterize(_FakeWorkload(cycles=8)).profile
        names = {k.name for k in profile.kernels}
        assert names <= {"init", "force", "integrate"}
        force = next(k for k in profile.kernels if k.name == "force")
        assert force.invocations >= 2

    def test_steady_state_drops_warmup(self):
        """prepare_stream crops a repetitive workload to its steady state."""
        repetitive = _FakeWorkload(cycles=20)
        cropped = Profiler().prepare_stream(repetitive)
        assert cropped and all(l.name != "init" for l in cropped)

    def test_no_steady_state_keeps_warmup(self):
        """prepare_stream keeps a non-repetitive workload whole."""
        one_shot = _FakeWorkload(cycles=20)
        one_shot.repetitive = False
        whole = Profiler().prepare_stream(one_shot)
        assert [l.name for l in whole] == ["init"] + ["force", "integrate"] * 20

    def test_empty_stream_rejected(self):
        class Empty(Workload):
            def __init__(self):
                super().__init__(
                    WorkloadInfo(name="e", abbr="E", suite="s", domain="d")
                )

            def launch_stream(self):
                return LaunchStream()

        with pytest.raises(ValueError, match="empty launch stream"):
            characterize(Empty())

    def test_profile_metadata(self):
        profile = characterize(_FakeWorkload()).profile
        assert profile.workload == "fake"
        assert profile.suite == "test"


class TestSteadyStateSelection:
    def test_detects_period(self):
        launches = [KernelLaunch(kernel=make_kernel("w"))]
        cycle = [
            KernelLaunch(kernel=make_kernel("a")),
            KernelLaunch(kernel=make_kernel("b")),
            KernelLaunch(kernel=make_kernel("c")),
        ]
        for _ in range(10):
            launches.extend(cycle)
        window = select_steady_state(launches, warmup_fraction=0.2)
        names = [launch.name for launch in window]
        assert len(names) % 3 == 0
        assert "w" not in names

    def test_aperiodic_stream_returned_whole(self):
        launches = [
            KernelLaunch(kernel=make_kernel(f"k{i}")) for i in range(30)
        ]
        window = select_steady_state(launches)
        assert len(window) == 30

    def test_short_stream_returned_whole(self):
        launches = [KernelLaunch(kernel=make_kernel("a"))] * 3
        assert len(select_steady_state(launches)) == 3

    def test_invalid_warmup_fraction(self):
        with pytest.raises(ValueError, match="warmup_fraction"):
            select_steady_state([], warmup_fraction=1.0)


class TestTraceExport:
    def test_roundtrip(self, tmp_path):
        stream = _FakeWorkload(cycles=3).launch_stream()
        path = tmp_path / "trace.jsonl"
        count = export_trace(stream, path)
        assert count == len(stream)
        loaded = load_trace(path)
        assert [l.name for l in loaded] == [l.name for l in stream]
        assert loaded[0].kernel == stream[0].kernel

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace_version": 99}\n')
        with pytest.raises(ValueError, match="trace version"):
            load_trace(path)

    def test_replay_produces_identical_profile(self, tmp_path):
        workload = _FakeWorkload(cycles=5)
        stream = workload.launch_stream()
        path = tmp_path / "trace.jsonl"
        export_trace(stream, path)
        def profile(launches, name):
            metrics = simulate_devices(launches, [RTX_3080])[0]
            return Profiler().profile_metrics(launches, metrics, workload=name)

        direct = profile(stream, "direct")
        replayed = profile(load_trace(path), "replay")
        assert direct.total_time_s == pytest.approx(replayed.total_time_s)
        assert direct.num_kernels == replayed.num_kernels


from hypothesis import given, settings
from hypothesis import strategies as st


class TestSteadyStateProperties:
    @given(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=6),
        st.integers(3, 12),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_periodic_streams_crop_to_whole_periods(
        self, cycle, repeats, warmup
    ):
        """Any warm-up + repeated cycle crops to whole cycles only."""
        launches = [
            KernelLaunch(kernel=make_kernel(f"warm{i}"))
            for i in range(warmup)
        ]
        for _ in range(repeats):
            launches.extend(
                KernelLaunch(kernel=make_kernel(name)) for name in cycle
            )
        window = select_steady_state(launches, warmup_fraction=0.25)
        names = [launch.name for launch in window]
        if len(names) != len(launches):  # a crop happened
            # The cropped window contains no warm-up kernels...
            assert not any(n.startswith("warm") for n in names)
            # ...and is a whole number of *fundamental* periods (which
            # divides the declared cycle length, e.g. ["a","a"] -> 1).
            fundamental = next(
                p for p in range(1, len(cycle) + 1)
                if len(cycle) % p == 0
                and cycle == cycle[:p] * (len(cycle) // p)
            )
            assert len(names) % fundamental == 0

    @given(st.integers(2, 40))
    @settings(max_examples=20, deadline=None)
    def test_single_kernel_streams_survive(self, n):
        launches = [KernelLaunch(kernel=make_kernel("only"))] * n
        window = select_steady_state(launches)
        assert 0 < len(window) <= n
        assert all(l.name == "only" for l in window)

