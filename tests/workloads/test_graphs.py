"""Tests for the graph-analytics workload substrate."""

import numpy as np
import pytest

from repro.core import characterize
from repro.workloads.graphs import (
    CSRGraph,
    RoadBFS,
    SocialBFS,
    road_network,
    social_network,
)
from tests.oracles import reference_levels


class TestCSRGraph:
    def test_from_edges_roundtrip(self):
        src = np.array([0, 0, 1, 2, 2, 2])
        dst = np.array([1, 2, 2, 0, 1, 3])
        graph = CSRGraph.from_edges(4, src, dst)
        assert graph.num_vertices == 4
        assert graph.num_edges == 6
        assert sorted(graph.neighbors(0).tolist()) == [1, 2]
        assert sorted(graph.neighbors(2).tolist()) == [0, 1, 3]
        assert graph.neighbors(3).tolist() == []

    def test_out_degrees(self):
        graph = CSRGraph.from_edges(3, np.array([0, 0, 1]), np.array([1, 2, 0]))
        assert graph.out_degrees().tolist() == [2, 1, 0]

    def test_frontier_edges(self):
        graph = CSRGraph.from_edges(3, np.array([0, 0, 1]), np.array([1, 2, 0]))
        assert graph.frontier_edges(np.array([0, 1])) == 3

    def test_expand_keeps_duplicates(self):
        graph = CSRGraph.from_edges(
            3, np.array([0, 1, 1]), np.array([2, 2, 2])
        )
        out = graph.expand(np.array([0, 1]))
        assert sorted(out.tolist()) == [2, 2, 2]

    def test_expand_empty_frontier(self):
        graph = CSRGraph.from_edges(2, np.array([0]), np.array([1]))
        assert graph.expand(np.array([], dtype=np.int64)).size == 0

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph(np.array([1, 2]), np.array([0]))
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1]), np.array([0]))

    def test_validation_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="out-of-range"):
            CSRGraph(np.array([0, 1]), np.array([5]))


class TestGenerators:
    def test_social_has_power_law_skew(self):
        graph = social_network(20_000, seed=1)
        degrees = graph.out_degrees()
        assert degrees.max() > 40 * degrees.mean()

    def test_social_average_degree(self):
        graph = social_network(20_000, avg_degree=12.6, seed=1)
        assert graph.avg_degree == pytest.approx(12.6, rel=0.1)

    def test_road_is_low_degree_uniform(self):
        graph = road_network(20_000, seed=1)
        degrees = graph.out_degrees()
        assert degrees.max() <= 4
        assert 2.0 < graph.avg_degree < 2.8

    def test_generators_deterministic(self):
        a = social_network(5_000, seed=3)
        b = social_network(5_000, seed=3)
        assert np.array_equal(a.indices, b.indices)

    def test_social_validation(self):
        with pytest.raises(ValueError):
            social_network(1)
        with pytest.raises(ValueError):
            social_network(100, avg_degree=0)
        with pytest.raises(ValueError):
            social_network(100, power_law_exponent=1.0)

    def test_road_validation(self):
        with pytest.raises(ValueError):
            road_network(2)
        with pytest.raises(ValueError):
            road_network(100, edge_keep_probability=0.0)


class TestBFSCorrectness:
    def test_road_bfs_reaches_whole_graph(self):
        workload = RoadBFS(scale=0.0001, seed=2)
        levels = reference_levels(workload)
        assert np.all(levels >= 0)  # the backbone keeps it connected

    def test_social_bfs_levels_shallow(self):
        workload = SocialBFS(scale=0.001, seed=2)
        levels = reference_levels(workload)
        reached = levels[levels >= 0]
        assert reached.max() <= 12  # small-world diameter

    def test_road_bfs_levels_deep(self):
        workload = RoadBFS(scale=0.0001, seed=2)
        levels = reference_levels(workload)
        # Lattice diameter ~ 2*sqrt(n); far deeper than the social graph.
        assert levels.max() > 50

    def test_launch_stream_levels_match_reference(self):
        """The instrumented BFS and the plain reference agree."""
        workload = RoadBFS(scale=0.0001, seed=2)
        levels = reference_levels(workload)
        stream = workload.launch_stream()
        bfs_levels = {
            int(launch.phase[5:])
            for launch in stream
            if launch.phase.startswith("level")
        }
        # The instrumented loop runs one final advance over the deepest
        # frontier to discover termination, hence the +1.
        assert max(bfs_levels) == levels.max() + 1


@pytest.fixture(scope="module")
def graph_profiles():
    return {
        "GST": characterize(SocialBFS(scale=0.002, seed=0)).profile,
        "GRU": characterize(RoadBFS(scale=0.005, seed=0)).profile,
    }


class TestKernelStructure:
    def test_gst_runs_twelve_kernels(self, graph_profiles):
        assert graph_profiles["GST"].num_kernels == 12

    def test_gru_runs_eight_kernels(self, graph_profiles):
        assert graph_profiles["GRU"].num_kernels == 8

    def test_input_dependent_kernels(self, graph_profiles):
        """Observation #3: pull/uniquify only trigger on the social graph."""
        gst = {k.name for k in graph_profiles["GST"].kernels}
        gru = {k.name for k in graph_profiles["GRU"].kernels}
        assert "advance_kernel_pull" in gst
        assert "advance_kernel_pull" not in gru
        assert "uniquify_filter" in gst
        assert "uniquify_filter" not in gru

    def test_social_dominated_by_pull_advance(self, graph_profiles):
        assert graph_profiles["GST"].dominant_kernel.name == "advance_kernel_pull"

    def test_road_has_thousands_of_launches(self, graph_profiles):
        assert graph_profiles["GRU"].total_invocations > 2_000

    def test_social_has_few_fat_launches(self, graph_profiles):
        gst = graph_profiles["GST"]
        gru = graph_profiles["GRU"]
        assert gst.total_invocations < gru.total_invocations / 10
        # Table I: GST's weighted insts/kernel dwarf GRU's.
        assert (
            gst.weighted_avg_insts_per_kernel
            > 50 * gru.weighted_avg_insts_per_kernel
        )

    def test_both_graph_workloads_memory_intensive(self, graph_profiles):
        from repro.gpu import RTX_3080

        for profile in graph_profiles.values():
            assert profile.instruction_intensity < RTX_3080.roofline_elbow

    def test_graph_performance_is_low(self, graph_profiles):
        """Fig. 5: graph workloads achieve the lowest GIPS."""
        for profile in graph_profiles.values():
            assert profile.gips < 30.0
