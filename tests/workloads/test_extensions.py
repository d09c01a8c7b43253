"""Tests for the future-work extension workloads (TRF, PGR, GCN)."""

import numpy as np
import pytest

from repro.core import characterize
from repro.gpu import RTX_3080
from repro.workloads import get_workload, list_workloads
from repro.workloads.extensions import (
    GCNTraining,
    PageRankWorkload,
    TransformerTraining,
)
from tests.oracles import reference_ranks

ELBOW = RTX_3080.roofline_elbow


class TestRegistration:
    def test_extension_suite_registered(self):
        assert set(list_workloads("CactusExt")) == {"TRF", "PGR", "GCN"}

    def test_factories_resolve(self):
        for abbr in ("TRF", "PGR", "GCN"):
            workload = get_workload(abbr, scale=0.002)
            assert workload.suite == "CactusExt"


class TestTransformer:
    @pytest.fixture(scope="class")
    def profile(self):
        return characterize(TransformerTraining(scale=1.0, iterations=4)).profile

    def test_modern_ml_kernel_menu(self, profile):
        """Transformers launch a Cactus-ML-sized kernel menu."""
        assert profile.num_kernels >= 35

    def test_attention_kernels_present(self, profile):
        names = {k.name for k in profile.kernels}
        assert any(n.startswith("bmm_sgemm") for n in names)
        assert "layer_norm_forward" in names
        assert "layer_norm_backward" in names
        assert "vectorized_elementwise_gelu" in names

    def test_mixed_intensity(self, profile):
        sides = {
            k.instruction_intensity > ELBOW for k in profile.kernels
        }
        assert sides == {True, False}

    def test_spread_dominance(self, profile):
        assert profile.num_kernels_for_fraction(0.70) >= 6


class TestPageRank:
    def test_rank_vector_is_probability(self):
        workload = PageRankWorkload(scale=0.001, seed=1)
        ranks = reference_ranks(workload)
        assert ranks.sum() == pytest.approx(1.0)
        assert np.all(ranks > 0)

    def test_hubs_rank_highest(self):
        workload = PageRankWorkload(scale=0.001, seed=1)
        graph = workload._build_graph()
        ranks = reference_ranks(workload)
        # In-degree hubs collect rank mass: the top-ranked vertex is
        # among the most linked-to vertices.
        in_degree = np.bincount(graph.indices, minlength=graph.num_vertices)
        top_rank = int(np.argmax(ranks))
        assert in_degree[top_rank] > 10 * in_degree.mean()

    def test_three_kernel_iteration_structure(self):
        profile = characterize(PageRankWorkload(scale=0.001)).profile
        assert profile.num_kernels == 3
        assert profile.dominant_kernel.name == "pagerank_spmv_advance"

    def test_memory_intensive(self):
        profile = characterize(PageRankWorkload(scale=0.001)).profile
        assert profile.instruction_intensity < ELBOW

    def test_converges_before_iteration_cap(self):
        workload = PageRankWorkload(scale=0.001)
        stream = workload.launch_stream()
        iterations = len(
            {l.phase for l in stream if l.phase.startswith("iter")}
        )
        assert iterations < workload.max_iterations


class TestGCN:
    @pytest.fixture(scope="class")
    def profile(self):
        return characterize(GCNTraining(scale=0.002, epochs=4)).profile

    def test_mixes_graph_and_ml_kernels(self, profile):
        names = {k.name for k in profile.kernels}
        assert "gcn_spmm_aggregate_forward" in names
        assert any(n.startswith("ampere_sgemm") for n in names)

    def test_spmm_dominates_on_sparse_graphs(self, profile):
        assert profile.dominant_kernel.name.startswith("gcn_spmm")

    def test_epochs_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            GCNTraining(epochs=0)
