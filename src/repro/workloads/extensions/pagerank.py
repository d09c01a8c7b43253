"""PGR: Gunrock-style PageRank over the social graph.

Unlike BFS, PageRank keeps *every* edge active every iteration: the
per-iteration kernel stream is an all-edges SpMV-style advance, a rank
update, and a convergence reduction — a second graph pattern with a
very different dominance profile (few, fat, perfectly repetitive
launches) that complements GST/GRU.

The iteration count is real: the workload runs power iterations over
the generated graph until the L1 rank delta crosses the tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import (
    InstructionMix,
    KernelCharacteristics,
    LaunchStream,
    MemoryFootprint,
)
from repro.workloads.base import Workload, WorkloadInfo
from repro.workloads.graphs.csr import CSRGraph
from repro.workloads.graphs.generator import social_network

PGR_INFO = WorkloadInfo(
    name="PageRank",
    abbr="PGR",
    suite="CactusExt",
    domain="Graph",
    description="PageRank power iteration (Gunrock-style)",
    dataset="SOC-Twitter10",
)

_SOCIAL_VERTICES = 21_000_000
_MIN_VERTICES = 20_000


def _spmv_advance_kernel(n: int, edges: int) -> KernelCharacteristics:
    """rank' += rank[src]/deg[src] over every edge (scattered gather)."""
    return KernelCharacteristics(
        name="pagerank_spmv_advance",
        grid_blocks=max(1, edges // 256),
        threads_per_block=256,
        warp_insts=max(1.0, edges * 14.0 / 32.0),
        mix=InstructionMix(fp32=0.25, ld_st=0.40, branch=0.06, sync=0.01),
        memory=MemoryFootprint(
            bytes_read=edges * 8.0 + n * 12.0,
            bytes_written=n * 4.0,
            reuse_factor=1.8,  # rank vector re-hit through L2
            l1_locality=0.1,
            coalescence=0.3,
        ),
        ilp=1.6,
        mlp=4.0,
        tags=("graph", "pagerank"),
    )


def _rank_update_kernel(n: int) -> KernelCharacteristics:
    """rank = (1-d)/N + d * accum (streaming)."""
    return KernelCharacteristics(
        name="pagerank_rank_update",
        grid_blocks=max(1, n // 256),
        threads_per_block=256,
        warp_insts=max(1.0, n * 6.0 / 32.0),
        mix=InstructionMix(fp32=0.40, ld_st=0.40, branch=0.01, sync=0.0),
        memory=MemoryFootprint(
            bytes_read=n * 8.0, bytes_written=n * 4.0, coalescence=1.0
        ),
        ilp=4.0,
        mlp=8.0,
        tags=("graph", "pagerank"),
    )


def _delta_reduce_kernel(n: int) -> KernelCharacteristics:
    """Convergence check: sum |rank' - rank|."""
    return KernelCharacteristics(
        name="pagerank_delta_reduce",
        grid_blocks=max(1, n // 512),
        threads_per_block=512,
        warp_insts=max(4.0, n * 3.0 / 32.0),
        mix=InstructionMix(fp32=0.30, ld_st=0.32, branch=0.03, sync=0.08),
        memory=MemoryFootprint(
            bytes_read=n * 8.0, bytes_written=512.0, coalescence=1.0
        ),
        ilp=3.0,
        mlp=8.0,
        tags=("graph", "pagerank"),
    )


class PageRankWorkload(Workload):
    """PGR: power-iteration PageRank on the social graph."""

    repetitive = True
    damping = 0.85
    tolerance = 1e-4
    max_iterations = 60

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        super().__init__(PGR_INFO, scale=scale, seed=seed)

    def _build_graph(self) -> CSRGraph:
        n = max(_MIN_VERTICES, int(_SOCIAL_VERTICES * self.scale))
        return social_network(n, seed=self.seed)

    def launch_stream(self) -> LaunchStream:
        graph = self._build_graph()
        n = graph.num_vertices
        edges = graph.num_edges
        degrees = np.maximum(1, graph.out_degrees()).astype(np.float64)

        rank = np.full(n, 1.0 / n)
        stream = LaunchStream()
        stream.launch(_rank_update_kernel(n), phase="init")

        for iteration in range(self.max_iterations):
            # The actual power iteration (dangling mass folded into the
            # teleport term).
            contribution = rank / degrees
            accumulated = np.zeros(n)
            np.add.at(accumulated, graph.indices,
                      np.repeat(contribution, np.diff(graph.indptr)))
            updated = (1.0 - self.damping) / n + self.damping * accumulated
            updated /= updated.sum()
            delta = float(np.abs(updated - rank).sum())
            rank = updated

            phase = f"iter{iteration}"
            stream.launch(_spmv_advance_kernel(n, edges), phase=phase)
            stream.launch(_rank_update_kernel(n), phase=phase)
            stream.launch(_delta_reduce_kernel(n), phase=phase)
            if delta < self.tolerance:
                break
        return stream
