"""GST and GRU: Gunrock BFS on a social and a road network (Table I).

The workload runs an *actual* breadth-first search over the generated
CSR graph; each BFS level emits the Gunrock operator kernels sized by
the real frontier.  Two strategy decisions are input-dependent, exactly
as in Gunrock:

* **advance strategy** — per-thread/warp/CTA for small frontiers,
  load-balanced for large ones, direction-optimized *pull* when the
  frontier covers a large fraction of the graph (only ever triggered by
  the social network);
* **compaction** — large, duplicate-heavy advance outputs go through
  scan/scatter compaction and hash uniquify; the road network's tiny
  frontiers use the fused filter path only.

This yields 12 distinct kernels for GST and 8 for GRU, with the
dominance structure of Table I (one dominant kernel covering >= 70 %
for GST; thousands of tiny launches for GRU).
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.gpu.kernel import LaunchStream
from repro.workloads.base import Workload, WorkloadInfo
from repro.workloads.graphs import frontier as ops
from repro.workloads.graphs.csr import CSRGraph
from repro.workloads.graphs.generator import road_network, social_network

GST_INFO = WorkloadInfo(
    name="BFS-Social",
    abbr="GST",
    suite="Cactus",
    domain="Graph",
    description="BFS traversal on social network",
    dataset="SOC-Twitter10",
)

GRU_INFO = WorkloadInfo(
    name="BFS-Road",
    abbr="GRU",
    suite="Cactus",
    domain="Graph",
    description="BFS traversal on road network",
    dataset="Road USA",
)

#: Paper graph sizes; the workload ``scale`` multiplies the vertex count.
_SOCIAL_VERTICES = 21_000_000
_ROAD_VERTICES = 23_000_000

#: Floors keep scaled-down graphs large enough to exhibit their shape.
_MIN_SOCIAL_VERTICES = 20_000
_MIN_ROAD_VERTICES = 20_000

#: Tractability threshold: characterizing a graph above this vertex
#: count takes minutes on one core.  Every routine surface stays below
#: it (PAPER_SCALE builds ~1.05 M / 1.15 M vertices; the CLI's
#: ``characterize --scale 0.25`` default ~5.25 M); only the implicit
#: ``scale=1.0`` default — the paper's full 21 M / 23 M vertex graphs —
#: crosses it, which is almost never what an interactive caller wants.
#: Instantiating above the threshold emits a ``UserWarning`` rather
#: than silently running for a large fraction of an hour.
TRACTABLE_VERTICES = 8_000_000


class GunrockBFS(Workload):
    """Shared BFS driver; subclasses choose the graph and strategies."""

    repetitive = False  # the paper profiles the graph runs end-to-end

    #: Beamer direction-switch factors: a level runs in pull mode when
    #: its frontier edges exceed (unexplored edges) / alpha AND the
    #: frontier holds more than vertices / beta entries (the second
    #: condition stops the shrinking tail from flipping back to pull).
    beamer_alpha: float = 14.0
    beamer_beta: float = 100.0
    #: Degree skew (max/avg out-degree within the frontier) above which
    #: the load-balanced advance replaces the per-thread/warp/CTA one —
    #: power-law frontiers need it; uniform frontiers only switch once
    #: they are large.  Size thresholds scale with sqrt(V): road-network
    #: wavefronts grow as the lattice diameter, not the vertex count.
    lb_skew: float = 16.0
    lb_size_sqrt: float = 0.8
    #: raw-output / new-frontier ratio that triggers hash uniquify
    #: (late social levels re-discover visited hubs massively).
    uniquify_duplication: float = 4.0
    #: Advance-output multiple of sqrt(V) above which compaction runs
    #: as a separate scan+scatter pair.
    compact_sqrt: float = 2.0
    #: New-frontier fraction (of vertices) above which the visited
    #: bitmask update is a separate kernel (else fused into the filter).
    bitmask_threshold: float = 0.005
    direction_optimizing: bool = True

    def __init__(self, scale: float = 1.0, seed: int = 0, source: int = 0) -> None:
        super().__init__(self._info(), scale=scale, seed=seed)
        self.source = source
        vertices = self._num_vertices()
        if vertices > TRACTABLE_VERTICES:
            warnings.warn(
                f"{self.abbr} at scale={self.scale} builds a "
                f"{vertices:,}-vertex graph (tractability threshold: "
                f"{TRACTABLE_VERTICES:,}); characterization will take "
                "minutes. Pass an explicit smaller scale (e.g. a "
                "ScalePreset's graph scale) unless the full-size graph "
                "is intended.",
                UserWarning,
                stacklevel=2,
            )

    # -- hooks ---------------------------------------------------------
    def _info(self) -> WorkloadInfo:
        raise NotImplementedError

    def _num_vertices(self) -> int:
        raise NotImplementedError

    def _build_graph(self) -> CSRGraph:
        raise NotImplementedError

    # -- the BFS itself ---------------------------------------------------
    def launch_stream(self) -> LaunchStream:
        graph = self._build_graph()
        n = graph.num_vertices
        indptr = graph.indptr
        visited = np.zeros(n, dtype=bool)
        source = int(self.source) % n
        visited[source] = True
        frontier = np.array([source], dtype=np.int64)

        stream = LaunchStream()
        stream.launch(ops.init_distances_kernel(n), phase="init")

        total_edges = max(1, graph.num_edges)
        explored_edges = 0
        # Tracked incrementally (== n - visited.sum() at each loop top):
        # a per-level population count would make the traversal
        # O(levels × V) — 2,000+ levels on the road graph.
        unvisited = n - 1
        sqrt_n = float(np.sqrt(n))
        level = 0
        while frontier.size > 0:
            level += 1
            degrees = indptr[frontier + 1] - indptr[frontier]
            edges = int(degrees.sum())
            unexplored_edges = max(1, total_edges - explored_edges)
            explored_edges += edges
            # Beamer et al.'s direction-optimization heuristic.
            use_pull = (
                self.direction_optimizing
                and edges > unexplored_edges / self.beamer_alpha
                and frontier.size > n / self.beamer_beta
            )
            # degrees sum < 2^53, so the exact int quotient equals the
            # float-accumulated degrees.mean() bit for bit.
            avg_deg = max(1.0, edges / frontier.size)
            use_lb = frontier.size > 32 and (
                float(degrees.max()) > self.lb_skew * avg_deg
                or frontier.size > self.lb_size_sqrt * sqrt_n
            )

            if use_pull:
                # Pull cost is set by the unvisited set *before* this
                # level expands (those are the vertices whose in-edges
                # get scanned).  Materialized only when the Beamer
                # pre-conditions actually hold — push-only traversals
                # never pay this O(V) scan.
                scanned = int(
                    graph.frontier_edges(np.flatnonzero(~visited)) * 0.6
                )

            # The actual expansion (correctness is tested against a
            # reference BFS).  Its raw output is every frontier edge.
            raw_out = edges
            if 4 * raw_out >= n:
                # Dense level: dedup + visited-filter via a bitmap
                # scatter, O(V) regardless of duplication, marked in
                # bounded windows so the raw output is never stored.
                mask = np.zeros(n, dtype=bool)
                graph.mark_neighbors(frontier, mask)
                mask &= ~visited
                next_frontier = np.flatnonzero(mask)
            else:
                # Sparse level: filter first, then sort-unique only the
                # survivors — O(r log r) in the (tiny) raw output, never
                # in V.  Same sorted set either way.
                raw_neighbors = graph.expand(frontier)
                fresh = raw_neighbors[~visited[raw_neighbors]]
                next_frontier = np.unique(fresh)
            visited[next_frontier] = True

            phase = f"level{level}"
            if use_pull:
                # The pull kernel is sized by the pre-level unvisited
                # count, matching the frontier_edges argument above.
                stream.launch(ops.bitmap_convert_kernel(n), phase=phase)
                stream.launch(
                    ops.advance_pull_kernel(unvisited, scanned), phase=phase
                )
            else:
                if use_lb:
                    # The load-balanced advance sizes its output with a
                    # prefix scan; TWC assigns work dynamically instead.
                    stream.launch(
                        ops.output_offsets_kernel(frontier.size), phase=phase
                    )
                    stream.launch(
                        ops.advance_lb_kernel(frontier.size, edges),
                        phase=phase,
                    )
                else:
                    stream.launch(
                        ops.advance_twc_kernel(frontier.size, edges),
                        phase=phase,
                    )
                stream.launch(ops.filter_cull_kernel(raw_out), phase=phase)
                duplication = raw_out / max(1, next_frontier.size)
                if (
                    duplication > self.uniquify_duplication
                    and raw_out > 0.001 * total_edges
                ):
                    stream.launch(ops.uniquify_kernel(raw_out), phase=phase)
                if raw_out > self.compact_sqrt * sqrt_n:
                    stream.launch(ops.compact_scan_kernel(raw_out), phase=phase)
                    stream.launch(
                        ops.compact_scatter_kernel(raw_out), phase=phase
                    )

            if next_frontier.size > self.bitmask_threshold * n:
                stream.launch(
                    ops.bitmask_update_kernel(next_frontier.size), phase=phase
                )
            stream.launch(
                ops.length_reduce_kernel(max(1, next_frontier.size)),
                phase=phase,
            )
            unvisited -= int(next_frontier.size)
            frontier = next_frontier
        return stream

    # -- reference for tests ----------------------------------------------
    def reference_levels(self) -> np.ndarray:
        """Plain BFS level per vertex (-1 if unreachable)."""
        graph = self._build_graph()
        n = graph.num_vertices
        levels = np.full(n, -1, dtype=np.int64)
        source = int(self.source) % n
        levels[source] = 0
        frontier = np.array([source], dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            neighbors = np.unique(graph.expand(frontier))
            fresh = neighbors[levels[neighbors] < 0]
            levels[fresh] = depth
            frontier = fresh
        return levels


class SocialBFS(GunrockBFS):
    """GST: BFS on the scale-free social graph."""

    def _info(self) -> WorkloadInfo:
        return GST_INFO

    def _num_vertices(self) -> int:
        return max(_MIN_SOCIAL_VERTICES, int(_SOCIAL_VERTICES * self.scale))

    def _build_graph(self) -> CSRGraph:
        return social_network(self._num_vertices(), seed=self.seed)


class RoadBFS(GunrockBFS):
    """GRU: BFS on the near-planar road graph."""

    #: Road frontiers never approach the pull threshold, but the
    #: strategy machinery is identical — only the input differs.
    def _info(self) -> WorkloadInfo:
        return GRU_INFO

    def _num_vertices(self) -> int:
        return max(_MIN_ROAD_VERTICES, int(_ROAD_VERTICES * self.scale))

    def _build_graph(self) -> CSRGraph:
        return road_network(self._num_vertices(), seed=self.seed)
