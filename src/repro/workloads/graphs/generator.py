"""Synthetic graph generators for the two BFS inputs.

* :func:`social_network` — a Chung-Lu scale-free graph matching
  SOC-Twitter10's shape: power-law degrees, tiny diameter, a dense core.
  BFS on it produces a handful of levels with two or three *enormous*
  frontiers.
* :func:`road_network` — a degree-bounded, near-planar lattice with
  (Road-USA's shape): uniform low degree, huge diameter.  BFS produces
  thousands of levels with tiny frontiers.

The paper's full graphs (21 M / 23 M vertices) are downscaled by the
workload ``scale`` parameter; both generators preserve average degree
and topology class, so frontier *shapes* — the property every figure
depends on — survive the scaling.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.workloads.graphs.csr import CSRGraph
from repro.workloads.graphs.sampling import CdfSampler


def social_network(
    num_vertices: int,
    avg_degree: float = 12.6,
    power_law_exponent: float = 2.1,
    seed: int = 0,
) -> CSRGraph:
    """Chung-Lu scale-free graph (SOC-Twitter10 surrogate).

    Expected vertex degrees follow ``w_i ~ i^(-1/(gamma-1))`` for
    power-law exponent ``gamma``; edges pick endpoints proportionally to
    the weights, giving the hubs + heavy tail of a social network.
    The default average degree 12.6 matches 265 M edges / 21 M vertices.

    The E source draws, then the E destination draws, replay
    ``rng.choice`` bit for bit (:class:`CdfSampler`), so every pinned
    launch-stream digest is preserved.  No endpoint array is ever held:
    the CSR build streams the edges twice
    (:meth:`CSRGraph.from_edge_stream`).  Pass 1 draws the sources from
    ``rng`` and only counts them per row, which leaves ``rng`` at the
    destination stream.  Pass 2 redraws the sources from a copy of the
    generator taken at the start, draws the destinations from ``rng``,
    and scatters each edge that is not a self-loop into its row.  The
    build holds the int32 CSR output, the sampler's tables and a few
    chunks.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be >= 2")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    if power_law_exponent <= 1.0:
        raise ValueError("power_law_exponent must be > 1")
    rng = np.random.default_rng(seed)
    source_rng = copy.deepcopy(rng)
    num_edges = int(num_vertices * avg_degree)
    sampler = _endpoint_sampler(num_vertices, avg_degree, power_law_exponent)
    # Both iterators draw lazily: the sources pass runs to the end
    # before the edges pass takes its first chunk.
    sources = sampler.chunks(rng, num_edges)
    edges = zip(
        sampler.chunks(source_rng, num_edges), sampler.chunks(rng, num_edges)
    )
    return CSRGraph.from_edge_stream(
        num_vertices, sources, edges, drop_self_loops=True
    )


def _endpoint_sampler(
    num_vertices: int, avg_degree: float, power_law_exponent: float
) -> CdfSampler:
    """The sampler of the edge endpoints.

    A function of its own so the weights are freed once the sampler is
    built; they are computed in place, so the construction holds the
    weights and the sampler's CDF and no further V-sized array.
    """
    weights = np.arange(1, num_vertices + 1, dtype=np.float64)
    np.power(weights, -1.0 / (power_law_exponent - 1.0), out=weights)
    # Cap the largest expected degree at ~2% of vertices, as real social
    # graphs do (even celebrity accounts are followed by a small
    # fraction of all users).
    np.minimum(weights, weights.sum() * 0.02 / avg_degree, out=weights)
    weights /= weights.sum()
    return CdfSampler(weights)


def road_network(
    num_vertices: int,
    edge_keep_probability: float = 0.2,
    seed: int = 0,
) -> CSRGraph:
    """Near-planar lattice road network (Road-USA surrogate).

    A sqrt(n) x sqrt(n) grid that keeps all horizontal edges and only a
    fraction of the vertical ones yields average degree
    ~ 2 + 2 * keep ~ 2.4 (Road-USA: 2.4) and a diameter of O(sqrt(n)) — the thousands-of-BFS-levels regime.  A
    spanning backbone (every vertex keeps its west edge along each row
    and one north edge per row) keeps the graph connected so BFS
    reaches the whole component.

    The edges are listed as horizontal ones, one connector per row,
    then the kept verticals, each by increasing vertex, followed by
    all of them reversed.  Both endpoint arrays are written in place
    into their final int32 arrays, so the CSR build holds them, its
    output and no other copy.
    """
    if num_vertices < 4:
        raise ValueError("num_vertices must be >= 4")
    if not 0.0 < edge_keep_probability <= 1.0:
        raise ValueError("edge_keep_probability must be in (0, 1]")
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(num_vertices))
    n = side * side
    horizontal = side * (side - 1)
    connectors = side - 1
    verticals = _kept_verticals(rng, side, edge_keep_probability)
    half = horizontal + connectors + verticals.size
    all_src = np.empty(2 * half, dtype=np.int32)
    all_dst = np.empty(2 * half, dtype=np.int32)
    src, dst = all_src[:half], all_dst[:half]

    # Horizontal lattice edges (always kept: the row backbone): every
    # vertex r * side + c with c < side - 1, and its east neighbour.
    np.add(
        np.arange(side - 1, dtype=np.int32),
        np.arange(0, n, side, dtype=np.int32)[:, None],
        out=src[:horizontal].reshape(side, side - 1),
    )
    np.add(src[:horizontal], 1, out=dst[:horizontal])
    # One vertical connector per row (kept: ties rows together).
    src[horizontal : horizontal + connectors] = np.arange(
        0, n - side, side, dtype=np.int32
    )
    # Remaining vertical edges kept at random.
    src[horizontal + connectors :] = verticals
    del verticals  # not held through the CSR build
    np.add(src[horizontal:], side, out=dst[horizontal:])
    # Road networks are undirected: add both directions.
    all_src[half:] = dst
    all_dst[half:] = src
    return CSRGraph.from_edges(n, all_src, all_dst)


def _kept_verticals(
    rng: np.random.Generator, side: int, edge_keep_probability: float
) -> np.ndarray:
    """The vertices that keep their random north-south edge, increasing.

    The candidates are the vertices outside the first column and the
    last row, one uniform each; the k-th of them, ``r * side + c`` with
    ``r = k // (side - 1)`` and ``c = k % (side - 1) + 1``, is
    ``k + r + 1``.
    """
    candidates = (side - 1) * (side - 1)
    kept = np.flatnonzero(rng.random(candidates) < edge_keep_probability)
    return (kept + kept // (side - 1) + 1).astype(np.int32)
