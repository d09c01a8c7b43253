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

from typing import Tuple

import numpy as np

from repro.workloads.graphs.csr import CSRGraph
from repro.workloads.graphs.sampling import SAMPLE_CHUNK, CdfSampler


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

    The 2·E endpoint draws replay ``rng.choice`` bit for bit
    (:class:`CdfSampler`), so every pinned launch-stream digest is
    preserved.  The endpoints are int32 vertex ids, and self-loops are
    dropped by compacting the endpoint arrays in place, one chunk at a
    time: the CSR build holds the two int32 endpoint arrays and its
    output, and no full-size copy of either.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be >= 2")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    if power_law_exponent <= 1.0:
        raise ValueError("power_law_exponent must be > 1")
    rng = np.random.default_rng(seed)
    num_edges = int(num_vertices * avg_degree)
    src, dst = _draw_endpoints(
        rng, num_vertices, num_edges, avg_degree, power_law_exponent
    )
    kept = 0
    for start in range(0, num_edges, SAMPLE_CHUNK):
        stop = min(start + SAMPLE_CHUNK, num_edges)
        keep = src[start:stop] != dst[start:stop]
        # The write cursor never passes the read chunk, and the masked
        # reads are copied before the write lands.
        count = int(np.count_nonzero(keep))
        src[kept : kept + count] = src[start:stop][keep]
        dst[kept : kept + count] = dst[start:stop][keep]
        kept += count
    return CSRGraph.from_edges(num_vertices, src[:kept], dst[:kept])


def _draw_endpoints(
    rng: np.random.Generator,
    num_vertices: int,
    num_edges: int,
    avg_degree: float,
    power_law_exponent: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Source then destination endpoints of every edge.

    A function of its own so the weight arrays and the sampler's tables
    are freed before the CSR build, the generator's memory peak.
    """
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (power_law_exponent - 1.0))
    # Cap the largest expected degree at ~2% of vertices, as real social
    # graphs do (even celebrity accounts are followed by a small
    # fraction of all users).
    weights = np.minimum(weights, weights.sum() * 0.02 / avg_degree)
    sampler = CdfSampler(weights / weights.sum())
    return sampler.sample(rng, num_edges), sampler.sample(rng, num_edges)


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
    """
    if num_vertices < 4:
        raise ValueError("num_vertices must be >= 4")
    if not 0.0 < edge_keep_probability <= 1.0:
        raise ValueError("edge_keep_probability must be in (0, 1]")
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(num_vertices))
    n = side * side

    vertices = np.arange(n, dtype=np.int32)
    row, col = np.divmod(vertices, side)

    edges_src = []
    edges_dst = []

    # Horizontal lattice edges (always kept: the row backbone).
    horizontal = vertices[col < side - 1]
    edges_src.append(horizontal)
    edges_dst.append(horizontal + 1)

    # One vertical connector per row (kept: ties rows together).
    first_in_row = vertices[: n - side : side]
    edges_src.append(first_in_row)
    edges_dst.append(first_in_row + side)

    # Remaining vertical edges kept at random.
    candidates = vertices[(row < side - 1) & (col > 0)]
    kept = candidates[
        rng.random(len(candidates)) < edge_keep_probability
    ]
    edges_src.append(kept)
    edges_dst.append(kept + side)

    src = np.concatenate(edges_src)
    dst = np.concatenate(edges_dst)
    # Road networks are undirected: add both directions.
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    return CSRGraph.from_edges(n, all_src, all_dst)
