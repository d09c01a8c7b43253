"""Ward agglomerative clustering + dendrogram rendering (Fig. 9).

A from-scratch implementation of Ward's minimum-variance hierarchical
clustering using the Lance-Williams recurrence, plus a text dendrogram
renderer mirroring the paper's six-primary-cluster figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters *left* and *right* join."""

    left: int
    right: int
    height: float
    size: int


@dataclass
class ClusteringResult:
    """Full Ward dendrogram over labelled samples."""

    labels: Tuple[str, ...]
    merges: Tuple[Merge, ...]

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    def heights(self) -> List[float]:
        return [merge.height for merge in self.merges]


def ward_clustering(
    points: np.ndarray, labels: Sequence[str]
) -> ClusteringResult:
    """Ward's method via the Lance-Williams update.

    ``points`` is (n_samples, n_features) and must be finite; cluster
    ids 0..n-1 are the leaves, and merge step i creates cluster id n+i.
    Each step merges the closest active pair, the first one in
    creation order on a tie.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2D array")
    n = points.shape[0]
    if n != len(labels):
        raise ValueError("labels must match the number of points")
    if n < 2:
        raise ValueError("need at least two points")

    # Squared Euclidean distances; Ward heights follow d^2 bookkeeping.
    with np.errstate(invalid="ignore", over="ignore"):
        diff = points[:, None, :] - points[None, :, :]
        distance = (diff ** 2).sum(axis=2)
        # No merge cost exceeds n/2 times the largest distance.
        bound = distance.max() * n
    if not np.isfinite(bound):
        # A NaN makes "the closest pair" depend on scan order.
        raise ValueError("points must be finite, far from overflow")

    # Distances between every cluster id the run creates, +inf
    # wherever either cluster is not active (and on the diagonal).
    # New ids only grow, so ascending id order is the order clusters
    # were created in.  A cluster is active while its size is nonzero.
    size = 2 * n - 1
    dist = np.full((size, size), np.inf)
    upper = np.triu_indices(n, 1)
    dist[upper] = dist[upper[::-1]] = distance[upper]
    sizes = np.zeros(size, dtype=np.int64)
    sizes[:n] = 1
    merges: List[Merge] = []
    for next_id in range(n, size):
        # The matrix is symmetric, so its first row-major minimum is
        # the first minimum of its upper triangle: the pair a < b that
        # a strict-< scan in creation order keeps on a tie.
        a, b = divmod(int(np.argmin(dist)), size)
        best = dist[a, b]
        size_a, size_b = sizes[a], sizes[b]
        sizes[a] = sizes[b] = 0
        rest = np.flatnonzero(sizes)
        size_c = sizes[rest]
        new_size = size_a + size_b
        total = new_size + size_c

        # Lance-Williams update for Ward linkage.
        updated = (
            (size_a + size_c) / total * dist[a, rest]
            + (size_b + size_c) / total * dist[b, rest]
            - size_c / total * best
        )
        dist[next_id, rest] = dist[rest, next_id] = updated
        dist[a] = dist[b] = np.inf
        dist[:, a] = dist[:, b] = np.inf
        sizes[next_id] = new_size
        height = float(np.sqrt(max(0.0, best)))
        merges.append(
            Merge(left=a, right=b, height=height, size=int(new_size))
        )

    return ClusteringResult(labels=tuple(labels), merges=tuple(merges))


def cut_tree(result: ClusteringResult, n_clusters: int) -> List[int]:
    """Flat cluster assignment (0..n_clusters-1 per sample).

    Cuts the dendrogram by undoing the last ``n_clusters - 1`` merges.
    """
    n = result.n_samples
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}]")
    # Union-find over all merges except the last n_clusters-1.
    parent = list(range(n + len(result.merges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    keep = len(result.merges) - (n_clusters - 1)
    for index, merge in enumerate(result.merges):
        new_id = n + index
        if index < keep:
            parent[find(merge.left)] = new_id
            parent[find(merge.right)] = new_id

    roots: Dict[int, int] = {}
    assignment = []
    for leaf in range(n):
        root = find(leaf)
        if root not in roots:
            roots[root] = len(roots)
        assignment.append(roots[root])
    return assignment


def cluster_members(
    result: ClusteringResult, n_clusters: int
) -> List[List[str]]:
    """Labels grouped per flat cluster."""
    assignment = cut_tree(result, n_clusters)
    groups: List[List[str]] = [[] for _ in range(max(assignment) + 1)]
    for label, cluster in zip(result.labels, assignment):
        groups[cluster].append(label)
    return groups


def render_dendrogram(
    result: ClusteringResult,
    n_clusters: int = 6,
    max_members: Optional[int] = 12,
) -> str:
    """Text rendering of the Fig. 9 dendrogram.

    Shows the primary clusters (like the paper's six), each with its
    relative dissimilarity (link height to the rest of the tree) and
    its member kernels.
    """
    groups = cluster_members(result, n_clusters)
    assignment = cut_tree(result, n_clusters)
    # Height at which each primary cluster last merged internally.
    last_internal: Dict[int, float] = {i: 0.0 for i in range(len(groups))}
    n = result.n_samples

    cluster_of_leaf = dict(zip(range(n), assignment))
    # Track which primary cluster each merged node belongs to (if pure).
    node_cluster: Dict[int, Optional[int]] = dict(cluster_of_leaf)
    for index, merge in enumerate(result.merges):
        left = node_cluster.get(merge.left)
        right = node_cluster.get(merge.right)
        pure = left if (left == right and left is not None) else None
        node_cluster[n + index] = pure
        if pure is not None:
            last_internal[pure] = max(last_internal[pure], merge.height)

    top = max(m.height for m in result.merges)
    lines = [f"Ward dendrogram cut at {n_clusters} clusters "
             f"(top link height {top:.2f}):"]
    for cluster_id, members in enumerate(groups):
        height = last_internal.get(cluster_id, 0.0)
        bar = "=" * max(1, int(24 * height / top)) if top > 0 else "="
        shown = members if max_members is None else members[:max_members]
        extra = "" if len(shown) == len(members) else f" (+{len(members) - len(shown)} more)"
        lines.append(
            f"  cluster {cluster_id + 1} |{bar:<24}| "
            f"{', '.join(shown)}{extra}"
        )
    return "\n".join(lines)
