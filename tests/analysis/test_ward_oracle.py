"""Differential test: array Ward clustering vs. the legacy dict scan.

``legacy_ward_clustering`` is the original implementation, kept
verbatim as an oracle: an ``(a, b)``-keyed dict of distances, a nested
strict-``<`` scan for the closest pair and a per-cluster Lance-Williams
loop.  :func:`repro.analysis.clustering.ward_clustering` must return
the same merges, bit for bit: the same ``left``/``right``/``size`` and
the same ``height`` down to ``float.hex``, including on the integer
grids and duplicated rows where distance ties and zero distances decide
the merge order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.clustering import (
    ClusteringResult,
    Merge,
    ward_clustering,
)


def legacy_ward_clustering(
    points: np.ndarray, labels: Sequence[str]
) -> ClusteringResult:
    points = np.asarray(points, dtype=float)
    n = points.shape[0]

    # Squared Euclidean distances; Ward heights follow d^2 bookkeeping.
    diff = points[:, None, :] - points[None, :, :]
    distance = (diff ** 2).sum(axis=2)

    active: Dict[int, int] = {i: 1 for i in range(n)}  # id -> size
    # Map active cluster id -> row in the distance matrix bookkeeping.
    dist: Dict[Tuple[int, int], float] = {}
    ids = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = distance[i, j]

    def get(a: int, b: int) -> float:
        return dist[(a, b) if a < b else (b, a)]

    def put(a: int, b: int, value: float) -> None:
        dist[(a, b) if a < b else (b, a)] = value

    merges: List[Merge] = []
    next_id = n
    while len(ids) > 1:
        best = None
        best_pair = None
        for index_a in range(len(ids)):
            for index_b in range(index_a + 1, len(ids)):
                a, b = ids[index_a], ids[index_b]
                d = get(a, b)
                if best is None or d < best:
                    best = d
                    best_pair = (a, b)
        a, b = best_pair  # type: ignore[misc]
        size_a, size_b = active[a], active[b]
        new_size = size_a + size_b
        height = float(np.sqrt(max(0.0, best)))

        # Lance-Williams update for Ward linkage.
        for c in ids:
            if c in (a, b):
                continue
            size_c = active[c]
            total = new_size + size_c
            updated = (
                (size_a + size_c) / total * get(a, c)
                + (size_b + size_c) / total * get(b, c)
                - size_c / total * best
            )
            put(next_id, c, updated)

        ids.remove(a)
        ids.remove(b)
        ids.append(next_id)
        active[next_id] = new_size
        merges.append(Merge(left=a, right=b, height=height, size=new_size))
        next_id += 1

    return ClusteringResult(labels=tuple(labels), merges=tuple(merges))


def exact_merges(result: ClusteringResult) -> List[Tuple[int, int, int, str]]:
    return [
        (m.left, m.right, m.size, float(m.height).hex())
        for m in result.merges
    ]


def assert_matches_oracle(points: np.ndarray) -> None:
    labels = [f"p{i}" for i in range(len(points))]
    expected = legacy_ward_clustering(points, labels)
    actual = ward_clustering(points, labels)
    assert actual.labels == expected.labels
    assert exact_merges(actual) == exact_merges(expected)
    for merge in actual.merges:
        assert type(merge.left) is int and type(merge.size) is int


def sample_points(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "grid":
        # Few distinct coordinates: many exactly tied distances.
        return rng.integers(0, 3, size=(n, d)).astype(float)
    if kind == "duplicated":
        # Repeated rows: zero distances, then ties among merged clusters.
        base = rng.normal(size=(max(1, n // 3), d))
        return base[rng.integers(0, len(base), size=n)]
    return rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0)


@given(
    kind=st.sampled_from(["grid", "duplicated", "normal"]),
    n=st.integers(2, 120),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_ward_matches_legacy_scan_exactly(kind, n, d, seed):
    assert_matches_oracle(sample_points(kind, n, d, seed))


@pytest.mark.parametrize("kind", ["grid", "duplicated", "normal"])
def test_ward_matches_legacy_scan_at_report_size(kind):
    # The report clusters ~105 dominant kernels on a handful of FAMD
    # components.
    assert_matches_oracle(sample_points(kind, 105, 5, seed=2021))


def test_all_identical_points_merge_in_creation_order():
    assert_matches_oracle(np.zeros((9, 2)))
    result = ward_clustering(np.zeros((4, 1)), ["a", "b", "c", "d"])
    assert [(m.left, m.right, m.size) for m in result.merges] == [
        (0, 1, 2), (2, 3, 2), (4, 5, 4),
    ]
    assert result.heights() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    points = np.arange(12, dtype=float).reshape(6, 2)
    points[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        ward_clustering(points, [f"p{i}" for i in range(6)])


def test_overflowing_distances_rejected():
    points = np.array([[0.0], [1e200], [-1e200]])
    with pytest.raises(ValueError, match="finite"):
        ward_clustering(points, ["a", "b", "c"])
