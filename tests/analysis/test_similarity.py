"""Property tests for the kernel-similarity index.

The index's contract has three legs, each driven by Hypothesis over
adversarial corpora (duplicates, ties, degenerate zero-variance
columns):

* a self-query always comes back at distance 0 with the exact flag set;
* the vectorized scan returns **identical** answers (keys, distances
  bit-for-bit, exact flags) to a frozen pure-Python ranking oracle for
  every query, every k (ties at the k-th distance and k beyond the
  corpus included) and every ``exclude``;
* answers are invariant to the order items were inserted in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.similarity import (
    METRIC_FEATURES,
    STRUCTURAL_FEATURES,
    KernelIndex,
    kernel_features,
    metric_features,
)

DIM = 4
NAMES = tuple(f"f{i}" for i in range(DIM))

# Coordinates drawn from a small pool plus arbitrary floats: pool
# collisions manufacture duplicate vectors, distance ties, and
# zero-variance columns — exactly the cases the determinism contract
# has to survive.
coord = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
    st.floats(
        min_value=-50.0,
        max_value=50.0,
        allow_nan=False,
        allow_infinity=False,
    ),
)
vector = st.lists(coord, min_size=DIM, max_size=DIM).map(
    lambda values: np.array(values, dtype=np.float64)
)
corpus = st.lists(vector, min_size=1, max_size=24)


def _index(vectors, order=None) -> KernelIndex:
    index = KernelIndex(feature_names=NAMES)
    rows = order if order is not None else range(len(vectors))
    for row in rows:
        index.add(f"k{row:03d}", vectors[row], payload=row)
    return index


def _answer(neighbors):
    return [(n.key, n.distance, n.exact) for n in neighbors]


def oracle_knn(index: KernelIndex, vector, k, exclude=None):
    """Frozen reference ranking: a full scan sorted in Python.

    The index's original brute-force path, kept verbatim as the
    differential oracle: ``(distance, key)`` order over every item but
    *exclude*, distances from the index's own standardization fit.
    """
    index.build()
    keys = index._keys
    if not keys:
        return []
    query = (np.asarray(vector, dtype=np.float64) - index._mean) / index._std
    dist = np.sqrt(((index._points - query) ** 2).sum(axis=1))
    ranked = sorted(
        (float(dist[row]), keys[row], row)
        for row in range(len(keys))
        if keys[row] != exclude
    )[:k]
    raw = np.asarray(vector, dtype=np.float64)
    return [
        (key, d, bool(np.array_equal(index._raw[row], raw)))
        for d, key, row in ranked
    ]


class TestSelfQuery:
    @given(corpus)
    @settings(max_examples=80, deadline=None)
    def test_self_query_is_distance_zero_and_exact(self, vectors):
        index = _index(vectors)
        for row, query in enumerate(vectors):
            found = index.knn(query, len(vectors))
            assert found[0].distance == 0.0
            mine = [n for n in found if n.key == f"k{row:03d}"]
            assert len(mine) == 1
            assert mine[0].distance == 0.0
            # Raw equality, not just standardized distance 0.
            assert mine[0].exact is True

    @given(corpus)
    @settings(max_examples=40, deadline=None)
    def test_exclude_drops_only_the_named_key(self, vectors):
        index = _index(vectors)
        for row, query in enumerate(vectors):
            key = f"k{row:03d}"
            found = index.knn(query, len(vectors), exclude=key)
            assert key not in [n.key for n in found]
            assert len(found) == len(vectors) - 1


class TestScanEqualsOracle:
    @given(corpus, vector, st.integers(min_value=1, max_value=30))
    @settings(max_examples=120, deadline=None)
    def test_knn_identical_answers(self, vectors, query, k):
        index = _index(vectors)
        assert _answer(index.knn(query, k)) == oracle_knn(index, query, k)

    @given(corpus, st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_oracle_on_corpus_points(self, vectors, k):
        """Self-queries, whose answers open with a distance-0 tie group."""
        index = _index(vectors)
        for query in vectors:
            assert _answer(index.knn(query, k)) == oracle_knn(index, query, k)

    @given(corpus, st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_exclude_matches_oracle(self, vectors, k):
        index = _index(vectors)
        for row, query in enumerate(vectors):
            key = f"k{row:03d}"
            assert _answer(index.knn(query, k, exclude=key)) == oracle_knn(
                index, query, k, exclude=key
            )
        assert _answer(index.knn(vectors[0], k, exclude="absent")) == (
            oracle_knn(index, vectors[0], k)
        )

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_ties_at_kth_distance_resolved_by_key(self, copies, k):
        # *copies* identical points interleaved with far ones: every copy
        # ties, so which survive the cut at k is decided by key alone.
        vectors = []
        for _ in range(copies):
            vectors += [np.full(DIM, 9.0), np.ones(DIM)]
        index = _index(vectors, order=list(reversed(range(len(vectors)))))
        found = index.knn(np.ones(DIM), k)
        assert _answer(found) == oracle_knn(index, np.ones(DIM), k)
        tied = [n.key for n in found if n.distance == found[0].distance]
        assert tied == [f"k{row:03d}" for row in range(1, 2 * copies, 2)][:k]

    def test_k_beyond_corpus_returns_everything_ranked(self):
        vectors = [np.full(DIM, float(v)) for v in (3, 1, 2)]
        index = _index(vectors)
        found = index.knn(np.zeros(DIM), 50)
        assert [n.key for n in found] == ["k001", "k002", "k000"]
        assert _answer(found) == oracle_knn(index, np.zeros(DIM), 50)
        assert index.knn(vectors[0], 50, exclude="k000")[0].key == "k002"


class TestInsertionOrderInvariance:
    @given(
        corpus.flatmap(
            lambda vectors: st.tuples(
                st.just(vectors),
                st.permutations(range(len(vectors))),
            )
        ),
        vector,
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_permuted_insertion_same_answers(self, vectors_order, query, k):
        vectors, order = vectors_order
        natural = _index(vectors)
        permuted = _index(vectors, order=order)
        answer = _answer(permuted.knn(query, k))
        assert answer == _answer(natural.knn(query, k))
        assert answer == oracle_knn(natural, query, k)


class TestIndexMechanics:
    def test_empty_index_answers(self):
        index = KernelIndex(feature_names=NAMES)
        assert index.nearest(np.zeros(DIM)) is None
        assert index.knn(np.zeros(DIM), 3) == []

    def test_add_validates_shape_and_finiteness(self):
        index = KernelIndex(feature_names=NAMES)
        with pytest.raises(ValueError, match="feature vector"):
            index.add("bad", np.zeros(DIM + 1))
        with pytest.raises(ValueError, match="non-finite"):
            index.add("nan", np.array([0.0, np.nan, 0.0, 0.0]))
        assert len(index) == 0

    def test_knn_rejects_nonpositive_k(self):
        index = _index([np.zeros(DIM)])
        with pytest.raises(ValueError, match="k must be"):
            index.knn(np.zeros(DIM), 0)

    def test_lazy_rebuild_only_after_mutation(self):
        index = _index([np.zeros(DIM), np.ones(DIM)])
        index.knn(np.zeros(DIM), 1)
        index.knn(np.ones(DIM), 1)
        assert index.builds == 1
        index.add("extra", np.full(DIM, 2.0))
        index.knn(np.zeros(DIM), 1)
        assert index.builds == 2

    def test_replacing_a_key_keeps_corpus_size(self):
        index = _index([np.zeros(DIM)])
        index.add("k000", np.ones(DIM), payload="new")
        assert len(index) == 1
        assert index.nearest(np.ones(DIM)).payload == "new"

    def test_representative_subset_covers_corpus(self):
        rng = np.random.default_rng(3)
        vectors = [rng.normal(size=DIM) for _ in range(40)]
        index = _index(vectors)
        subset = index.representative_subset(5)
        assert len(subset.representative_labels) == 5
        assert set(subset.representative_labels) <= set(index.keys())
        assert 0.0 < subset.coverage <= 1.0
        target = index.representatives_for_target(subset.coverage)
        assert len(target.representative_labels) <= 5

    def test_representatives_need_nonempty_corpus(self):
        index = KernelIndex(feature_names=NAMES)
        with pytest.raises(ValueError, match="non-empty"):
            index.representative_subset(1)


class TestFeatureVectors:
    def test_structural_vector_matches_names(self):
        from repro.gpu.kernel import KernelCharacteristics, MemoryFootprint

        kernel = KernelCharacteristics(
            name="probe",
            grid_blocks=128,
            threads_per_block=256,
            warp_insts=1.5e6,
            memory=MemoryFootprint(bytes_read=3.25e5),
        )
        vec = kernel_features(kernel)
        assert vec.shape == (len(STRUCTURAL_FEATURES),)
        assert np.isfinite(vec).all()
        # Equal kernels give equal vectors (hence equal metrics).
        assert np.array_equal(vec, kernel_features(kernel))

    def test_metric_vector_matches_names(self):
        from repro.gpu import RTX_3080, GPUSimulator
        from repro.gpu.kernel import KernelCharacteristics, MemoryFootprint

        kernel = KernelCharacteristics(
            name="probe",
            grid_blocks=64,
            threads_per_block=128,
            warp_insts=2e6,
            memory=MemoryFootprint(bytes_read=1e6),
        )
        metrics = GPUSimulator(RTX_3080).run_kernel(kernel)
        vec = metric_features(metrics)
        assert vec.shape == (len(METRIC_FEATURES),)
        assert np.isfinite(vec).all()
