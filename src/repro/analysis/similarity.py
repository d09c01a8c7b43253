"""Kernel-similarity index over characterized-kernel feature vectors.

The content-addressed result cache is an ever-growing corpus of
characterized kernels, but exact-key lookups only ever reuse a result
for a *bit-identical* kernel.  Similarity search over the corpus
answers the analysis questions exact keys cannot: "which known kernel
is this most like?" and "what is the smallest representative subset of
this corpus?" (the subsetting workflow of
:mod:`repro.analysis.subsetting`).  ``repro similar`` and
``/v1/similar`` are its front ends.

Feature space
-------------

:func:`kernel_features` maps a pre-simulation
:class:`~repro.gpu.kernel.KernelCharacteristics` to a fixed vector of
**every quantity the analytical timing model reads** — geometry,
instruction mix, ILP/MLP, and the memory footprint (sizes in log10 so
a 2x work difference is the same distance at every scale).  Two kernels
with equal feature vectors therefore produce bit-identical metrics.
:func:`metric_features` is the post-simulation counterpart over
:class:`~repro.gpu.metrics.KernelMetrics` (roofline coordinates plus
the Table IV vocabulary) for corpus analytics.

Vectors are standardized with the same zero-mean/unit-variance fit
FAMD applies to its quantitative block
(:func:`repro.analysis.famd.standardize_columns`), so distances weigh
each feature by its corpus-wide spread rather than its unit.

Queries
-------

:class:`KernelIndex` holds ``(key, raw vector, payload)`` items and
answers nearest / k-NN / representative-subset queries with one exact
vectorized scan over the standardized vectors.  Determinism contract:
the fit is always built from items sorted by key and ties are broken by
``(distance, key)``, so **answers are invariant to insertion order**.
The fit is redone lazily on the first query after a mutation.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.famd import standardize_columns
from repro.analysis.subsetting import (
    SubsetResult,
    representatives_for_coverage,
    select_representatives,
)
from repro.gpu.kernel import KernelCharacteristics
from repro.gpu.metrics import KernelMetrics

__all__ = [
    "STRUCTURAL_FEATURES",
    "METRIC_FEATURES",
    "KernelIndex",
    "Neighbor",
    "kernel_features",
    "metric_features",
]

#: Pre-simulation feature names, in vector order.  Complete over the
#: timing-model inputs: equal vectors ⇒ bit-identical simulated metrics.
STRUCTURAL_FEATURES: Tuple[str, ...] = (
    "log_warp_insts",
    "log_grid_blocks",
    "warps_per_block",
    "ilp",
    "mlp",
    "mix_fp32",
    "mix_ld_st",
    "mix_branch",
    "mix_sync",
    "log_bytes_read",
    "log_bytes_written",
    "log_reuse_factor",
    "l1_locality",
    "coalescence",
    "l2_carry_in",
    "log_working_set",
)

#: Post-simulation feature names (corpus analytics / CLI queries).
METRIC_FEATURES: Tuple[str, ...] = (
    "log_gips",
    "log_instruction_intensity",
    "warp_occupancy",
    "sm_efficiency",
    "l1_hit_rate",
    "l2_hit_rate",
    "ld_st_utilization",
    "sp_utilization",
    "fraction_branches",
    "fraction_ld_st",
    "execution_stall",
    "pipe_stall",
    "sync_stall",
    "memory_stall",
)


def _log10p(value: float) -> float:
    return math.log10(1.0 + value)


def kernel_features(kernel: KernelCharacteristics) -> np.ndarray:
    """Structural feature vector of one kernel (STRUCTURAL_FEATURES order)."""
    memory = kernel.memory
    return np.array(
        [
            math.log10(kernel.warp_insts),
            math.log10(kernel.grid_blocks),
            float(kernel.warps_per_block),
            kernel.ilp,
            kernel.mlp,
            kernel.mix.fp32,
            kernel.mix.ld_st,
            kernel.mix.branch,
            kernel.mix.sync,
            _log10p(memory.bytes_read),
            _log10p(memory.bytes_written),
            math.log10(memory.reuse_factor),
            memory.l1_locality,
            memory.coalescence,
            memory.l2_carry_in,
            _log10p(memory.effective_working_set),
        ],
        dtype=np.float64,
    )


def metric_features(metrics: KernelMetrics) -> np.ndarray:
    """Post-simulation feature vector (METRIC_FEATURES order)."""
    return np.array(
        [
            _log10p(metrics.gips),
            _log10p(metrics.instruction_intensity),
            metrics.warp_occupancy,
            metrics.sm_efficiency,
            metrics.l1_hit_rate,
            metrics.l2_hit_rate,
            metrics.ld_st_utilization,
            metrics.sp_utilization,
            metrics.fraction_branches,
            metrics.fraction_ld_st,
            metrics.execution_stall,
            metrics.pipe_stall,
            metrics.sync_stall,
            metrics.memory_stall,
        ],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class Neighbor:
    """One similarity-query answer."""

    key: str
    #: Euclidean distance in the standardized feature space.
    distance: float
    payload: Any
    #: True when the *raw* feature vectors are exactly equal — stronger
    #: than ``distance == 0`` (a zero-variance column standardizes every
    #: value to 0, hiding raw differences).
    exact: bool


class KernelIndex:
    """Similarity index over named kernel feature vectors.

    Parameters
    ----------
    feature_names:
        Names of the vector components (defaults to the structural
        space); only used for validation and introspection.
    """

    def __init__(
        self, feature_names: Sequence[str] = STRUCTURAL_FEATURES
    ) -> None:
        self.feature_names = tuple(feature_names)
        self._items: Dict[str, Tuple[np.ndarray, Any]] = {}
        self._dirty = True
        # Built state (valid when not dirty):
        self._keys: List[str] = []
        self._raw: Optional[np.ndarray] = None
        self._points: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        #: Standardization fits performed.
        self.builds = 0

    # -- corpus management --------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def add(self, key: str, vector: np.ndarray, payload: Any = None) -> None:
        """Insert (or replace) one item.  O(1); the next query rebuilds."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (len(self.feature_names),):
            raise ValueError(
                f"expected a {len(self.feature_names)}-feature vector, "
                f"got shape {vector.shape}"
            )
        if not np.isfinite(vector).all():
            raise ValueError(f"non-finite feature vector for {key!r}")
        self._items[key] = (vector, payload)
        self._dirty = True

    def keys(self) -> List[str]:
        return sorted(self._items)

    # -- build ---------------------------------------------------------
    def build(self) -> None:
        """(Re)fit standardization over the items sorted by key.

        Deterministic regardless of insertion order.
        """
        if not self._dirty:
            return
        self._keys = sorted(self._items)
        self._raw = np.array(
            [self._items[k][0] for k in self._keys], dtype=np.float64
        )
        if len(self._keys) == 0:
            self._points = None
            self._dirty = False
            return
        self._points, self._mean, self._std = standardize_columns(self._raw)
        self.builds += 1
        self._dirty = False

    def _standardize_query(self, vector: np.ndarray) -> np.ndarray:
        assert self._mean is not None and self._std is not None
        return (np.asarray(vector, dtype=np.float64) - self._mean) / self._std

    # -- queries -------------------------------------------------------
    def nearest(
        self, vector: np.ndarray, exclude: Optional[str] = None
    ) -> Optional[Neighbor]:
        """The closest item (ties by key), or None on an empty corpus."""
        found = self.knn(vector, 1, exclude=exclude)
        return found[0] if found else None

    def knn(
        self, vector: np.ndarray, k: int, exclude: Optional[str] = None
    ) -> List[Neighbor]:
        """The k nearest items, sorted by ``(distance, key)``."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.build()
        if not self._keys:
            return []
        assert self._points is not None and self._raw is not None
        query = self._standardize_query(vector)
        dist = np.sqrt(((self._points - query) ** 2).sum(axis=1))
        rows = np.arange(len(dist))
        if exclude in self._items:
            rows = np.delete(rows, bisect.bisect_left(self._keys, exclude))
        if k < len(rows):
            # Keep every row tied with the k-th distance, so the
            # (distance, key) order below decides which of them survive.
            kth = np.partition(dist[rows], k - 1)[k - 1]
            rows = rows[dist[rows] <= kth]
        # Rows are in key order, so (distance, row) is (distance, key).
        ranked = rows[np.lexsort((rows, dist[rows]))][:k]
        raw_query = np.asarray(vector, dtype=np.float64)
        neighbors = []
        for row in ranked.tolist():
            key = self._keys[row]
            neighbors.append(Neighbor(
                key=key,
                distance=float(dist[row]),
                payload=self._items[key][1],
                exact=bool(np.array_equal(self._raw[row], raw_query)),
            ))
        return neighbors

    # -- representative subsets ---------------------------------------
    def _built_points(self) -> Tuple[np.ndarray, List[str]]:
        self.build()
        if self._points is None:
            raise ValueError("representative queries need a non-empty index")
        return self._points, list(self._keys)

    def representative_subset(self, k: int) -> SubsetResult:
        """k-medoids representatives over the standardized corpus."""
        points, labels = self._built_points()
        return select_representatives(points, labels, k)

    def representatives_for_target(self, coverage: float) -> SubsetResult:
        """Smallest representative subset reaching *coverage* (in (0,1])."""
        points, labels = self._built_points()
        return representatives_for_coverage(points, labels, coverage)
