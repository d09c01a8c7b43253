"""Compressed-sparse-row graph structure.

The storage format Gunrock (and every GPU graph framework) operates on.
All BFS levels, frontier sizes and traversed-edge counts downstream are
computed on this structure with vectorized numpy operations.

Vertex ids are four bytes, as in Gunrock's default build: ``indices``
is int32, so a graph has fewer than ``2**31`` vertices.  ``indptr``
stays int64, since edge offsets may pass ``2**31``.

:meth:`CSRGraph.from_edges` is a counting sort in C, compiled by
:mod:`repro.workloads.native`; a numpy argsort build is its fallback
and its differential oracle.
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from repro.workloads import native

#: Exclusive bound on what is stored as int32: vertex ids and counts,
#: and sampler outcomes.
MAX_VERTICES = 1 << 31

#: Most edges :meth:`CSRGraph.mark_neighbors` gathers at once, which
#: bounds its scratch at 12 bytes per edge of this.
MARK_CHUNK_EDGES = 1 << 16

_C_SOURCE = r"""
#include <stdint.h>

/* Stable counting sort of m edges (src[i], dst[i]) by source into CSR
 * form over n vertices: indptr (n + 1 entries) and indices (m
 * entries).  Edges of one source keep their input order and duplicates
 * are kept.  The row starts double as scatter cursors, so the sort
 * needs no scratch beyond its outputs.  Returns 0 on success, 1 for an
 * endpoint outside [0, n): the outputs are then unspecified. */
int csr_from_edges(int64_t n, const int32_t *restrict src,
                   const int32_t *restrict dst, int64_t m,
                   int64_t *restrict indptr, int32_t *restrict indices)
{
    for (int64_t v = 0; v <= n; v++)
        indptr[v] = 0;
    for (int64_t i = 0; i < m; i++) {
        const int32_t s = src[i], d = dst[i];
        if (s < 0 || s >= n || d < 0 || d >= n)
            return 1;
        indptr[s + 1]++;
    }
    for (int64_t v = 0; v < n; v++)
        indptr[v + 1] += indptr[v];
    for (int64_t i = 0; i < m; i++)
        indices[indptr[src[i]]++] = dst[i];
    /* Each cursor indptr[v] advanced to its row's end, the start of row
     * v + 1: shift them back up by one row. */
    for (int64_t v = n; v > 0; v--)
        indptr[v] = indptr[v - 1];
    indptr[0] = 0;
    return 0;
}
"""

KERNEL = native.Kernel(
    source=_C_SOURCE,
    argtypes={
        "csr_from_edges": [
            ctypes.c_int64,  # n
            np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS"),
            np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS"),
            ctypes.c_int64,  # m
            np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS"),
            np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS"),
        ],
    },
)


def _check_num_vertices(num_vertices: int) -> None:
    if num_vertices >= MAX_VERTICES:
        raise ValueError(
            f"at most {MAX_VERTICES - 1} vertices (int32 ids), "
            f"got {num_vertices}"
        )


def _vertex_ids(ids: np.ndarray, num_vertices: int, what: str) -> np.ndarray:
    """*ids* as int32, after checking them in their input dtype.

    Narrowing first would wrap an id such as ``2**32 + 1`` to a small,
    valid-looking one.
    """
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        ids = ids.astype(np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_vertices):
        raise ValueError(f"{what} contain out-of-range vertex ids")
    return ids.astype(np.int32, copy=False)


def _slice_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Offsets of every element of the slices ``[starts, starts + lengths)``.

    Built with a single cumsum: fill with ones (step +1 inside a slice),
    scatter each slice's jump at its first element, and prefix-sum.
    One pass over the output instead of the two ``np.repeat`` expansions
    plus arithmetic the naive construction needs.  *lengths* must sum
    to more than zero.
    """
    # Zero-length slices would scatter their successor's jump onto the
    # same position as another slice's — drop them first.
    nonzero = lengths > 0
    if not nonzero.all():
        starts = starts[nonzero]
        lengths = lengths[nonzero]
    positions = np.ones(int(lengths.sum()), dtype=np.int64)
    positions[0] = starts[0]
    boundaries = np.cumsum(lengths[:-1])
    positions[boundaries] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    np.cumsum(positions, out=positions)
    return positions


class CSRGraph:
    """Directed graph in CSR form (int64 ``indptr``, int32 ``indices``)."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if len(indptr) < 1 or indptr[0] != 0:
            raise ValueError("indptr must start with 0")
        n = len(indptr) - 1
        _check_num_vertices(n)
        if indptr[-1] != len(indices):
            raise ValueError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) "
                f"({len(indices)})"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.indptr = indptr
        self.indices = _vertex_ids(indices, n, "indices")

    # ------------------------------------------------------------------
    @classmethod
    def _from_trusted(cls, indptr: np.ndarray, indices: np.ndarray) -> "CSRGraph":
        """Constructor bypass for arrays already known to be valid CSR.

        Used by :meth:`from_edges`, whose sort produces a valid
        ``indptr`` by construction and validates vertex ranges up front —
        re-running the O(V + E) constructor checks would only re-prove
        what the build already guarantees.
        """
        graph = cls.__new__(cls)
        graph.indptr = indptr
        graph.indices = indices
        return graph

    @classmethod
    def from_edges(
        cls, num_vertices: int, src: np.ndarray, dst: np.ndarray
    ) -> "CSRGraph":
        """Build a CSR graph from parallel edge arrays (duplicates kept).

        Counting sort — histogram + prefix sum + stable scatter — so the
        build is O(V + E) instead of the O(E log E) comparison sort a
        generic ``argsort`` pays.  Edges with the same source keep their
        input order (stable), and duplicate edges are preserved, exactly
        as in the argsort fallback.  Contiguous int32 endpoints are used
        in place; wider ones are range-checked, then narrowed.
        """
        _check_num_vertices(num_vertices)
        if np.shape(src) != np.shape(dst):
            raise ValueError("src and dst must have the same shape")
        src = _vertex_ids(src, num_vertices, "edge endpoints")
        dst = _vertex_ids(dst, num_vertices, "edge endpoints")
        lib = native.load_kernel()
        if lib is None:
            return cls._from_edges_numpy(num_vertices, src, dst)
        src = np.ascontiguousarray(src)
        dst = np.ascontiguousarray(dst)
        indptr = np.empty(num_vertices + 1, dtype=np.int64)
        indices = np.empty(src.size, dtype=np.int32)
        if lib.csr_from_edges(
            num_vertices, src, dst, src.size, indptr, indices
        ):
            raise ValueError("edge endpoints contain out-of-range vertex ids")
        return cls._from_trusted(indptr, indices)

    @classmethod
    def _from_edges_numpy(
        cls, num_vertices: int, src: np.ndarray, dst: np.ndarray
    ) -> "CSRGraph":
        """The argsort build: the fallback and the compiled sort's oracle."""
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
        return cls._from_trusted(indptr, dst[order])

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @property
    def avg_degree(self) -> float:
        return self.num_edges / max(1, self.num_vertices)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, vertex: int) -> np.ndarray:
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def frontier_edges(self, frontier: np.ndarray) -> int:
        """Total out-edges of the frontier — the advance kernel's work."""
        degrees = self.indptr[frontier + 1] - self.indptr[frontier]
        return int(degrees.sum())

    def expand(self, frontier: np.ndarray) -> np.ndarray:
        """All neighbours of the frontier (with duplicates)."""
        starts = self.indptr[frontier]
        lengths = self.indptr[frontier + 1] - starts
        if not lengths.any():
            return np.empty(0, dtype=self.indices.dtype)
        return self.indices[_slice_positions(starts, lengths)]

    def mark_neighbors(self, frontier: np.ndarray, mask: np.ndarray) -> None:
        """``mask[self.expand(frontier)] = True`` without the full expand.

        The frontier's concatenated adjacency is walked in windows of
        :data:`MARK_CHUNK_EDGES` edges; a window may start and end inside
        one vertex's list, so no scratch array outgrows the window.
        """
        starts = self.indptr[frontier]
        lengths = self.indptr[frontier + 1] - starts
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if ends.size else 0
        for lo in range(0, total, MARK_CHUNK_EDGES):
            hi = min(lo + MARK_CHUNK_EDGES, total)
            # Frontier entries first..last hold the window's edges.
            first = int(np.searchsorted(ends, lo, side="right"))
            last = int(np.searchsorted(ends, hi, side="left"))
            window_starts = starts[first : last + 1].copy()
            window_lengths = lengths[first : last + 1].copy()
            skip = lo - int(ends[first] - lengths[first])
            window_starts[0] += skip
            window_lengths[0] -= skip
            window_lengths[-1] -= int(ends[last]) - hi
            positions = _slice_positions(window_starts, window_lengths)
            mask[self.indices[positions]] = True

    def degree_histogram(self, bins: int = 32) -> Tuple[np.ndarray, np.ndarray]:
        """Log-spaced degree histogram (for generator validation)."""
        degrees = self.out_degrees()
        max_degree = max(1, int(degrees.max()))
        edges = np.unique(
            np.round(np.logspace(0, np.log10(max_degree + 1), bins)).astype(int)
        )
        hist, _ = np.histogram(degrees, bins=edges)
        return hist, edges
