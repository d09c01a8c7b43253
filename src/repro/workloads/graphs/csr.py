"""Compressed-sparse-row graph structure.

The storage format Gunrock (and every GPU graph framework) operates on.
All BFS levels, frontier sizes and traversed-edge counts downstream are
computed on this structure with vectorized numpy operations.

Vertex ids are four bytes, as in Gunrock's default build: ``indices``
is int32, so a graph has fewer than ``2**31`` vertices.  ``indptr``
stays int64, since edge offsets may pass ``2**31``.

:meth:`CSRGraph.from_edge_stream` is a counting sort in C, compiled by
:mod:`repro.workloads.native`, that takes its edges in chunks over two
passes (count, then scatter), so a generator can stream them without
ever holding an endpoint array; :meth:`CSRGraph.from_edges` is the
one-chunk case.  Each phase has a numpy version, the fallback and the
differential oracle.
"""

from __future__ import annotations

import ctypes
from typing import Iterable, Tuple

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

/* A stable counting sort of edges (s, d) by source into CSR form over
 * n vertices, in phases that take the edges in chunks, so no phase
 * needs them all at once:
 *
 *   csr_count    indptr[s + 1]++ for every source s of a chunk;
 *   (a prefix sum over indptr then holds every row's start;)
 *   csr_scatter  indices[indptr[s]++] = d for every edge of a chunk,
 *                so a row keeps its edges' input order (duplicates
 *                too), and each row start becomes its row's end;
 *   csr_finish   one forward pass that turns the row ends back into
 *                row starts and, if drop_loops, moves each row's
 *                entries d != v forward over its self-loops (d == v).
 *
 * The row starts double as scatter cursors, so the build needs no
 * scratch beyond its outputs.  Rows are written at random, so
 * csr_scatter prefetches for the edges a few steps ahead.  csr_count
 * and csr_scatter return 1 for an endpoint outside [0, n), and
 * csr_scatter returns 2 for an edge whose row is full up to capacity
 * (edges that do not replay the counted sources); the outputs are then
 * unspecified. */
int csr_count(int64_t n, const int32_t *restrict src, int64_t m,
              int64_t *restrict indptr)
{
    for (int64_t i = 0; i < m; i++) {
        const int32_t s = src[i];
        if (s < 0 || s >= n)
            return 1;
        indptr[s + 1]++;
    }
    return 0;
}

/* How far ahead csr_scatter prefetches a source's cursor, and the
 * indices slot that cursor points at (hints only). */
#define CURSOR_AHEAD 32
#define SLOT_AHEAD 8

int csr_scatter(int64_t n, const int32_t *restrict src,
                const int32_t *restrict dst, int64_t m,
                int64_t *restrict indptr, int32_t *restrict indices,
                int64_t capacity)
{
    for (int64_t i = 0; i < m; i++) {
        if (i + CURSOR_AHEAD < m) {
            const int32_t t = src[i + CURSOR_AHEAD];
            if (t >= 0 && t < n)
                __builtin_prefetch(indptr + t, 1);
        }
        if (i + SLOT_AHEAD < m) {
            const int32_t t = src[i + SLOT_AHEAD];
            if (t >= 0 && t < n && indptr[t] < capacity)
                __builtin_prefetch(indices + indptr[t], 1);
        }
        const int32_t s = src[i], d = dst[i];
        if (s < 0 || s >= n || d < 0 || d >= n)
            return 1;
        const int64_t k = indptr[s];
        if (k >= capacity)
            return 2;
        indices[k] = d;
        indptr[s] = k + 1;
    }
    return 0;
}

int csr_finish(int64_t n, int64_t *restrict indptr,
               int32_t *restrict indices, int32_t drop_loops)
{
    int64_t start = 0, kept = 0;
    for (int64_t v = 0; v < n; v++) {
        const int64_t end = indptr[v];
        indptr[v] = kept;
        if (!drop_loops)
            kept = end;
        else
            for (int64_t k = start; k < end; k++)
                if (indices[k] != v)
                    indices[kept++] = indices[k];
        start = end;
    }
    indptr[n] = kept;
    return 0;
}
"""

_IDS = np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS")
_OFFSETS = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")

KERNEL = native.Kernel(
    source=_C_SOURCE,
    argtypes={
        # (n, src, m, indptr)
        "csr_count": [ctypes.c_int64, _IDS, ctypes.c_int64, _OFFSETS],
        # (n, src, dst, m, indptr, indices, capacity)
        "csr_scatter": [
            ctypes.c_int64, _IDS, _IDS, ctypes.c_int64, _OFFSETS, _IDS,
            ctypes.c_int64,
        ],
        # (n, indptr, indices, drop_loops)
        "csr_finish": [ctypes.c_int64, _OFFSETS, _IDS, ctypes.c_int32],
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


_OUT_OF_RANGE = "edge endpoints contain out-of-range vertex ids"
_NOT_REPLAYED = "the edges do not replay the counted sources"


def _chunk_ids(lib, ids: np.ndarray, num_vertices: int) -> np.ndarray:
    """One chunk of endpoints as a contiguous int32 array.

    int32 chunks are range-checked by the compiled phases themselves;
    the numpy phases, and wider ids before narrowing, are checked here.
    """
    ids = np.asarray(ids)
    if lib is None or ids.dtype != np.int32:
        ids = _vertex_ids(ids, num_vertices, "edge endpoints")
    return np.ascontiguousarray(ids)


# The build phases of the C source above, each with its numpy version:
# the fallback without a compiler and the compiled phase's oracle.


def _count(lib, src: np.ndarray, indptr: np.ndarray) -> None:
    """``indptr[s + 1] += 1`` for every source *s*."""
    num_vertices = indptr.size - 1
    if lib is None:
        indptr[1:] += np.bincount(src, minlength=num_vertices)
    elif lib.csr_count(num_vertices, src, src.size, indptr):
        raise ValueError(_OUT_OF_RANGE)


def _scatter(lib, src, dst, indptr: np.ndarray, indices: np.ndarray) -> None:
    """``indices[indptr[s]++] = d`` for every edge ``(s, d)``, in order."""
    num_vertices = indptr.size - 1
    if lib is not None:
        status = lib.csr_scatter(
            num_vertices, src, dst, src.size, indptr, indices, indices.size
        )
        if status:
            raise ValueError(_OUT_OF_RANGE if status == 1 else _NOT_REPLAYED)
        return
    order = np.argsort(src, kind="stable")
    rows, first, counts = np.unique(
        src[order], return_index=True, return_counts=True
    )
    if np.any(indptr[rows] + counts > indices.size):
        raise ValueError(_NOT_REPLAYED)
    # The j-th edge of a row in this chunk goes to its cursor plus j.
    positions = np.repeat(indptr[rows] - first, counts)
    positions += np.arange(src.size)
    indices[positions] = dst[order]
    indptr[rows] += counts


def _finish(
    lib, indptr: np.ndarray, indices: np.ndarray, drop_loops: bool
) -> None:
    """Row ends back to row starts, dropping self-loops if *drop_loops*."""
    num_vertices = indptr.size - 1
    if lib is not None:
        lib.csr_finish(num_vertices, indptr, indices, int(drop_loops))
        return
    indptr[1:] = indptr[:-1].copy()
    indptr[0] = 0
    if not drop_loops:
        return
    lengths = np.diff(indptr)
    rows = np.repeat(np.arange(num_vertices, dtype=np.int32), lengths)
    loops = indices == rows
    kept = indices[~loops]
    indices[: kept.size] = kept
    lengths -= np.bincount(rows[loops], minlength=num_vertices)
    np.cumsum(lengths, out=indptr[1:])


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

        Used by :meth:`from_edge_stream`, whose sort produces a valid
        ``indptr`` by construction and validates every vertex id it
        reads — re-running the O(V + E) constructor checks would only
        re-prove what the build already guarantees.
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
        input order (stable), and duplicate edges and self-loops are
        preserved.  Contiguous int32 endpoints are used in place; wider
        ones are range-checked, then narrowed.
        """
        _check_num_vertices(num_vertices)
        if np.shape(src) != np.shape(dst):
            raise ValueError("src and dst must have the same shape")
        src = _vertex_ids(src, num_vertices, "edge endpoints")
        dst = _vertex_ids(dst, num_vertices, "edge endpoints")
        return cls.from_edge_stream(
            num_vertices, [src], [(src, dst)], drop_self_loops=False
        )

    @classmethod
    def from_edge_stream(
        cls,
        num_vertices: int,
        sources: Iterable[np.ndarray],
        edges: Iterable[Tuple[np.ndarray, np.ndarray]],
        *,
        drop_self_loops: bool,
    ) -> "CSRGraph":
        """Build a CSR graph from edges streamed in chunks, in two passes.

        *sources* yields the edges' source ids, chunk by chunk; it is
        consumed entirely first, to count every row.  *edges* then
        yields ``(src, dst)`` chunk pairs that replay the same sources
        in the same order, and each edge is scattered into its row, so
        a row keeps its edges' input order as in :meth:`from_edges`.
        With *drop_self_loops*, edges ``(v, v)`` are left out.  No chunk
        is kept: the build holds its outputs and the chunks in flight.
        Raises ValueError for an id outside [0, V) and for edges that do
        not replay the counted sources.
        """
        _check_num_vertices(num_vertices)
        lib = native.load_kernel()
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        for src in sources:
            _count(lib, _chunk_ids(lib, src, num_vertices), indptr)
        np.cumsum(indptr, out=indptr)
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int32)
        scattered = 0
        for src, dst in edges:
            src = _chunk_ids(lib, src, num_vertices)
            dst = _chunk_ids(lib, dst, num_vertices)
            if src.shape != dst.shape:
                raise ValueError("src and dst chunks must have the same shape")
            scattered += src.size
            if scattered > total:
                raise ValueError(_NOT_REPLAYED)
            _scatter(lib, src, dst, indptr, indices)
        if scattered != total:
            raise ValueError(_NOT_REPLAYED)
        _finish(lib, indptr, indices, drop_self_loops)
        if indptr[-1] < total:
            # Shrink in place: the dropped self-loops' tail is released.
            indices.resize(int(indptr[-1]), refcheck=False)
        return cls._from_trusted(indptr, indices)

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
