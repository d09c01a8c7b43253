"""Exact weighted vertex sampling for the graph generators.

The social-network generator draws tens of millions of edge endpoints
from a power-law vertex distribution.  ``numpy``'s ``Generator.choice``
implements this as a full binary search of the CDF per sample, which
profiling shows dominating GST's graph build.  :class:`CdfSampler` is a
Chen–Asau *guide table* accelerating the exact inverse-CDF transform.
Fed the same uniform stream, it reproduces ``rng.choice(n, size=size,
p=p)`` **bit for bit** (it computes exactly ``cdf.searchsorted(u,
side="right")``, just with a bucketed search), so every downstream
launch-stream digest is unchanged.

The lookup runs as a compiled C loop (built by
:mod:`repro.workloads.native`) and falls back to a vectorized numpy
bisection that makes the same comparisons; the numpy path is also the
differential oracle for the C one.  Draws are made and resolved in
fixed-size chunks (:meth:`CdfSampler.chunks`), so a caller can stream
them without any full-size array.  Indices are int32, the graphs'
vertex-id format, so a table holds fewer than ``2**31`` outcomes, and
the guide table is int32 as well.
"""

from __future__ import annotations

import ctypes
from typing import Iterator, Optional

import numpy as np

from repro.workloads import native
from repro.workloads.graphs.csr import MAX_VERTICES

#: Uniforms drawn and resolved per chunk by :meth:`CdfSampler.sample`.
SAMPLE_CHUNK = 1 << 16

_C_SOURCE = r"""
#include <stdint.h>

/* How far ahead cdf_lookup prefetches the guide entry of a uniform,
 * and the cdf entry that guide entry points at. */
#define GUIDE_AHEAD 64
#define CDF_AHEAD 16

/* out[i] = the first index k with cdf[k] > u[i] (numpy's searchsorted
 * with side="right") for m uniforms.  Bucket j = floor(u * buckets) of
 * the guide table brackets the answer in [guide[j], guide[j + 1]]; a
 * bisection with the same cdf[mid] <= u comparisons resolves it.
 * Both tables are larger than the caches and the lookups independent,
 * so each step prefetches for the uniforms a few steps ahead (hints
 * only: the results do not depend on them).  Returns 0 on success, 1
 * for a u that is non-finite or outside [0, 1): it is never used as an
 * index, and the outputs are then unspecified. */
int cdf_lookup(const double *restrict cdf, const int32_t *restrict guide,
               int64_t buckets, const double *restrict u, int64_t m,
               int32_t *restrict out)
{
    const double scale = (double) buckets;
    for (int64_t i = 0; i < m; i++) {
        if (i + GUIDE_AHEAD < m) {
            const double y = u[i + GUIDE_AHEAD];
            if (y >= 0.0 && y < 1.0)
                __builtin_prefetch(guide + (int64_t) (y * scale));
        }
        if (i + CDF_AHEAD < m) {
            const double y = u[i + CDF_AHEAD];
            if (y >= 0.0 && y < 1.0)
                __builtin_prefetch(cdf + guide[(int64_t) (y * scale)]);
        }
        const double x = u[i];
        if (!(x >= 0.0 && x < 1.0))
            return 1;
        const int64_t j = (int64_t) (x * scale);
        int64_t lo = guide[j], hi = guide[j + 1];
        while (lo < hi) {
            const int64_t mid = (lo + hi) >> 1;
            if (cdf[mid] <= x)
                lo = mid + 1;
            else
                hi = mid;
        }
        out[i] = (int32_t) lo;
    }
    return 0;
}
"""

KERNEL = native.Kernel(
    source=_C_SOURCE,
    argtypes={
        "cdf_lookup": [
            np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS"),
            np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS"),
            ctypes.c_int64,  # buckets
            np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS"),
            ctypes.c_int64,  # m
            np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS"),
        ],
    },
)


def _normalized_probabilities(probabilities: np.ndarray) -> np.ndarray:
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a non-empty 1-D array")
    if p.size >= MAX_VERTICES:
        raise ValueError(
            f"at most {MAX_VERTICES - 1} outcomes (int32 indices), got {p.size}"
        )
    if np.any(p < 0):
        raise ValueError("probabilities must be non-negative")
    total = p.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("probabilities must have a positive, finite sum")
    return p


class CdfSampler:
    """Exact-replay weighted sampler (guide-table inverse CDF).

    ``Generator.choice(n, size=k, p=p)`` internally computes::

        cdf = p.cumsum(); cdf /= cdf[-1]
        u = rng.random(k)
        idx = cdf.searchsorted(u, side="right")

    :meth:`sample` consumes the identical ``rng.random(k)`` stream and
    computes the identical ``searchsorted`` result, but resolves each
    sample through a guide table of ``K`` equal-width buckets over
    [0, 1): bucket ``j`` pre-stores the index range the search can land
    in, so the per-sample binary search collapses to one or two
    refinement steps instead of ``log2(n)`` probes.

    ``K`` is a power of two so ``floor(u * K)`` and the bucket bounds
    ``j / K`` are exact in binary floating point — the bracketing
    invariant ``guide[j] <= searchsorted(u) <= guide[j + 1]`` is then
    exact, and the refinement bisection uses the same ``cdf[mid] <= u``
    comparisons as ``searchsorted`` itself, which makes the replay
    bit-for-bit regardless of rounding in ``cdf``.
    """

    def __init__(
        self,
        probabilities: np.ndarray,
        guide_buckets: Optional[int] = None,
    ) -> None:
        p = _normalized_probabilities(probabilities)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf
        n = cdf.size
        if guide_buckets is None:
            # ~2 buckets per outcome keeps almost every bucket's index
            # range at width <= 1 while the table stays cache-friendly.
            guide_buckets = 1 << max(1, int(np.ceil(np.log2(2 * n))))
        if guide_buckets < 2 or guide_buckets & (guide_buckets - 1):
            raise ValueError(
                f"guide_buckets must be a power of two >= 2, got {guide_buckets}"
            )
        self._buckets = guide_buckets
        # Bucket bounds j / K are searched a chunk at a time, straight
        # into the int32 table: no full-size float or int64 temporaries.
        self._guide = np.empty(guide_buckets + 1, dtype=np.int32)
        for start in range(0, guide_buckets + 1, SAMPLE_CHUNK):
            stop = min(start + SAMPLE_CHUNK, guide_buckets + 1)
            boundaries = np.arange(start, stop, dtype=np.float64)
            boundaries /= guide_buckets
            self._guide[start:stop] = cdf.searchsorted(boundaries, side="right")

    def __len__(self) -> int:
        return int(self.cdf.size)

    # ------------------------------------------------------------------
    def lookup(
        self, u: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``cdf.searchsorted(u, side="right")`` for uniforms in [0, 1).

        *u* is flattened.  Returns int32 indices, written into *out* (a
        contiguous int32 array of ``u.size`` entries) when given.  Raises
        ValueError for a non-finite *u* or one outside [0, 1).
        """
        u = np.ascontiguousarray(u, dtype=np.float64).reshape(-1)
        if out is None:
            out = np.empty(u.size, dtype=np.int32)
        elif out.shape != u.shape:
            raise ValueError(f"out must have shape {u.shape}, got {out.shape}")
        elif out.dtype != np.int32 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous int32 array")
        lib = native.load_kernel()
        if lib is None:
            return self._lookup_numpy(u, out)
        if lib.cdf_lookup(self.cdf, self._guide, self._buckets, u, u.size, out):
            raise ValueError("uniforms must be finite and in [0, 1)")
        return out

    def _lookup_numpy(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The numpy bisection: the fallback and the compiled path's oracle."""
        if not np.all((u >= 0.0) & (u < 1.0)):
            raise ValueError("uniforms must be finite and in [0, 1)")
        cdf = self.cdf
        bucket = (u * self._buckets).astype(np.int64)
        # int64, so the midpoint sum below cannot overflow.
        lo = self._guide[bucket].astype(np.int64)
        hi = self._guide[bucket + 1].astype(np.int64)
        # Vectorized bisection on the (typically empty or single-entry)
        # per-bucket index range; identical comparisons to searchsorted.
        active = np.flatnonzero(lo < hi)
        while active.size:
            alo = lo[active]
            ahi = hi[active]
            mid = (alo + ahi) >> 1
            go_right = cdf[mid] <= u[active]
            alo = np.where(go_right, mid + 1, alo)
            ahi = np.where(go_right, ahi, mid)
            lo[active] = alo
            hi[active] = ahi
            active = active[alo < ahi]
        out[...] = lo
        return out

    def chunks(
        self, rng: np.random.Generator, size: int
    ) -> Iterator[np.ndarray]:
        """Yield the draws of :meth:`sample` in :data:`SAMPLE_CHUNK` pieces.

        Each piece is drawn when the iterator is advanced, into one
        reused int32 buffer that the next piece overwrites.  Successive
        ``rng.random`` chunks concatenate to the doubles one
        ``rng.random(size)`` call returns, so the pieces concatenate to
        ``rng.choice(n, size, p=p)``.
        """
        uniforms = np.empty(min(size, SAMPLE_CHUNK), dtype=np.float64)
        out = np.empty(uniforms.size, dtype=np.int32)
        for start in range(0, size, SAMPLE_CHUNK):
            count = min(SAMPLE_CHUNK, size - start)
            rng.random(out=uniforms[:count])
            yield self.lookup(uniforms[:count], out=out[:count])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw *size* int32 indices, equal to ``rng.choice(n, size, p=p)``.

        Consumes exactly ``size`` doubles from *rng*, the same stream
        ``Generator.choice`` would consume.
        """
        out = np.empty(size, dtype=np.int32)
        start = 0
        for chunk in self.chunks(rng, size):
            out[start : start + chunk.size] = chunk
            start += chunk.size
        return out
