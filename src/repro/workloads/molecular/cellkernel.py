"""Compiled cell-list pair counter for the MD hot path.

``CellList.build`` needs the exact number of neighbour pairs within the
cutoff plus per-atom neighbour counts.  The scipy ``cKDTree`` dual-tree
counter is exact but costs ~1.5 s per build at the paper-scale GMS
system (70 K atoms, ~420 neighbours each), and it is rebuilt on every
re-neighbouring event.  This module holds a classic cell-list sweep
(the algorithm real MD engines use) in C; :mod:`repro.workloads.native`
compiles it on first use and it is called through ``ctypes``.  The
pure-scipy path remains as a fallback wherever a compiler is unavailable
(with a RuntimeWarning saying why).

Exactness contract
------------------
The counts must be *bit-identical* to the KD-tree path: they feed kernel
instruction budgets and ultimately the pinned launch-stream digests.
Floating-point distance tests in a different evaluation order could, in
principle, round a pair across the cutoff differently than scipy does.
Two guards make the fast path provably exact instead of merely close:

* **Two-radius band.**  Pairs are classified against
  ``r1 = r * (1 - 1e-12)`` and ``r2 = r * (1 + 1e-12)``.  Squared
  distances computed in float64 from identical inputs differ between
  implementations by at most a few ulp, far below the ~1e-12 relative
  band.  If *no* pair falls in ``(r1, r2]`` — the overwhelmingly common
  case for randomly generated positions — every faithful float64
  implementation agrees on each pair's in/out classification, so the
  count is exact.  If the band is non-empty, the caller falls back to
  the KD-tree for that build.
* **Conservative cell geometry.**  The cell count per box edge is
  ``nc = floor(box * s / (r * (1 + 1e-9)))`` for stencil radius ``s``,
  so the cell edge ``h >= r * (1 + 1e-9) / s``.  Any pair the ``s``-cell
  stencil cannot see is separated by at least ``s * h > r2`` per axis —
  including atoms mis-binned by one cell through floating-point division
  at a cell boundary — so no in-range pair is ever missed.
"""

from __future__ import annotations

import ctypes
import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

# load_kernel and reset_kernel_cache stay reachable here: MD callers and
# the benchmark's prebuild load the shared library through this module.
from repro.workloads.native import Kernel, load_kernel, reset_kernel_cache

#: Relative half-width of the exactness band around the cutoff.
BAND_REL = 1e-12

#: Upper bound on cells per edge (memory guard for the CSR cell index;
#: enlarging cells beyond the minimum size never loses pairs).
MAX_CELLS_PER_EDGE = 192

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* On x86-64 GCC, build a baseline clone and an AVX2 clone of the kernel;
 * the loader picks one for the running CPU.  The inner loop only
 * vectorizes with AVX2, and one shared object serves every host. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define KERNEL_DISPATCH __attribute__((target_clones("avx2", "default")))
#else
#define KERNEL_DISPATCH
#endif

/* Count unordered atom pairs with periodic squared distance <= r2sq
 * among n atoms (pos: xyz triples) in a cubic box of nc^3 cells, with a
 * half-stencil of radius s.  Pairs with d2 <= r1sq increment out[0] and
 * both atoms' per_atom counters (input order); pairs with
 * r1sq < d2 <= r2sq only increment out[1] (the ambiguity band).
 * Returns 0 on success, 1 for a coordinate that is non-finite or
 * outside [0, box], 2 if an allocation fails, 3 for an unsupported
 * grid.  On a non-zero return the outputs are unspecified. */
KERNEL_DISPATCH
int count_pairs(const double *restrict pos, int64_t n, double box,
                int64_t nc, int64_t s, double r1sq, double r2sq,
                int32_t *restrict per_atom, int64_t *restrict out)
{
    if (s < 1 || s > 2 || nc < 2 * s + 1 || nc > 1024 || n < 1)
        return 3;
    /* Reject anything outside [0, box], NaN included, before it can
     * index a cell.  x == box (an np.mod rounding edge) is accepted and
     * clamped into the last cell below. */
    for (int64_t i = 0; i < 3 * n; i++)
        if (!(pos[i] >= 0.0 && pos[i] <= box))
            return 1;

    /* One zeroed block holds every scratch array.  start[c] is the
     * first sorted index of cell c once binned, and start[n_cells] == n;
     * x/y/z are the coordinates in cell order, order[k] the input index
     * of sorted atom k and cnt[k] its count. */
    const int64_t n_cells = nc * nc * nc;
    int64_t *start = calloc((size_t) (n_cells + 2 + 5 * n), sizeof *start);
    if (!start)
        return 2;
    int64_t *restrict order = start + n_cells + 2, *restrict cnt = order + n;
    double *restrict x = (double *) (cnt + n), *restrict y = x + n,
           *restrict z = x + 2 * n;

    /* Bin by a stable counting sort over cell ids (z fastest), keeping
     * each atom's cell id in per_atom until the counts overwrite it. */
    const double inv_h = 1.0 / (box / (double) nc);
    for (int64_t i = 0; i < n; i++) {
        int64_t id = 0;
        for (int a = 0; a < 3; a++) {
            const int64_t c = (int64_t) (pos[3 * i + a] * inv_h);
            id = id * nc + (c < nc ? c : nc - 1);
        }
        per_atom[i] = (int32_t) id;
        start[id + 2]++;
    }
    for (int64_t c = 2; c < n_cells + 2; c++)
        start[c] += start[c - 1];
    for (int64_t i = 0; i < n; i++) {
        const int64_t k = start[per_atom[i] + 1]++;
        order[k] = i;
        x[k] = pos[3 * i];
        y[k] = pos[3 * i + 1];
        z[k] = pos[3 * i + 2];
    }

    int64_t in_count = 0, r2_count = 0;
    for (int64_t cx = 0; cx < nc; cx++)
    for (int64_t cy = 0; cy < nc; cy++)
    for (int64_t cz = 0; cz < nc; cz++) {
        const int64_t c = (cx * nc + cy) * nc + cz;
        const int64_t a0 = start[c], a1 = start[c + 1];
        if (a0 == a1)
            continue;
        for (int64_t dx = 0; dx <= s; dx++)
        for (int64_t dy = (dx == 0 ? 0 : -s); dy <= s; dy++) {
            const int own = dx == 0 && dy == 0;
            int64_t px = cx + dx, py = cy + dy;
            double sx = 0.0, sy = 0.0;
            if (px >= nc) { px -= nc; sx = box; }
            if (py >= nc) { py -= nc; sy = box; }
            else if (py < 0) { py += nc; sy = -box; }
            const int64_t base = (px * nc + py) * nc;

            /* This (dx, dy) column's cells cz-s..cz+s are contiguous in
             * sorted order: up to three runs, wrapped below the z edge
             * (w = -1), inside, and wrapped above (w = 1).  A run wrapped
             * above holds atoms physically at +box, so the reference atom
             * is shifted by -box (symmetrically below).  The own column
             * starts after atom i and skips its wrapped lower run: those
             * pairs belong to the lower cells. */
            for (int64_t w = own ? 0 : -1; w <= 1; w++) {
                const int64_t lo = cz - s - w * nc, hi = cz + s - w * nc;
                if (hi < 0 || lo >= nc)
                    continue;
                const int64_t b0 = start[base + (lo < 0 ? 0 : lo)];
                const int64_t b1 = start[base + (hi >= nc ? nc : hi + 1)];
                const double sz = (double) w * box;
                for (int64_t i = a0; i < a1; i++) {
                    const double xi = x[i] - sx;
                    const double yi = y[i] - sy;
                    const double zi = z[i] - sz;
                    int64_t ci = 0, cb = 0;
                    for (int64_t j = own && w == 0 ? i + 1 : b0; j < b1; j++) {
                        const double dxp = x[j] - xi;
                        const double dyp = y[j] - yi;
                        const double dzp = z[j] - zi;
                        const double d2 = dxp * dxp + dyp * dyp + dzp * dzp;
                        const int64_t in = d2 <= r1sq;
                        ci += in;
                        cb += d2 <= r2sq;
                        cnt[j] += in;
                    }
                    cnt[i] += ci;
                    in_count += ci;
                    r2_count += cb;
                }
            }
        }
    }

    for (int64_t k = 0; k < n; k++)
        per_atom[order[k]] = (int32_t) cnt[k];
    out[0] = in_count;
    out[1] = r2_count - in_count;
    free(start);
    return 0;
}
"""


class PairCounts(NamedTuple):
    """Result of one compiled cell-list sweep."""

    total_pairs: int
    #: Pairs inside the ambiguity band ``(r1, r2]``; non-zero means the
    #: caller must re-count via the reference KD-tree path.
    band_pairs: int
    #: Per-atom neighbour counts for *all* atoms, in input order.
    per_atom: np.ndarray


KERNEL = Kernel(
    source=_C_SOURCE,
    argtypes={
        "count_pairs": [
            np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS"),
            ctypes.c_int64,  # n
            ctypes.c_double,  # box
            ctypes.c_int64,  # cells per edge
            ctypes.c_int64,  # stencil radius
            ctypes.c_double,  # r1sq
            ctypes.c_double,  # r2sq
            np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS"),
            np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS"),
        ],
    },
)


def _choose_grid(box: float, cutoff: float, n_atoms: int) -> Optional[Tuple[int, int]]:
    """Pick ``(stencil_radius, cells_per_edge)`` or None if unsupported.

    Radius 2 halves the cell edge, shrinking the searched volume per
    atom ~1.7x; it only pays when cells still hold a few atoms each.
    """
    for srad in (2, 1):
        nc = int(math.floor(box * srad / (cutoff * (1.0 + 1e-9))))
        if nc < 2 * srad + 1:
            continue
        nc = min(nc, MAX_CELLS_PER_EDGE)
        if srad == 2 and n_atoms / float(nc) ** 3 < 1.0:
            continue
        return srad, nc
    return None


def count_pairs_exact(
    positions: np.ndarray, box: float, cutoff: float
) -> Optional[PairCounts]:
    """Exact pair counts via the compiled sweep, or None if unavailable.

    ``positions`` should lie in ``[0, box]``.  A None return (no compiler,
    kernel disabled, box too small for the stencil, or a coordinate that
    is non-finite or outside the box) and a result with
    ``band_pairs > 0`` both mean: use the KD-tree reference path.
    """
    lib = load_kernel()
    if lib is None:
        return None
    n = positions.shape[0]
    grid = _choose_grid(box, cutoff, n)
    if grid is None:
        return None
    srad, nc = grid
    # reshape raises unless the input holds exactly n xyz triples.
    pos = np.ascontiguousarray(positions, dtype=np.float64).reshape(n, 3)

    r1sq = (cutoff * (1.0 - BAND_REL)) ** 2
    r2sq = (cutoff * (1.0 + BAND_REL)) ** 2
    per_atom = np.empty(n, dtype=np.int32)
    out = np.zeros(2, dtype=np.int64)
    if lib.count_pairs(pos, n, box, nc, srad, r1sq, r2sq, per_atom, out):
        # A coordinate outside [0, box] (NaN included) or a failed
        # allocation: the reference path decides.
        return None
    return PairCounts(
        total_pairs=int(out[0]),
        band_pairs=int(out[1]),
        per_atom=per_atom,
    )
