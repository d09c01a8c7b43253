"""Differential tests for the vectorized MD stream-generation hot path.

``CellList.build`` was rewritten around a compiled cell-list pair
counter with position-version caching, ``ParticleSystem.perturb`` went
in-place, the kernel builders are memoized, and the three MD workload
loops hoist stream-invariant kernels — all under the same bit-for-bit
contract PR 3 established for the graph engine: every launch stream,
and therefore every pinned digest, must be identical to the original
implementation.  Enforced three ways:

1. ``_legacy_build`` / ``_legacy_perturb`` — the pre-vectorization
   ``CellList.build`` and ``ParticleSystem.perturb`` verbatim — compared
   against the production path for every MD system at every preset
   scale, including the RNG end state (the digests pin the
   ``rng.choice`` consumption order);
2. end-to-end legacy stream drivers (``_legacy_step_*`` replayed by
   ``_legacy_stream``) — the original per-step loops with per-step
   kernel construction — compared by stream digest across cadences;
3. hypothesis property tests of the pair counts themselves (brute-force
   periodic min-image agreement, symmetry, permutation invariance)
   which hold on the compiled path and the scipy fallback alike;
4. wrap-edge differentials of the compiled sweep against brute force on
   every grid shape it supports, plus its input rejection, build-cache
   tag and fallback warnings.
"""

from __future__ import annotations

import math
import os
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.core.config import LAPTOP_SCALE, OBSERVATION_SCALE, PAPER_SCALE
from repro.gpu.digest import launch_stream_digest
from repro.gpu.kernel import LaunchStream
from repro.workloads.molecular import (
    CellList,
    GromacsNPT,
    LammpsColloid,
    LammpsRhodopsin,
    NeighborStats,
    ParticleSystem,
    SystemSpec,
    cellkernel,
    forces,
)
from repro.workloads import native
from repro.workloads.molecular.gromacs import _PME_SPACING_NM
from repro.workloads.molecular.system import COLLOID, RHODOPSIN, T4_LYSOZYME

#: The MD scales the three presets actually use (deduplicated —
#: observation and paper share the full-size molecular systems).
PRESET_SCALES = sorted(
    {
        preset.for_workload("GMS")
        for preset in (LAPTOP_SCALE, OBSERVATION_SCALE, PAPER_SCALE)
    }
)


# ---------------------------------------------------------------------------
# Legacy reference implementations (the pre-vectorization code, verbatim
# modulo variable names).  These define what "unchanged behaviour" means.
# ---------------------------------------------------------------------------

def _legacy_build(system, sample_size=512):
    """The original ``CellList.build``: fresh KD-tree + per-atom loop."""
    cutoff = system.spec.cutoff_nm
    tree = cKDTree(system.positions, boxsize=system.box)
    ordered = tree.count_neighbors(tree, cutoff)
    total_pairs = int((ordered - system.n_atoms) // 2)
    avg = 2.0 * total_pairs / system.n_atoms

    n_sample = min(sample_size, system.n_atoms)
    sample_idx = system.rng.choice(
        system.n_atoms, size=n_sample, replace=False
    )
    per_atom = np.array(
        [
            len(tree.query_ball_point(system.positions[i], cutoff)) - 1
            for i in sample_idx
        ],
        dtype=np.float64,
    )
    mean = float(per_atom.mean()) if per_atom.size else 0.0
    std = float(per_atom.std()) if per_atom.size else 0.0
    cv = std / mean if mean > 0 else 0.0

    return NeighborStats(
        n_atoms=system.n_atoms,
        total_pairs=total_pairs,
        avg_neighbors_per_atom=avg,
        imbalance_cv=cv,
    )


def _legacy_perturb(system, displacement_nm):
    """The original ``ParticleSystem.perturb``: rebinding, no version."""
    step = system.rng.normal(0.0, displacement_nm, size=system.positions.shape)
    system.positions = np.mod(system.positions + step, system.box)


def _legacy_stream(workload, step_fn, displacement_nm):
    """The original workload loop shape: rebuild stats via the legacy
    path on re-neighbour steps, then emit one step's launches."""
    system = ParticleSystem(workload.spec, seed=workload.seed)
    stats = _legacy_build(system)
    stream = LaunchStream()
    for step in range(workload.steps):
        if step > 0 and step % workload.reneighbor_interval == 0:
            _legacy_perturb(system, displacement_nm)
            stats = _legacy_build(system)
        step_fn(workload, stream, system, stats, step)
    return stream


def _legacy_step_gms(workload, stream, system, stats, step):
    """One GMS step, verbatim: per-step kernel construction."""
    n_atoms = workload.spec.n_atoms
    grid_dim = max(16, math.ceil(system.box / _PME_SPACING_NM))
    grid_points = grid_dim ** 3
    n_bonded = int(n_atoms * workload.spec.bonded_terms_per_atom)
    n_constraints = int(n_atoms * 0.6)

    stream.launch(
        forces.nonbonded_pair_kernel(
            "nbnxn_kernel_ElecEw_VdwLJ_F",
            n_atoms,
            stats.total_pairs,
            thread_insts_per_pair=145.0,
            imbalance_cv=stats.imbalance_cv,
        ),
        phase="force",
    )
    if step % 4 == 0:
        stream.launch(
            forces.pairlist_prune_kernel(
                "nbnxn_kernel_prune_rolling",
                n_atoms,
                stats.total_pairs * 3,
                thread_insts_per_pair=40.0,
            ),
            phase="force",
        )
    stream.launch(
        forces.charge_spread_kernel(
            "pme_spline_and_spread", n_atoms, grid_points
        ),
        phase="pme",
    )
    stream.launch(
        forces.fft_3d_kernel("pme_cufft_radix4", grid_points), phase="pme"
    )
    stream.launch(
        forces.poisson_solve_kernel("pme_solve", grid_points), phase="pme"
    )
    stream.launch(
        forces.fft_3d_kernel("pme_cufft_radix4", grid_points), phase="pme"
    )
    stream.launch(
        forces.force_gather_kernel("pme_gather", n_atoms, grid_points),
        phase="pme",
    )
    stream.launch(
        forces.bonded_kernel("bonded_forces", n_bonded, n_atoms),
        phase="force",
    )
    stream.launch(
        forces.integrate_kernel(
            "leapfrog_integrator_npt", n_atoms, thread_insts_per_atom=45.0
        ),
        phase="update",
    )
    stream.launch(
        forces.constraint_kernel("lincs_constraints", n_constraints),
        phase="update",
    )


def _legacy_step_lmr(workload, stream, system, stats, step):
    """One LMR step, verbatim: per-step kernel construction."""
    n_atoms = workload.spec.n_atoms
    grid_dim = max(12, math.ceil(system.box / 0.22))
    grid_points = grid_dim ** 3
    n_bonds = int(n_atoms * 0.72)
    n_angles = int(n_atoms * 0.55)
    n_dihedrals = int(n_atoms * 0.62)
    n_impropers = int(n_atoms * 0.12)
    n_halo = int(n_atoms * 0.10)
    reneighbor = step > 0 and step % workload.reneighbor_interval == 0

    stream.launch(
        forces.integrate_kernel(
            "nve_integrate_initial",
            n_atoms,
            thread_insts_per_atom=20.0,
            bytes_read_per_atom=28.0,
            bytes_written_per_atom=16.0,
        ),
        phase="update",
    )
    stream.launch(
        forces.halo_exchange_kernel("comm_forward_comm", n_halo),
        phase="comm",
    )
    if reneighbor:
        stream.launch(
            forces.neighbor_bin_kernel("neighbor_bin_atoms", n_atoms),
            phase="neighbor",
        )
        stream.launch(
            forces.neighbor_build_kernel(
                "neighbor_build_full",
                n_atoms,
                stats.total_pairs,
                candidate_ratio=4.4,
            ),
            phase="neighbor",
        )
    stream.launch(
        forces.nonbonded_pair_kernel(
            "pair_lj_charmm_coul_long",
            n_atoms,
            stats.total_pairs,
            thread_insts_per_pair=200.0,
            imbalance_cv=stats.imbalance_cv,
            pairlist_bytes_per_pair=4.0,
        ),
        phase="force",
    )
    stream.launch(
        forces.charge_spread_kernel(
            "pppm_make_rho", n_atoms, grid_points, spline_order=5
        ),
        phase="pppm",
    )
    stream.launch(
        forces.fft_3d_kernel("pppm_fft_forward", grid_points), phase="pppm"
    )
    stream.launch(
        forces.poisson_solve_kernel("pppm_poisson_solve", grid_points),
        phase="pppm",
    )
    stream.launch(
        forces.fft_3d_kernel("pppm_fft_back", grid_points), phase="pppm"
    )
    stream.launch(
        forces.force_gather_kernel(
            "pppm_fieldforce", n_atoms, grid_points, spline_order=5
        ),
        phase="pppm",
    )
    stream.launch(
        forces.bonded_kernel(
            "bond_harmonic", n_bonds, n_atoms, thread_insts_per_term=60.0
        ),
        phase="force",
    )
    stream.launch(
        forces.bonded_kernel(
            "angle_charmm", n_angles, n_atoms, thread_insts_per_term=110.0
        ),
        phase="force",
    )
    stream.launch(
        forces.bonded_kernel(
            "dihedral_charmm", n_dihedrals, n_atoms,
            thread_insts_per_term=160.0,
        ),
        phase="force",
    )
    stream.launch(
        forces.bonded_kernel(
            "improper_harmonic", n_impropers, n_atoms,
            thread_insts_per_term=120.0,
        ),
        phase="force",
    )
    stream.launch(
        forces.integrate_kernel(
            "nve_integrate_final",
            n_atoms,
            thread_insts_per_atom=14.0,
            bytes_read_per_atom=20.0,
            bytes_written_per_atom=12.0,
        ),
        phase="update",
    )


def _legacy_step_lmc(workload, stream, system, stats, step):
    """One LMC step, verbatim: per-step kernel construction."""
    n_atoms = workload.spec.n_atoms
    n_halo = int(n_atoms * 0.08)
    reneighbor = step > 0 and step % workload.reneighbor_interval == 0

    stream.launch(
        forces.integrate_kernel(
            "nve_integrate_initial",
            n_atoms,
            thread_insts_per_atom=20.0,
            bytes_read_per_atom=28.0,
            bytes_written_per_atom=16.0,
        ),
        phase="update",
    )
    stream.launch(
        forces.halo_exchange_kernel("comm_forward_comm", n_halo),
        phase="comm",
    )
    if reneighbor:
        stream.launch(
            forces.neighbor_bin_kernel("neighbor_bin_atoms", n_atoms),
            phase="neighbor",
        )
        stream.launch(
            forces.neighbor_build_kernel(
                "neighbor_build_full",
                n_atoms,
                stats.total_pairs,
                candidate_ratio=4.4,
            ),
            phase="neighbor",
        )
    stream.launch(
        forces.nonbonded_pair_kernel(
            "pair_colloid",
            n_atoms,
            stats.total_pairs,
            thread_insts_per_pair=900.0,
            imbalance_cv=stats.imbalance_cv,
            pairlist_bytes_per_pair=4.0,
        ),
        phase="force",
    )
    stream.launch(
        forces.integrate_kernel(
            "fix_langevin",
            n_atoms,
            thread_insts_per_atom=90.0,
            bytes_read_per_atom=76.0,
            bytes_written_per_atom=40.0,
        ),
        phase="update",
    )
    stream.launch(
        forces.integrate_kernel(
            "nve_integrate_final",
            n_atoms,
            thread_insts_per_atom=14.0,
            bytes_read_per_atom=20.0,
            bytes_written_per_atom=12.0,
        ),
        phase="update",
    )
    stream.launch(
        forces.halo_exchange_kernel("comm_reverse_comm", n_halo),
        phase="comm",
    )
    if step % 5 == 0:
        stream.launch(
            forces.reduction_kernel("thermo_temp_compute", n_atoms),
            phase="output",
        )


_LEGACY = {
    GromacsNPT: (_legacy_step_gms, 0.01),
    LammpsRhodopsin: (_legacy_step_lmr, 0.01),
    LammpsColloid: (_legacy_step_lmc, 0.05),
}


def _brute_force_counts(positions, box, cutoff):
    """O(n^2) periodic min-image reference: (total pairs, per-atom)."""
    delta = positions[:, None, :] - positions[None, :, :]
    delta -= box * np.round(delta / box)
    d2 = np.einsum("ijk,ijk->ij", delta, delta)
    within = d2 <= cutoff * cutoff
    np.fill_diagonal(within, False)
    per_atom = within.sum(axis=1)
    return int(per_atom.sum()) // 2, per_atom


# ---------------------------------------------------------------------------
# CellList differentials vs the legacy build, at every preset scale
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", PRESET_SCALES)
@pytest.mark.parametrize(
    "spec", [T4_LYSOZYME, RHODOPSIN, COLLOID], ids=["GMS", "LMR", "LMC"]
)
def test_cell_list_build_matches_legacy(spec, scale):
    """Identical stats AND identical RNG consumption for every MD system
    at every preset scale (laptop 0.1; observation == paper at 1.0)."""
    scaled = spec.scaled(scale)
    new_system = ParticleSystem(scaled, seed=2)
    old_system = ParticleSystem(scaled, seed=2)
    assert CellList(new_system).build() == _legacy_build(old_system)
    # The digests pin the rng.choice consumption order: both paths must
    # leave the generator in the same state.
    assert new_system.rng.integers(2**63) == old_system.rng.integers(2**63)


@pytest.mark.parametrize(
    "spec", [T4_LYSOZYME, RHODOPSIN, COLLOID], ids=["GMS", "LMR", "LMC"]
)
def test_cached_rebuilds_replay_rng_like_legacy(spec):
    """Repeated builds between perturbations serve counts from the cache
    but must still redraw the imbalance sample — the exact scenario the
    position-version cache could silently break."""
    scaled = spec.scaled(0.05)
    new_system = ParticleSystem(scaled, seed=7)
    old_system = ParticleSystem(scaled, seed=7)
    cell_list = CellList(new_system)
    for _ in range(3):  # same geometry: cache hits after the first
        assert cell_list.build() == _legacy_build(old_system)
    new_system.perturb(0.02)
    _legacy_perturb(old_system, 0.02)
    np.testing.assert_array_equal(new_system.positions, old_system.positions)
    assert cell_list.build() == _legacy_build(old_system)
    assert new_system.rng.integers(2**63) == old_system.rng.integers(2**63)


def test_scipy_fallback_matches_compiled_path():
    """With the compiled kernel disabled, the KD-tree fallback (with its
    vectorized sampling) produces identical stats and RNG state."""
    scaled = T4_LYSOZYME.scaled(0.05)
    fast_system = ParticleSystem(scaled, seed=5)
    fast = CellList(fast_system).build()

    previous = os.environ.get(native.ENV_DISABLE)
    os.environ[native.ENV_DISABLE] = "1"
    cellkernel.reset_kernel_cache()
    try:
        slow_system = ParticleSystem(scaled, seed=5)
        slow = CellList(slow_system).build()
    finally:
        if previous is None:
            os.environ.pop(native.ENV_DISABLE, None)
        else:
            os.environ[native.ENV_DISABLE] = previous
        cellkernel.reset_kernel_cache()

    assert fast == slow
    assert fast_system.rng.integers(2**63) == slow_system.rng.integers(2**63)


def test_cutoff_band_pair_falls_back_to_reference():
    """A pair at exactly the cutoff lands in the ambiguity band: the
    compiled sweep must report it and CellList must re-count via the
    KD-tree, agreeing with the legacy build."""
    spec = SystemSpec(
        name="band", n_atoms=4, number_density=0.0625, cutoff_nm=1.0
    )  # box = 4 nm
    positions = np.array(
        [
            [0.5, 0.5, 0.5],
            [1.5, 0.5, 0.5],  # exactly cutoff from atom 0
            [3.2, 3.2, 3.2],
            [3.2, 3.2, 2.6],  # 0.6 nm from atom 2: unambiguous pair
        ]
    )
    counts = cellkernel.count_pairs_exact(positions, spec.box_nm, 1.0)
    if counts is not None:
        assert counts.band_pairs == 1
        assert counts.total_pairs == 1  # only the unambiguous pair

    new_system = ParticleSystem(spec, seed=0)
    new_system.set_positions(positions)
    old_system = ParticleSystem(spec, seed=0)
    old_system.set_positions(positions)
    assert CellList(new_system).build() == _legacy_build(old_system)


# ---------------------------------------------------------------------------
# End-to-end stream differentials: hoisted loops vs the original drivers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # default cadence (the pinned-digest configuration)
        {"steps": 13, "reneighbor_interval": 3},
        {"steps": 6, "reneighbor_interval": 1},
    ],
    ids=["default", "interval3", "interval1"],
)
@pytest.mark.parametrize(
    "cls", [GromacsNPT, LammpsRhodopsin, LammpsColloid],
    ids=["GMS", "LMR", "LMC"],
)
def test_stream_digest_matches_legacy_driver(cls, kwargs):
    scale = LAPTOP_SCALE.for_workload("GMS")
    workload = cls(scale=scale, seed=3, **kwargs)
    step_fn, displacement = _LEGACY[cls]
    legacy = _legacy_stream(workload, step_fn, displacement)
    current = cls(scale=scale, seed=3, **kwargs).launch_stream()
    assert len(current) == len(legacy)
    assert launch_stream_digest(current) == launch_stream_digest(legacy)


# ---------------------------------------------------------------------------
# Property tests: the pair counts themselves
# ---------------------------------------------------------------------------

@st.composite
def _small_systems(draw):
    n = draw(st.integers(4, 180))
    density = draw(st.floats(0.5, 60.0))
    cutoff = draw(st.floats(0.2, 1.5))
    solute = draw(st.sampled_from([0.0, 0.4]))
    seed = draw(st.integers(0, 2**31 - 1))
    spec = SystemSpec(
        name="prop",
        n_atoms=n,
        number_density=density,
        cutoff_nm=cutoff,
        solute_fraction=solute,
    )
    return ParticleSystem(spec, seed=seed)


@given(system=_small_systems())
@settings(max_examples=40, deadline=None)
def test_pair_count_matches_brute_force(system):
    """Exact agreement with an O(n^2) periodic min-image count — on
    whichever path (compiled or KD-tree) the geometry selects."""
    expected, _ = _brute_force_counts(
        system.positions, system.box, system.spec.cutoff_nm
    )
    stats = CellList(system).build()
    assert stats.total_pairs == expected
    assert stats.total_pairs >= 0
    assert stats.avg_neighbors_per_atom == pytest.approx(
        2.0 * expected / system.n_atoms
    )


@given(system=_small_systems())
@settings(max_examples=40, deadline=None)
def test_compiled_per_atom_counts_symmetric_and_exact(system):
    """Compiled sweep: per-atom counts are non-negative, sum to twice
    the pair count (every pair has two ends), and match brute force."""
    counts = cellkernel.count_pairs_exact(
        system.positions, system.box, system.spec.cutoff_nm
    )
    if counts is None:
        return  # geometry unsupported (box too small) or no compiler
    assert np.all(counts.per_atom >= 0)
    assert int(counts.per_atom.sum()) == 2 * counts.total_pairs
    if counts.band_pairs == 0:
        expected_pairs, expected_per_atom = _brute_force_counts(
            system.positions, system.box, system.spec.cutoff_nm
        )
        assert counts.total_pairs == expected_pairs
        np.testing.assert_array_equal(counts.per_atom, expected_per_atom)


@given(system=_small_systems(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_pair_count_invariant_under_atom_permutation(system, seed):
    """Relabelling atoms permutes the per-atom counts and leaves the
    pair count unchanged."""
    perm = np.random.default_rng(seed).permutation(system.n_atoms)
    cutoff = system.spec.cutoff_nm
    base = cellkernel.count_pairs_exact(system.positions, system.box, cutoff)
    permuted = cellkernel.count_pairs_exact(
        np.ascontiguousarray(system.positions[perm]), system.box, cutoff
    )
    if base is not None and permuted is not None:
        assert permuted.total_pairs == base.total_pairs
        np.testing.assert_array_equal(permuted.per_atom, base.per_atom[perm])

    # The full build agrees on the permutation-invariant statistics
    # through either path (the imbalance sample depends on labels).
    twin = ParticleSystem(system.spec, seed=0)
    twin.set_positions(system.positions[perm])
    original = ParticleSystem(system.spec, seed=0)
    original.set_positions(system.positions)
    a = CellList(original).build()
    b = CellList(twin).build()
    assert a.total_pairs == b.total_pairs
    assert a.avg_neighbors_per_atom == b.avg_neighbors_per_atom


# ---------------------------------------------------------------------------
# Satellites: position versioning and grid selection
# ---------------------------------------------------------------------------

def test_position_version_tracks_mutations():
    system = ParticleSystem(RHODOPSIN.scaled(0.01), seed=1)
    assert system.position_version == 0
    system.perturb(0.01)
    assert system.position_version == 1
    system.set_positions(system.positions[::-1])
    assert system.position_version == 2
    with pytest.raises(ValueError, match="shape"):
        system.set_positions(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="box"):
        system.set_positions(np.full((system.n_atoms, 3), system.box * 2))


def test_cache_invalidated_by_perturbation():
    system = ParticleSystem(T4_LYSOZYME.scaled(0.02), seed=4)
    cell_list = CellList(system)
    before = cell_list.build()
    system.perturb(0.5)  # large kick: geometry genuinely changes
    after = cell_list.build()
    assert after.total_pairs != before.total_pairs


def test_grid_selection_bounds():
    # Box below three cells per edge: unsupported, fall back.
    assert cellkernel._choose_grid(box=1.0, cutoff=0.5, n_atoms=100) is None
    grid = cellkernel._choose_grid(box=10.0, cutoff=1.0, n_atoms=10_000)
    assert grid is not None
    srad, nc = grid
    assert nc >= 2 * srad + 1
    # The cell edge never drops below cutoff/srad (no missed pairs).
    assert 10.0 / nc >= 1.0 / srad


# ---------------------------------------------------------------------------
# Compiled kernel: periodic wrap edges, bad input, build cache and warnings
# ---------------------------------------------------------------------------

_HAS_COMPILER = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))
needs_compiler = pytest.mark.skipif(
    not _HAS_COMPILER, reason="no C compiler (cc, gcc or clang) on PATH"
)

#: ``(stencil radius, cells per edge, box, atoms)`` at cutoff 1.0, each
#: forcing the named grid: the smallest legal ``nc = 2s+1``, ``2s+2``
#: (the z edge splits every column), and a larger grid.
_WRAP_GRIDS = [
    (1, 3, 3.5, 200),
    (1, 4, 4.5, 300),
    (1, 7, 7.5, 300),
    (2, 5, 2.75, 300),
    (2, 6, 3.25, 300),
    (2, 9, 4.75, 800),
]


def _wrap_edge_positions(box, n, seed):
    """Uniform atoms plus atoms within 1e-3 of every face, atoms at
    exactly 0 and ``box``, and a clustered solute straddling a corner."""
    rng = np.random.default_rng(seed)
    parts = []
    for axis in range(3):
        for near_high in (False, True):
            face = rng.uniform(0.0, box, size=(6, 3))
            inset = rng.uniform(0.0, 1e-3, size=6)
            face[:, axis] = box - inset if near_high else inset
            parts.append(face)
            exact = rng.uniform(0.0, box, size=(2, 3))
            exact[:, axis] = box if near_high else 0.0
            parts.append(exact)
    parts.append(np.array([[0.0, 0.0, 0.0], [box, box, box], [0.0, box, 0.0]]))
    parts.append(np.mod(rng.normal(0.0, 0.3, size=(40, 3)), box))
    used = sum(len(p) for p in parts)
    parts.append(rng.uniform(0.0, box, size=(n - used, 3)))
    return np.concatenate(parts)


@needs_compiler
@pytest.mark.parametrize(
    "srad, nc, box, n", _WRAP_GRIDS,
    ids=[f"s{s}-nc{nc}" for s, nc, _, _ in _WRAP_GRIDS],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_compiled_counts_exact_at_wrap_edges(srad, nc, box, n, seed):
    """Total, band and per-atom counts equal brute force on every
    supported grid shape, with atoms on and next to every face."""
    assert cellkernel._choose_grid(box, 1.0, n) == (srad, nc)
    positions = _wrap_edge_positions(box, n, seed)
    counts = cellkernel.count_pairs_exact(positions, box, 1.0)
    assert counts is not None
    expected_pairs, expected_per_atom = _brute_force_counts(positions, box, 1.0)
    assert counts.band_pairs == 0
    assert counts.total_pairs == expected_pairs
    np.testing.assert_array_equal(counts.per_atom, expected_per_atom)


@needs_compiler
@pytest.mark.parametrize(
    "srad, nc, box, n", _WRAP_GRIDS,
    ids=[f"s{s}-nc{nc}" for s, nc, _, _ in _WRAP_GRIDS],
)
def test_compiled_band_pair_across_wrap(srad, nc, box, n):
    """A pair at exactly the cutoff through the periodic x edge lands in
    the ambiguity band and is left out of the total."""
    positions = _wrap_edge_positions(box, n, seed=2)
    positions[0] = [0.25, 0.5 * box, 0.5 * box]
    positions[1] = [box - 0.75, 0.5 * box, 0.5 * box]
    assert cellkernel._choose_grid(box, 1.0, n) == (srad, nc)
    counts = cellkernel.count_pairs_exact(positions, box, 1.0)
    assert counts is not None
    expected_pairs, _ = _brute_force_counts(positions, box, 1.0)
    assert counts.band_pairs == 1
    assert counts.total_pairs == expected_pairs - 1


@needs_compiler
@pytest.mark.parametrize(
    "bad", [math.nan, -1e-9, -0.5, 10.0 + 1e-6, math.inf],
    ids=["nan", "tiny-negative", "negative", "past-box", "inf"],
)
def test_compiled_rejects_coordinates_outside_box(bad):
    """A coordinate that is non-finite or outside [0, box] makes the
    kernel decline (KD-tree fallback) instead of indexing a cell."""
    positions = np.random.default_rng(0).uniform(0.0, 10.0, size=(500, 3))
    assert cellkernel.count_pairs_exact(positions, 10.0, 1.0) is not None
    positions[17, 1] = bad
    assert cellkernel.count_pairs_exact(positions, 10.0, 1.0) is None
    # x == box (an np.mod rounding edge) is accepted.
    positions[17, 1] = 10.0
    assert cellkernel.count_pairs_exact(positions, 10.0, 1.0) is not None


@needs_compiler
def test_compiled_kernel_is_active():
    """With a C compiler on PATH the compiled path must load: a
    toolchain or dispatch regression must not pass slowly on the KD-tree."""
    cellkernel.reset_kernel_cache()
    assert cellkernel.load_kernel() is not None


def test_build_tag_covers_compile_command():
    base = native._build_tag(["cc", "-O3", "-fPIC", "-shared"])
    assert base == native._build_tag(["cc", "-O3", "-fPIC", "-shared"])
    assert base != native._build_tag(["cc", "-O2", "-fPIC", "-shared"])
    assert base != native._build_tag(["clang", "-O3", "-fPIC", "-shared"])
    assert base != native._build_tag(["cc", "-O3", "-fPIC -shared"])


@pytest.fixture
def fresh_kernel():
    """Forget the loaded kernel before and after the test."""
    cellkernel.reset_kernel_cache()
    yield
    cellkernel.reset_kernel_cache()


def test_missing_compiler_warns_once(fresh_kernel, monkeypatch):
    monkeypatch.delenv(native.ENV_DISABLE, raising=False)
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        assert cellkernel.load_kernel() is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cellkernel.load_kernel() is None


def test_failed_compile_warns_with_compiler_stderr(
    fresh_kernel, monkeypatch, tmp_path
):
    fake_cc = tmp_path / "cc"
    fake_cc.write_text("#!/bin/sh\necho 'unrecognized option -ffoo' >&2\nexit 1\n")
    fake_cc.chmod(0o755)
    monkeypatch.delenv(native.ENV_DISABLE, raising=False)
    monkeypatch.setenv(native.ENV_CACHE_DIR, str(tmp_path / "build"))
    monkeypatch.setattr(native.shutil, "which", lambda name: str(fake_cc))
    with pytest.warns(RuntimeWarning, match="unrecognized option -ffoo"):
        assert cellkernel.load_kernel() is None


def test_disabled_kernel_is_silent(fresh_kernel, monkeypatch):
    monkeypatch.setenv(native.ENV_DISABLE, "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cellkernel.load_kernel() is None
