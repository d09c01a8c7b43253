"""Tests for the molecular-dynamics workload substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import characterize
from repro.workloads.molecular import (
    CellList,
    GromacsNPT,
    LammpsColloid,
    LammpsRhodopsin,
    ParticleSystem,
    SystemSpec,
)
from repro.workloads.molecular.system import (
    COLLOID,
    RHODOPSIN,
    T4_LYSOZYME,
    wrap_into_box,
)

SMALL = 0.05  # test scale: a few thousand atoms


class TestSystemSpec:
    def test_box_from_density(self):
        spec = SystemSpec(name="s", n_atoms=1000, number_density=100.0, cutoff_nm=1.0)
        assert spec.box_nm == pytest.approx((1000 / 100.0) ** (1 / 3))

    def test_scaled_preserves_density(self):
        half = RHODOPSIN.scaled(0.5)
        assert half.n_atoms == 16_000
        assert half.number_density == RHODOPSIN.number_density
        assert half.cutoff_nm == RHODOPSIN.cutoff_nm

    def test_scaled_floors_atom_count(self):
        tiny = RHODOPSIN.scaled(0.0001)
        assert tiny.n_atoms >= 256

    def test_validation(self):
        with pytest.raises(ValueError, match="n_atoms"):
            SystemSpec(name="s", n_atoms=0, number_density=1.0, cutoff_nm=1.0)
        with pytest.raises(ValueError, match="cutoff"):
            SystemSpec(name="s", n_atoms=10, number_density=1.0, cutoff_nm=0.0)
        with pytest.raises(ValueError, match="scale"):
            RHODOPSIN.scaled(0.0)


class TestParticleSystem:
    def test_positions_inside_box(self):
        system = ParticleSystem(RHODOPSIN.scaled(SMALL), seed=1)
        assert system.positions.shape == (system.n_atoms, 3)
        assert np.all(system.positions >= 0.0)
        assert np.all(system.positions < system.box)

    def test_deterministic_given_seed(self):
        a = ParticleSystem(RHODOPSIN.scaled(SMALL), seed=7)
        b = ParticleSystem(RHODOPSIN.scaled(SMALL), seed=7)
        assert np.array_equal(a.positions, b.positions)

    def test_different_seed_different_positions(self):
        a = ParticleSystem(RHODOPSIN.scaled(SMALL), seed=1)
        b = ParticleSystem(RHODOPSIN.scaled(SMALL), seed=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_perturb_keeps_atoms_in_box(self):
        system = ParticleSystem(RHODOPSIN.scaled(SMALL), seed=1)
        system.perturb(0.5)
        assert np.all(system.positions >= 0.0)
        assert np.all(system.positions < system.box)

    def test_perturb_rejects_negative(self):
        system = ParticleSystem(RHODOPSIN.scaled(SMALL), seed=1)
        with pytest.raises(ValueError):
            system.perturb(-1.0)


@st.composite
def _wrap_inputs(draw):
    """A box and positions plus displacements: in-box positions, edge
    values (0, -0.0, box, its neighbours, and sums that round to box),
    and displacements of a box or more, which leave (-box, 2 box)."""
    box = draw(st.floats(1e-3, 1e3))
    tiny = box * 2.0**-60  # box - tiny and -tiny + box round to box
    edges = [0.0, -0.0, box, -tiny, box - tiny, np.nextafter(box, 0.0),
             np.nextafter(box, np.inf), np.nextafter(-box, 0.0),
             np.nextafter(2.0 * box, 0.0), 2.0 * box, -box]
    positions = draw(st.lists(
        st.one_of(st.floats(0.0, box, exclude_max=True),
                  st.sampled_from(edges)),
        min_size=1, max_size=40,
    ))
    steps = draw(st.lists(
        st.one_of(st.floats(-0.5 * box, 0.5 * box),
                  st.floats(-3.0 * box, 3.0 * box),
                  st.sampled_from([0.0, -0.0, tiny, -tiny])),
        min_size=len(positions), max_size=len(positions),
    ))
    return box, np.add(positions, steps)


@given(_wrap_inputs())
@settings(max_examples=300, deadline=None)
def test_wrap_into_box_is_np_mod_bit_for_bit(inputs):
    box, x = inputs
    expected = np.mod(x, box)
    wrap_into_box(x, box)
    assert x.tobytes() == expected.tobytes()


class TestCellList:
    def test_pair_count_matches_density_estimate(self):
        """Uniform system: avg neighbours ~ rho * 4/3 pi r^3."""
        spec = SystemSpec(
            name="uniform", n_atoms=4000, number_density=50.0, cutoff_nm=1.0
        )
        stats = CellList(ParticleSystem(spec, seed=3)).build()
        expected = 50.0 * (4.0 / 3.0) * np.pi * 1.0 ** 3
        assert stats.avg_neighbors_per_atom == pytest.approx(expected, rel=0.15)

    def test_pairs_consistent_with_average(self):
        stats = CellList(ParticleSystem(COLLOID.scaled(SMALL), seed=0)).build()
        assert stats.avg_neighbors_per_atom == pytest.approx(
            2.0 * stats.total_pairs / stats.n_atoms
        )

    def test_clustered_system_more_imbalanced(self):
        uniform = SystemSpec(
            name="u", n_atoms=4000, number_density=50.0, cutoff_nm=1.0
        )
        clustered = SystemSpec(
            name="c", n_atoms=4000, number_density=50.0, cutoff_nm=1.0,
            solute_fraction=0.5,
        )
        cv_uniform = CellList(ParticleSystem(uniform, seed=0)).build().imbalance_cv
        cv_clustered = CellList(ParticleSystem(clustered, seed=0)).build().imbalance_cv
        assert cv_clustered > cv_uniform

    def test_sample_size_validation(self):
        system = ParticleSystem(RHODOPSIN.scaled(SMALL), seed=0)
        with pytest.raises(ValueError, match="sample_size"):
            CellList(system, sample_size=0)


class TestImbalanceDegenerateCases:
    """The ``std / mean if mean > 0 else 0.0`` division guard, pinned.

    Degenerate geometries must yield well-defined statistics — never a
    ZeroDivisionError, never a NaN leaking into kernel ILP."""

    def test_single_atom(self):
        spec = SystemSpec(
            name="one", n_atoms=1, number_density=1.0, cutoff_nm=0.5
        )
        stats = CellList(ParticleSystem(spec, seed=0)).build()
        assert stats.total_pairs == 0
        assert stats.avg_neighbors_per_atom == 0.0
        assert stats.imbalance_cv == 0.0

    def test_zero_neighbors(self):
        # Mean inter-particle spacing ~10 nm at this density; a 0.3 nm
        # cutoff leaves every sampled atom with zero neighbours, so the
        # mean hits the guard exactly.
        spec = SystemSpec(
            name="sparse", n_atoms=64, number_density=0.001, cutoff_nm=0.3
        )
        stats = CellList(ParticleSystem(spec, seed=1)).build()
        assert stats.total_pairs == 0
        assert stats.imbalance_cv == 0.0
        assert np.isfinite(stats.imbalance_cv)

    def test_sample_larger_than_n_atoms(self):
        # sample_size far above n_atoms clamps to n_atoms and must draw
        # the identical sample (same rng.choice call) as an exact-size
        # request — the oversized configuration is not a separate path.
        spec = SystemSpec(
            name="tiny", n_atoms=300, number_density=50.0, cutoff_nm=0.6
        )
        oversized = CellList(
            ParticleSystem(spec, seed=3), sample_size=10_000
        ).build()
        exact = CellList(
            ParticleSystem(spec, seed=3), sample_size=300
        ).build()
        assert oversized == exact
        assert oversized.imbalance_cv >= 0.0
        assert np.isfinite(oversized.imbalance_cv)


@pytest.fixture(scope="module")
def profiles():
    return {
        w.abbr: characterize(w).profile
        for w in (
            GromacsNPT(scale=SMALL, steps=12),
            LammpsRhodopsin(scale=SMALL, steps=12),
            LammpsColloid(scale=SMALL, steps=12),
        )
    }


class TestKernelMenus:
    """Table I structure: the distinct-kernel counts per workload."""

    def test_gms_runs_nine_kernels(self, profiles):
        assert profiles["GMS"].num_kernels == 9

    def test_lmr_runs_fifteen_kernels(self, profiles):
        assert profiles["LMR"].num_kernels == 15

    def test_lmc_runs_nine_kernels(self, profiles):
        assert profiles["LMC"].num_kernels == 9

    def test_input_sensitivity_different_kernels(self, profiles):
        """Observation #3: same code base, different kernels per input."""
        lmr = {k.name for k in profiles["LMR"].kernels}
        lmc = {k.name for k in profiles["LMC"].kernels}
        assert "pair_lj_charmm_coul_long" in lmr
        assert "pair_colloid" in lmc
        assert "pppm_make_rho" in lmr and "pppm_make_rho" not in lmc
        assert "fix_langevin" in lmc and "fix_langevin" not in lmr

    def test_shared_engine_kernels_overlap(self, profiles):
        lmr = {k.name for k in profiles["LMR"].kernels}
        lmc = {k.name for k in profiles["LMC"].kernels}
        assert "nve_integrate_initial" in lmr & lmc

    def test_gms_dominated_by_nonbonded(self, profiles):
        assert (
            profiles["GMS"].dominant_kernel.name
            == "nbnxn_kernel_ElecEw_VdwLJ_F"
        )

    def test_time_shares_normalized(self, profiles):
        for profile in profiles.values():
            assert sum(profile.time_shares().values()) == pytest.approx(1.0)


class TestScaleInvariance:
    def test_kernel_menu_stable_under_scale(self):
        small = characterize(GromacsNPT(scale=0.03, steps=8)).profile
        larger = characterize(GromacsNPT(scale=0.08, steps=8)).profile
        assert {k.name for k in small.kernels} == {k.name for k in larger.kernels}

    def test_more_atoms_more_instructions(self):
        small = characterize(LammpsColloid(scale=0.03, steps=8)).profile
        larger = characterize(LammpsColloid(scale=0.08, steps=8)).profile
        assert larger.total_warp_insts > small.total_warp_insts

    def test_steps_validation(self):
        with pytest.raises(ValueError, match="steps"):
            GromacsNPT(scale=SMALL, steps=0)
