"""Particle-system generation for the MD workloads.

The paper's inputs are a solvated T4-lysozyme complex (Gromacs), the
32 K-atom rhodopsin benchmark and a 60 K-particle colloid model
(LAMMPS).  We cannot ship those proprietary-adjacent input decks, so we
generate synthetic systems with the same *structural* parameters that
matter to the kernel stream: particle count, number density, cutoff
radius, and a solute/solvent split (solute atoms are clustered, solvent
fills the box uniformly).  Neighbour-pair counts — which set the
non-bonded kernel's instruction budget — then follow from actual
geometry rather than from constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SystemSpec:
    """Structural description of an MD input system."""

    name: str
    n_atoms: int
    #: Particles per cubic nanometre (water-like systems ~ 100/nm^3
    #: counting all atoms; coarse-grained colloids are much sparser).
    number_density: float
    #: Pair interaction cutoff radius in nm.
    cutoff_nm: float
    #: Fraction of atoms belonging to the clustered solute.
    solute_fraction: float = 0.0
    #: Bonded interactions per atom (bonds+angles+dihedrals, approx).
    bonded_terms_per_atom: float = 0.0
    #: Whether long-range electrostatics (PME/PPPM) are required.
    long_range_electrostatics: bool = True

    def __post_init__(self) -> None:
        if self.n_atoms <= 0:
            raise ValueError(f"n_atoms must be positive, got {self.n_atoms}")
        if self.number_density <= 0:
            raise ValueError("number_density must be positive")
        if self.cutoff_nm <= 0:
            raise ValueError("cutoff_nm must be positive")
        if not 0.0 <= self.solute_fraction <= 1.0:
            raise ValueError("solute_fraction must be in [0, 1]")

    @property
    def box_nm(self) -> float:
        """Cubic box edge length for the requested density."""
        return float((self.n_atoms / self.number_density) ** (1.0 / 3.0))

    def scaled(self, scale: float) -> "SystemSpec":
        """Shrink the system to ``scale`` of its atom count.

        Density and cutoff are preserved, so per-atom neighbour counts —
        and hence per-atom kernel cost — are scale-invariant.
        """
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        n = max(256, int(round(self.n_atoms * scale)))
        return SystemSpec(
            name=self.name,
            n_atoms=n,
            number_density=self.number_density,
            cutoff_nm=self.cutoff_nm,
            solute_fraction=self.solute_fraction,
            bonded_terms_per_atom=self.bonded_terms_per_atom,
            long_range_electrostatics=self.long_range_electrostatics,
        )


def wrap_into_box(x: np.ndarray, box: float) -> None:
    """``np.mod(x, box, out=x)``, bit for bit, in a few cheap passes.

    On (-box, 2 box) the remainder needs at most one subtraction or
    addition of *box*: ``x - box`` is exact for x in [box, 2 box)
    (Sterbenz), ``fmod`` is the identity on (-box, box), and numpy adds
    *box* to a negative ``fmod`` with the same rounding as ``x + box``.
    A -0.0 becomes +0.0, as under ``np.mod``.  Any value outside that
    range (or non-finite) takes ``np.mod`` itself.
    """
    if not (x.min() > -box and x.max() < 2.0 * box):
        np.mod(x, box, out=x)
        return
    np.subtract(x, box, out=x, where=x >= box)
    np.add(x, box, out=x, where=x < 0.0)
    np.add(x, 0.0, out=x, where=x == 0.0)


class ParticleSystem:
    """Concrete particle positions generated from a :class:`SystemSpec`."""

    def __init__(self, spec: SystemSpec, seed: int = 0) -> None:
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.box = spec.box_nm
        self.positions = self._generate_positions()
        #: Monotone counter bumped on every position change made through
        #: the class API.  Consumers (``CellList``) key caches on it, so
        #: repeated neighbour-list builds between perturbations reuse
        #: their geometry work.  Mutating ``positions`` in place from
        #: outside without calling :meth:`set_positions` is unsupported.
        self.position_version = 0

    def _generate_positions(self) -> np.ndarray:
        spec = self.spec
        n_solute = int(round(spec.n_atoms * spec.solute_fraction))
        n_solvent = spec.n_atoms - n_solute

        parts = []
        if n_solvent:
            parts.append(self.rng.uniform(0.0, self.box, size=(n_solvent, 3)))
        if n_solute:
            # A globular solute: Gaussian blob at the box centre with a
            # radius ~ a third of the box, wrapped into the box.
            centre = np.full(3, self.box / 2.0)
            blob = self.rng.normal(
                loc=centre, scale=self.box / 6.0, size=(n_solute, 3)
            )
            parts.append(np.mod(blob, self.box))
        return np.concatenate(parts, axis=0).astype(np.float64)

    @property
    def n_atoms(self) -> int:
        return self.spec.n_atoms

    def perturb(self, displacement_nm: float = 0.01) -> None:
        """Random-walk the particles, emulating integration drift.

        Used between re-neighbouring events so repeated neighbour-list
        builds see slightly different geometry, like a real run.
        """
        if displacement_nm < 0:
            raise ValueError("displacement_nm must be non-negative")
        step = self.rng.normal(0.0, displacement_nm, size=self.positions.shape)
        # In place (bit-identical to ``np.mod(positions + step, box)``)
        # to avoid two position-sized temporaries per perturbation at
        # paper scale.
        np.add(self.positions, step, out=self.positions)
        wrap_into_box(self.positions, self.box)
        self.position_version += 1

    def set_positions(self, positions: np.ndarray) -> None:
        """Replace the particle positions (copied), bumping the version.

        Positions must lie in ``[0, box)``, the invariant the generator
        and :meth:`perturb` maintain.
        """
        arr = np.array(positions, dtype=np.float64, copy=True)
        if arr.shape != (self.n_atoms, 3):
            raise ValueError(
                f"positions must have shape {(self.n_atoms, 3)}, "
                f"got {arr.shape}"
            )
        if np.any(arr < 0.0) or np.any(arr >= self.box):
            raise ValueError("positions must lie in [0, box)")
        self.positions = arr
        self.position_version += 1


#: Paper input systems (Table I).  Densities/cutoffs follow the actual
#: benchmark decks: atomistic solvated proteins at ~100 atoms/nm^3 with
#: ~1.0-1.2 nm cutoffs; the colloid model is coarse-grained and sparse
#: with a large cutoff.
T4_LYSOZYME = SystemSpec(
    name="T4 lysozyme + ligand (NPT)",
    n_atoms=70_000,
    number_density=100.0,
    cutoff_nm=1.0,
    solute_fraction=0.04,
    bonded_terms_per_atom=1.6,
    long_range_electrostatics=True,
)

RHODOPSIN = SystemSpec(
    name="Rhodopsin protein (32K atoms)",
    n_atoms=32_000,
    number_density=100.0,
    cutoff_nm=1.2,
    solute_fraction=0.17,
    bonded_terms_per_atom=2.1,
    long_range_electrostatics=True,
)

COLLOID = SystemSpec(
    name="Colloid (60K particles)",
    n_atoms=60_000,
    number_density=0.3,
    cutoff_nm=2.5,
    solute_fraction=0.0,
    bonded_terms_per_atom=0.0,
    long_range_electrostatics=False,
)
