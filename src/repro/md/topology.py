"""Topology: atom types, LJ parameter tables, charges, bonded terms.

The nonbonded side mirrors GROMACS: per-type C6/C12 with geometric
combination, looked up through dense ``(n_types, n_types)`` matrices so
kernels can gather parameters by type index.  The bonded side carries
bonds, angles, dihedrals and rigid constraints as index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.constants import AtomType


@dataclass(frozen=True)
class Bond:
    """Harmonic bond: ``V = k/2 (r - r0)^2``."""

    i: int
    j: int
    r0: float
    k: float


@dataclass(frozen=True)
class Angle:
    """Harmonic angle: ``V = k/2 (theta - theta0)^2`` (theta0 radians)."""

    i: int
    j: int
    k_index: int
    theta0: float
    k: float


@dataclass(frozen=True)
class Dihedral:
    """Periodic dihedral: ``V = k (1 + cos(n phi - phi0))``."""

    i: int
    j: int
    k_index: int
    l_index: int
    phi0: float
    k: float
    multiplicity: int = 1


@dataclass(frozen=True)
class Constraint:
    """Rigid distance constraint between two particles."""

    i: int
    j: int
    distance: float


class Topology:
    """Atom-type table plus per-particle assignments and bonded lists."""

    def __init__(self, atom_types: list[AtomType]) -> None:
        if not atom_types:
            raise ValueError("topology needs at least one atom type")
        names = [t.name for t in atom_types]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate atom type names: {names}")
        self.atom_types = list(atom_types)
        self._name_to_index = {t.name: i for i, t in enumerate(atom_types)}
        n = len(atom_types)
        c6 = np.array([t.c6 for t in atom_types])
        c12 = np.array([t.c12 for t in atom_types])
        # Geometric combination rule (GROMACS comb-rule 1 on C6/C12).
        self.c6_table = np.sqrt(np.outer(c6, c6))
        self.c12_table = np.sqrt(np.outer(c12, c12))
        self.masses_by_type = np.array([t.mass for t in atom_types])

        self.type_ids = np.empty(0, dtype=np.int32)
        self.charges = np.empty(0, dtype=np.float64)
        self.mol_ids = np.empty(0, dtype=np.int32)
        self.bonds: list[Bond] = []
        self.angles: list[Angle] = []
        self.dihedrals: list[Dihedral] = []
        self.constraints: list[Constraint] = []

    @property
    def n_types(self) -> int:
        return len(self.atom_types)

    @property
    def n_particles(self) -> int:
        return len(self.type_ids)

    def type_index(self, name: str) -> int:
        try:
            return self._name_to_index[name]
        except KeyError:
            raise KeyError(
                f"unknown atom type {name!r}; known: {sorted(self._name_to_index)}"
            ) from None

    def add_particles(
        self,
        type_names: list[str],
        charges: list[float] | np.ndarray,
        mol_id: int | np.ndarray,
    ) -> np.ndarray:
        """Append a block of particles; returns their global indices.

        ``mol_id`` is one molecule id for the whole block or one id per
        particle.  Each call copies the arrays appended so far, so a
        whole system goes in one call.
        """
        n = len(type_names)
        if len(charges) != n:
            raise ValueError("type_names and charges must have equal length")
        mol_ids = np.asarray(mol_id, dtype=np.int32)
        if mol_ids.ndim == 0:
            mol_ids = np.full(n, mol_ids)
        elif mol_ids.shape != (n,):
            raise ValueError(f"mol_id has shape {mol_ids.shape}; need one id or {n}")
        start = self.n_particles
        ids = np.array([self.type_index(t) for t in type_names], dtype=np.int32)
        self.type_ids = np.concatenate([self.type_ids, ids])
        self.charges = np.concatenate([self.charges, np.asarray(charges, dtype=np.float64)])
        self.mol_ids = np.concatenate([self.mol_ids, mol_ids])
        return np.arange(start, start + n)

    @property
    def masses(self) -> np.ndarray:
        """Per-particle masses gathered from the type table."""
        return self.masses_by_type[self.type_ids]

    def validate(self) -> None:
        """Check index arrays are consistent; raise on any violation."""
        n = self.n_particles
        if len(self.charges) != n or len(self.mol_ids) != n:
            raise ValueError("per-particle arrays have inconsistent lengths")
        for b in self.bonds:
            if not (0 <= b.i < n and 0 <= b.j < n and b.i != b.j):
                raise ValueError(f"bad bond {b}")
        for a in self.angles:
            if len({a.i, a.j, a.k_index}) != 3:
                raise ValueError(f"bad angle {a}")
            if not all(0 <= x < n for x in (a.i, a.j, a.k_index)):
                raise ValueError(f"angle index out of range: {a}")
        for d in self.dihedrals:
            if len({d.i, d.j, d.k_index, d.l_index}) != 4:
                raise ValueError(f"bad dihedral {d}")
            if not all(0 <= x < n for x in (d.i, d.j, d.k_index, d.l_index)):
                raise ValueError(f"dihedral index out of range: {d}")
        for c in self.constraints:
            if not (0 <= c.i < n and 0 <= c.j < n and c.i != c.j):
                raise ValueError(f"bad constraint {c}")
            if c.distance <= 0:
                raise ValueError(f"non-positive constraint distance: {c}")

    def n_constrained_dof(self) -> int:
        """Degrees of freedom removed by the rigid constraints."""
        return len(self.constraints)

    def lj_params_for(self, type_i: np.ndarray, type_j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather (C6, C12) for arrays of type-index pairs."""
        return self.c6_table[type_i, type_j], self.c12_table[type_i, type_j]
