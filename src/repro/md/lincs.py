"""LINCS constraint solver (Hess et al. 1997) — GROMACS' default.

LINCS resets constrained bonds in two phases: (1) solve the linearised
constraint equations with a truncated series expansion of the coupling
matrix inverse (``lincs_order`` terms), (2) correct for the rotational
lengthening of the projection with a few iterations.  Compared to SHAKE
it is non-iterative in phase 1 (fixed work per step) and vectorises
cleanly — which is also why it is the natural constraint kernel to
offload to CPEs.

The coupling matrix is kept sparse: one ``(row, col, coef)`` triplet per
ordered pair of constraints that share an atom, sorted by (row, col), so
memory is linear in the constraint count (rigid water has two couplings
per row).  Its topology-constant factor ``-S_r S_c coef`` is computed
once; each step only multiplies in the bond-direction dot products.
Every term of the series is one ``np.bincount`` over the triplets, which
sums each row's products in ascending column order.  It is validated
against the SHAKE solver and a dense-matrix oracle in
`tests/md/test_lincs_settle.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.box import Box
from repro.md.constraints import ConstraintArrays, ConstraintError
from repro.md.topology import Constraint
from repro.util.scatter import scatter_add_rows


@dataclass(frozen=True)
class LincsConfig:
    lincs_order: int = 8  # series terms (GROMACS default 4; coupled
    # triangle constraints — rigid water — converge slowly, so we default
    # higher; GROMACS itself refuses LINCS for coupled angle constraints)
    lincs_iter: int = 4  # rotational correction iterations

    def __post_init__(self) -> None:
        if self.lincs_order < 1:
            raise ValueError(f"lincs_order must be >= 1: {self.lincs_order}")
        if self.lincs_iter < 1:
            raise ValueError(f"lincs_iter must be >= 1: {self.lincs_iter}")


class LincsSolver:
    """LINCS position projection for a fixed constraint topology."""

    def __init__(
        self,
        constraints: list[Constraint],
        masses: np.ndarray,
        config: LincsConfig | None = None,
    ) -> None:
        self.config = config or LincsConfig()
        self.arrays = ConstraintArrays.from_topology(constraints, masses)
        a = self.arrays
        self.n = len(a)
        if self.n == 0:
            return
        #: Sdiag[c] = 1 / sqrt(1/m_i + 1/m_j)
        self._sdiag = 1.0 / np.sqrt(a.inv_mi + a.inv_mj)
        self._d = np.sqrt(a.d2)
        # Connectivity: constraints sharing an atom couple.  Precompute the
        # signed mass factors of the coupling matrix A (Hess Eq. 5):
        # A_cc' = S_c S_c' * (+-) (1/m_shared) * (B_c . B_c'), where the
        # sign depends on whether the shared atom sits on the same side.
        couple_rows: list[int] = []
        couple_cols: list[int] = []
        couple_coef: list[float] = []
        atom_map: dict[int, list[tuple[int, int]]] = {}
        for c in range(self.n):
            atom_map.setdefault(int(a.i[c]), []).append((c, +1))
            atom_map.setdefault(int(a.j[c]), []).append((c, -1))
        inv_mass = {}
        for c in range(self.n):
            inv_mass[int(a.i[c])] = a.inv_mi[c]
            inv_mass[int(a.j[c])] = a.inv_mj[c]
        for atom, members in atom_map.items():
            for ci, si in members:
                for cj, sj in members:
                    if ci == cj:
                        continue
                    couple_rows.append(ci)
                    couple_cols.append(cj)
                    couple_coef.append(si * sj * inv_mass[atom])
        rows = np.array(couple_rows, dtype=np.int64)
        cols = np.array(couple_cols, dtype=np.int64)
        order = np.lexsort((cols, rows))
        self._rows = rows[order]
        self._cols = cols[order]
        self._coef = np.array(couple_coef)[order]
        # A = I - S B M^-1 B^T S has *negated* coupling off the diagonal;
        # only the bond-direction dot products change from step to step.
        self._factor = (
            -self._sdiag[self._rows] * self._sdiag[self._cols] * self._coef
        )

    @property
    def n_constraints(self) -> int:
        return self.n

    def _bond_dirs(self, positions: np.ndarray, box: Box) -> np.ndarray:
        a = self.arrays
        dr = box.displacement(positions[a.i], positions[a.j])
        norm = np.linalg.norm(dr, axis=1)
        return dr / norm[:, None]

    def _coupling(self, b: np.ndarray) -> np.ndarray:
        """Coupling matrix A (zero diagonal): one value per triplet."""
        return self._factor * np.sum(b[self._rows] * b[self._cols], axis=1)

    def _apply_lagrange(
        self, target: np.ndarray, b: np.ndarray, lam: np.ndarray
    ) -> None:
        a = self.arrays
        scaled = (self._sdiag * lam)[:, None] * b
        scatter_add_rows(target, a.i, -a.inv_mi[:, None] * scaled)
        scatter_add_rows(target, a.j, a.inv_mj[:, None] * scaled)

    def _series_solve(self, vals: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """(I - A)^-1 rhs ~ sum_k A^k rhs, truncated at lincs_order.

        Each ``A @ term`` is a bincount over the sorted triplets.  Without
        triplets it returns int64 zeros; ``sol`` stays float64."""
        sol = rhs.copy()
        term = rhs
        for _ in range(self.config.lincs_order):
            term = np.bincount(
                self._rows, weights=vals * term[self._cols], minlength=self.n
            )
            sol += term
        return sol

    def apply_positions(
        self,
        positions: np.ndarray,
        reference: np.ndarray,
        box: Box,
        tolerance: float = 1e-8,
    ) -> int:
        """Project ``positions`` onto the constraints (in place).

        Returns the number of rotational-correction iterations used.
        Raises :class:`ConstraintError` if the final violation exceeds
        ``sqrt(tolerance)`` relative (grossly broken input geometry).
        """
        if self.n == 0:
            return 0
        a = self.arrays
        b = self._bond_dirs(reference, box)
        vals = self._coupling(b)

        # Phase 1: linear projection.
        dr = box.displacement(positions[a.i], positions[a.j])
        rhs = self._sdiag * (np.sum(b * dr, axis=1) - self._d)
        lam = self._series_solve(vals, rhs)
        self._apply_lagrange(positions, b, lam)

        # Phase 2: rotational lengthening correction.
        iterations = 0
        for _ in range(self.config.lincs_iter):
            iterations += 1
            dr = box.displacement(positions[a.i], positions[a.j])
            len2 = np.sum(dr * dr, axis=1)
            # p = sqrt(2 d^2 - l^2): corrected projection length.
            arg = np.maximum(2.0 * a.d2 - len2, 0.0)
            # p = sqrt(2 d^2 - l^2); rhs = S (d - p) shortens overlong bonds.
            rhs = self._sdiag * (self._d - np.sqrt(arg))
            lam = self._series_solve(vals, rhs)
            self._apply_lagrange(positions, b, lam)

        dr = box.displacement(positions[a.i], positions[a.j])
        violation = np.abs(np.sum(dr * dr, axis=1) - a.d2) / a.d2
        if violation.max() > np.sqrt(tolerance):
            raise ConstraintError(
                f"LINCS residual violation {violation.max():.2e} exceeds "
                f"{np.sqrt(tolerance):.2e}; input geometry too distorted"
            )
        return iterations

    def max_violation(self, positions: np.ndarray, box: Box) -> float:
        if self.n == 0:
            return 0.0
        a = self.arrays
        dr = box.displacement(positions[a.i], positions[a.j])
        return float(np.max(np.abs(np.sum(dr * dr, axis=1) - a.d2) / a.d2))

    def apply_velocities(
        self, velocities: np.ndarray, positions: np.ndarray, box: Box
    ) -> int:
        """Velocity projection: the linearised constraint equations along
        the current bond directions, solved with the same truncated
        series (LINCS applies to any linear quantity, velocities
        included)."""
        if self.n == 0:
            return 0
        a = self.arrays
        b = self._bond_dirs(positions, box)
        vals = self._coupling(b)
        # The truncated series converges slowly on coupled triangles;
        # re-applying the projection is equivalent to extending it and
        # converges geometrically.
        for iteration in range(1, self.config.lincs_iter + 1):
            dv = velocities[a.i] - velocities[a.j]
            rhs = self._sdiag * np.sum(b * dv, axis=1)
            lam = self._series_solve(vals, rhs)
            self._apply_lagrange(velocities, b, lam)
        return iteration
