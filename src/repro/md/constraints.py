"""Rigid constraints via SHAKE (the paper's "Constraints" kernel).

Rigid SPC water carries three distance constraints per molecule (O-H1,
O-H2, H1-H2).  SHAKE iteratively projects positions back onto the
constraint manifold after each unconstrained integrator step; RATTLE's
velocity stage keeps velocities tangent to it.

The implementation is vectorised across all constraints per iteration
(Jacobi-style updates rather than Gauss-Seidel — order-independent, so
results are reproducible regardless of constraint ordering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.box import Box
from repro.md.topology import Constraint
from repro.util.scatter import scatter_add_rows


class ConstraintError(RuntimeError):
    """Raised when SHAKE fails to converge (blown-up dynamics)."""


@dataclass
class ConstraintArrays:
    """Constraint lists flattened to numpy (built once per topology)."""

    i: np.ndarray
    j: np.ndarray
    d2: np.ndarray  # target squared distances
    inv_mi: np.ndarray
    inv_mj: np.ndarray

    @classmethod
    def from_topology(cls, constraints: list[Constraint], masses: np.ndarray) -> "ConstraintArrays":
        i = np.array([c.i for c in constraints], dtype=np.int64)
        j = np.array([c.j for c in constraints], dtype=np.int64)
        d = np.array([c.distance for c in constraints])
        return cls(
            i=i,
            j=j,
            d2=d * d,
            inv_mi=1.0 / masses[i],
            inv_mj=1.0 / masses[j],
        )

    def __len__(self) -> int:
        return len(self.i)


class ShakeSolver:
    """SHAKE position projection + RATTLE velocity projection."""

    def __init__(
        self,
        constraints: list[Constraint],
        masses: np.ndarray,
        tolerance: float = 1e-8,
        max_iterations: int = 500,
    ) -> None:
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive: {tolerance}")
        self.arrays = ConstraintArrays.from_topology(constraints, masses)
        self.tolerance = tolerance
        self.max_iterations = max_iterations

    @property
    def n_constraints(self) -> int:
        return len(self.arrays)

    def apply_positions(
        self,
        positions: np.ndarray,
        reference: np.ndarray,
        box: Box,
    ) -> int:
        """Project ``positions`` onto the constraints (in place).

        ``reference`` holds pre-step positions; SHAKE's Lagrange directions
        use the *reference* bond vectors, which keeps the scheme
        symplectic.  Returns the iteration count.
        """
        if self.n_constraints == 0:
            return 0
        a = self.arrays
        ref_dr = box.displacement(reference[a.i], reference[a.j])
        inv_m_sum = a.inv_mi + a.inv_mj
        for iteration in range(1, self.max_iterations + 1):
            dr = box.displacement(positions[a.i], positions[a.j])
            r2 = np.sum(dr * dr, axis=1)
            diff = r2 - a.d2
            if np.all(np.abs(diff) < self.tolerance * a.d2):
                return iteration - 1
            # Lagrange multiplier per constraint (Jacobi sweep with a
            # relaxation factor for stability of shared-atom triangles).
            # The denominator degenerates when the current bond vector
            # turns near-orthogonal to the reference one; floor it at its
            # ideal value (2 * inv_m_sum * d^2) to keep the update bounded
            # rather than dividing by ~0.
            denom = 2.0 * inv_m_sum * np.sum(dr * ref_dr, axis=1)
            floor = 0.2 * 2.0 * inv_m_sum * a.d2
            denom = np.where(denom > floor, denom, floor)
            g = diff / denom
            g *= 0.8  # under-relaxation; triangle constraints share atoms
            scatter_add_rows(positions, a.i, -(a.inv_mi * g)[:, None] * ref_dr)
            scatter_add_rows(positions, a.j, (a.inv_mj * g)[:, None] * ref_dr)
        raise ConstraintError(
            f"SHAKE failed to converge in {self.max_iterations} iterations "
            f"(max violation {np.abs(diff).max():.3e})"
        )

    def apply_velocities(
        self,
        velocities: np.ndarray,
        positions: np.ndarray,
        box: Box,
    ) -> int:
        """RATTLE stage: remove velocity components along constraints."""
        if self.n_constraints == 0:
            return 0
        a = self.arrays
        dr = box.displacement(positions[a.i], positions[a.j])
        inv_m_sum = a.inv_mi + a.inv_mj
        for iteration in range(1, self.max_iterations + 1):
            dv = velocities[a.i] - velocities[a.j]
            rv = np.sum(dr * dv, axis=1)
            if np.all(np.abs(rv) < self.tolerance * np.sqrt(a.d2)):
                return iteration - 1
            kappa = rv / (inv_m_sum * np.sum(dr * dr, axis=1))
            kappa *= 0.8
            scatter_add_rows(velocities, a.i, -(a.inv_mi * kappa)[:, None] * dr)
            scatter_add_rows(velocities, a.j, (a.inv_mj * kappa)[:, None] * dr)
        raise ConstraintError(
            f"RATTLE failed to converge in {self.max_iterations} iterations"
        )

    def max_violation(self, positions: np.ndarray, box: Box) -> float:
        """Largest relative constraint violation |r^2 - d^2| / d^2."""
        if self.n_constraints == 0:
            return 0.0
        a = self.arrays
        dr = box.displacement(positions[a.i], positions[a.j])
        r2 = np.sum(dr * dr, axis=1)
        return float(np.max(np.abs(r2 - a.d2) / a.d2))


CONSTRAINT_ALGORITHMS = ("auto", "shake", "lincs", "settle")


def build_constraint_solver(system, algorithm: str = "auto"):
    """Constraint-solver factory (GROMACS' ``constraint-algorithm``).

    * ``settle`` — analytical rigid-water reset; requires a pure 3-site
      water topology;
    * ``lincs``  — series-expansion projection (slow convergence on the
      coupled water triangles, like the real LINCS);
    * ``shake``  — iterative Jacobi projection;
    * ``auto``   — SETTLE for pure water, SHAKE otherwise.

    Returns ``None`` when the topology has no constraints.
    """
    if algorithm not in CONSTRAINT_ALGORITHMS:
        raise ValueError(
            f"unknown constraint algorithm {algorithm!r}; "
            f"choose from {CONSTRAINT_ALGORITHMS}"
        )
    topo = system.topology
    if not topo.constraints:
        return None
    if algorithm == "auto":
        from repro.md.settle import SettleSolver

        try:
            return SettleSolver.from_water_topology(system)
        except ValueError:
            return ShakeSolver(topo.constraints, system.masses)
    if algorithm == "settle":
        from repro.md.settle import SettleSolver

        return SettleSolver.from_water_topology(system)
    if algorithm == "lincs":
        from repro.md.lincs import LincsSolver

        return LincsSolver(topo.constraints, system.masses)
    return ShakeSolver(topo.constraints, system.masses)
