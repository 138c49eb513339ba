"""Leapfrog integrator with thermostats and constraint coupling.

GROMACS' default ``md`` integrator is leapfrog; the paper's workflow
(Fig. 1) runs force -> update -> constraints each step.  Thermostats:

* ``none``      — NVE,
* ``berendsen`` — weak-coupling rescale,
* ``vrescale``  — Bussi stochastic velocity rescale (canonical).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.md.constraints import ShakeSolver
from repro.md.system import ParticleSystem
from repro.util.units import KB_KJ_PER_MOL_K

THERMOSTATS = ("none", "berendsen", "vrescale")


@dataclass
class IntegratorConfig:
    dt: float = 0.002  # ps
    thermostat: str = "none"
    target_temperature: float = 300.0
    tau_t: float = 0.1  # ps coupling time
    remove_com_interval: int = 100

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive: {self.dt}")
        if self.thermostat not in THERMOSTATS:
            raise ValueError(
                f"thermostat {self.thermostat!r} not in {THERMOSTATS}"
            )
        if self.tau_t <= 0:
            raise ValueError(f"tau_t must be positive: {self.tau_t}")


class LeapfrogIntegrator:
    """Leapfrog (velocity offset by dt/2) with optional SHAKE/RATTLE."""

    def __init__(
        self,
        config: IntegratorConfig,
        constraints: ShakeSolver | None = None,
        seed: int = 7,
    ) -> None:
        self.config = config
        self.constraints = constraints
        self._rng = np.random.default_rng(seed)
        self._step_count = 0
        #: Wall time the last :meth:`step` spent in the constraint
        #: solver's ``apply_positions`` / ``apply_velocities`` calls.
        self.constraint_seconds = 0.0

    def get_state(self) -> dict:
        """JSON-serialisable internals for checkpointing.

        Captures the thermostat RNG (bit-generator state) and the step
        counter (COM-removal scheduling) — everything needed to resume
        the stochastic trajectory bit-identically.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "step_count": self._step_count,
        }

    def set_state(self, state: dict) -> None:
        """Restore internals captured by :meth:`get_state`."""
        self._rng.bit_generator.state = state["rng"]
        self._step_count = int(state["step_count"])

    def step(self, system: ParticleSystem, forces: np.ndarray) -> None:
        """Advance positions/velocities one dt using ``forces``."""
        cfg = self.config
        dt = cfg.dt
        inv_m = 1.0 / system.masses[:, None]

        if cfg.thermostat != "none":
            self._apply_thermostat(system)

        # v(t + dt/2) = v(t - dt/2) + F(t)/m * dt
        system.velocities += forces * inv_m * dt
        old_positions = system.positions.copy()
        system.positions = system.positions + system.velocities * dt

        self.constraint_seconds = 0.0
        if self.constraints is not None and self.constraints.n_constraints:
            t0 = time.perf_counter()
            self.constraints.apply_positions(
                system.positions, old_positions, system.box
            )
            self.constraint_seconds += time.perf_counter() - t0
            # Constrained velocities: (x_new - x_old)/dt under minimum
            # image — solvers may return coordinates shifted by a box
            # vector (SETTLE reconstructs molecules near the reference).
            system.velocities = (
                system.box.minimum_image(system.positions - old_positions) / dt
            )
            t0 = time.perf_counter()
            self.constraints.apply_velocities(
                system.velocities, system.positions, system.box
            )
            self.constraint_seconds += time.perf_counter() - t0

        system.positions = system.box.wrap(system.positions)
        self._step_count += 1
        if (
            cfg.remove_com_interval > 0
            and self._step_count % cfg.remove_com_interval == 0
        ):
            system.remove_com_motion()

    def _apply_thermostat(self, system: ParticleSystem) -> None:
        cfg = self.config
        t_now = system.temperature()
        if t_now <= 0:
            return
        if cfg.thermostat == "berendsen":
            lam2 = 1.0 + cfg.dt / cfg.tau_t * (cfg.target_temperature / t_now - 1.0)
            system.velocities *= np.sqrt(max(lam2, 0.0))
        elif cfg.thermostat == "vrescale":
            # Bussi et al. 2007 stochastic velocity rescaling.
            ndof = system.n_dof()
            ekin = system.kinetic_energy()
            ekin_target = 0.5 * ndof * KB_KJ_PER_MOL_K * cfg.target_temperature
            c = np.exp(-cfg.dt / cfg.tau_t)
            r1 = self._rng.normal()
            sum_r2 = self._rng.chisquare(ndof - 1)
            ekin_new = (
                ekin * c
                + ekin_target / ndof * (1.0 - c) * (r1**2 + sum_r2)
                + 2.0 * r1 * np.sqrt(ekin * ekin_target / ndof * c * (1.0 - c))
            )
            system.velocities *= np.sqrt(max(ekin_new, 1e-12) / ekin)
