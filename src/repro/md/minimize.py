"""Steepest-descent energy minimisation (GROMACS' ``steep``).

Freshly built lattices contain close contacts; a few dozen descent steps
relax them so the leapfrog integrator starts from a physical state — the
same preparation the paper's water benchmark inputs received.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.constraints import ShakeSolver
from repro.md.mdloop import MdConfig, MdLoop
from repro.md.system import ParticleSystem


@dataclass
class MinimizeResult:
    initial_energy: float
    final_energy: float
    n_steps: int
    converged: bool
    max_force: float


def minimize(
    system: ParticleSystem,
    config: MdConfig,
    n_steps: int = 200,
    initial_step: float = 0.01,
    force_tolerance: float = 100.0,
) -> MinimizeResult:
    """Steepest descent with adaptive step size (in place).

    Each iteration displaces along the force by ``step / max|F|``; accepted
    moves grow the step 1.2x, rejected moves shrink it 0.2x (GROMACS'
    scheme).  Constrained systems re-project onto the constraint manifold
    after every accepted move.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1: {n_steps}")
    loop = MdLoop(system, config)
    shake = (
        ShakeSolver(system.topology.constraints, system.masses)
        if system.topology.constraints
        else None
    )

    loop._rebuild_pairlist(loop_timing := _fresh_timing())
    forces, energy = loop.compute_forces(loop_timing)
    initial_energy = energy
    step = initial_step
    steps_done = 0
    converged = False
    max_step = 0.05  # nm; larger moves outrun the constraint solvers
    for i in range(n_steps):
        steps_done = i + 1
        fmax = float(np.abs(forces).max())
        if fmax < force_tolerance:
            converged = True
            break
        step = min(step, max_step)
        trial = system.positions + forces * (step / fmax)
        if shake is not None:
            try:
                shake.apply_positions(trial, system.positions, system.box)
            except Exception:
                # Move too large for the projection: reject and shrink.
                step *= 0.2
                continue
        old_positions = system.positions
        system.positions = system.box.wrap(trial)
        # Displacements can exceed the pair-list buffer; rebuild each trial.
        loop._rebuild_pairlist(loop_timing)
        new_forces, new_energy = loop.compute_forces(loop_timing)
        if new_energy < energy:
            energy, forces = new_energy, new_forces
            step *= 1.2
        else:
            # The next trial builds its own list; nothing reads one here.
            system.positions = old_positions
            step *= 0.2
            if step < 1e-8:
                break
    system.velocities[:] = 0.0
    return MinimizeResult(
        initial_energy=initial_energy,
        final_energy=energy,
        n_steps=steps_done,
        converged=converged,
        max_force=float(np.abs(forces).max()),
    )


def _fresh_timing():
    from repro.hw.perf import KernelTiming

    return KernelTiming()
