"""Steepest-descent energy minimisation (GROMACS' ``steep``).

Freshly built lattices contain close contacts; a few dozen descent steps
relax them so the leapfrog integrator starts from a physical state — the
same preparation the paper's water benchmark inputs received.

Like an MD run, the minimiser keeps its pair list until the Verlet
buffer is spent (`repro.md.verlet_buffer.check_buffer_sufficient`;
Páll et al. 2015) and projects every trial with the constraint solver
the system's MD loop uses (SETTLE for pure water under ``auto``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.constraints import ConstraintError
from repro.md.mdloop import MdConfig, MdLoop
from repro.md.system import ParticleSystem
from repro.md.verlet_buffer import check_buffer_sufficient


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
    scheme).  Constrained systems project every trial onto the
    constraint manifold with ``config.constraint_algorithm``'s solver; a
    trial it cannot project (`ConstraintError`) is rejected.  The pair
    list is rebuilt only after a trial that may have brought a pair from
    outside ``r_list`` at the last build inside ``r_cut``, so every
    evaluation sees a fresh list's in-cutoff pairs; a rejected trial
    restores the old positions and builds nothing.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1: {n_steps}")
    loop = MdLoop(system, config)
    solver = loop.shake
    nb = config.nonbonded

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
        if solver is not None:
            try:
                solver.apply_positions(trial, system.positions, system.box)
            except ConstraintError:
                # Move too large for the projection: reject and shrink.
                step *= 0.2
                continue
        old_positions = system.positions
        system.positions = system.box.wrap(trial)
        if not check_buffer_sufficient(
            loop._pairlist_ref_positions, system.positions, system.box,
            nb.r_cut, nb.r_list,
        ):
            loop._rebuild_pairlist(loop_timing)
        new_forces, new_energy = loop.compute_forces(loop_timing)
        if new_energy < energy:
            energy, forces = new_energy, new_forces
            step *= 1.2
        else:
            # The list stays: the buffer check measures from its build.
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
