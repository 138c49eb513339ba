"""Verlet-buffer estimation (GROMACS' ``verlet-buffer-tolerance``).

The pair-list buffer ``rlist - rcut`` trades neighbour-search frequency
against list size: it must cover the largest likely pair displacement
accumulated over ``nstlist`` steps.  GROMACS sizes it from kinetic
theory; we use the same idea:

    sigma_1d = sqrt(kB T / m) * nstlist * dt      (per particle, per axis)
    buffer   = z * sqrt(2) * sigma_1d             (relative pair motion)

with ``z`` a coverage factor (z = 6 keeps even the worst-case pair of a
few-thousand-particle system inside the buffer per rebuild — drift below
GROMACS' default 0.005 kJ/mol/ps tolerance for water).

`check_buffer_sufficient` is the empirical counterpart: it measures
actual displacements since a list was built and tells whether an
interacting pair could have been missed.  It drives the minimiser's
rebuilds (`repro.md.minimize`: a list serves trials until the check
fails) and the property tests.
"""

from __future__ import annotations

import numpy as np

from repro.md.system import ParticleSystem
from repro.util.units import KB_KJ_PER_MOL_K


def estimate_buffer(
    system: ParticleSystem,
    temperature: float,
    dt: float,
    nstlist: int,
    coverage_z: float = 6.0,
) -> float:
    """Kinetic-theory pair-list buffer (nm) for the given run settings."""
    if temperature < 0 or dt <= 0 or nstlist < 1:
        raise ValueError(
            f"bad inputs: T={temperature}, dt={dt}, nstlist={nstlist}"
        )
    if coverage_z <= 0:
        raise ValueError(f"coverage_z must be positive: {coverage_z}")
    # The lightest mobile particle dominates the displacement tail.  For
    # constrained molecules the relevant mass is closer to the molecular
    # mass, but using the atomic minimum is conservative (larger buffer).
    m_min = float(system.masses.min())
    sigma_1d = np.sqrt(KB_KJ_PER_MOL_K * temperature / m_min) * nstlist * dt
    return float(coverage_z * np.sqrt(2.0) * sigma_1d)


def recommend_rlist(
    system: ParticleSystem,
    r_cut: float,
    temperature: float,
    dt: float,
    nstlist: int,
    coverage_z: float = 6.0,
) -> float:
    """rcut + estimated buffer, clamped to the minimum-image bound."""
    buffer = estimate_buffer(system, temperature, dt, nstlist, coverage_z)
    r_list = r_cut + buffer
    max_r = system.box.min_edge / 2.0 * (1.0 - 1e-9)
    if r_list > max_r:
        raise ValueError(
            f"recommended rlist {r_list:.3f} nm exceeds the minimum-image "
            f"bound {max_r:.3f} nm; reduce nstlist or the cutoff"
        )
    return r_list


def max_pair_displacement(
    before: np.ndarray, after: np.ndarray, box
) -> float:
    """Largest relative displacement any *pair* can have accumulated:
    twice the largest single-particle move (worst case, opposite
    directions)."""
    moves = np.linalg.norm(box.minimum_image(after - before), axis=1)
    return float(2.0 * moves.max()) if len(moves) else 0.0


def check_buffer_sufficient(
    before: np.ndarray,
    after: np.ndarray,
    box,
    r_cut: float,
    r_list: float,
) -> bool:
    """True when no pair outside ``r_list`` at build time can have come
    within ``r_cut`` by the time of ``after`` (sufficient condition)."""
    return max_pair_displacement(before, after, box) <= (r_list - r_cut)
