"""Smooth Particle-Mesh Ewald (PME) long-range electrostatics.

The paper's benchmark uses ``coulombtype = PME`` (Table 3); PME's
reciprocal part is the FFT-heavy kernel behind the communication costs in
its Table 1.  This is a full smooth-PME implementation after Essmann et
al. (1995):

* order-``n`` cardinal B-spline charge spreading onto a 3-D grid,
* 3-D FFT, influence-function convolution
  ``G(m) = exp(-pi^2 m^2 / beta^2) * B(m) / (2 pi V m^2)``,
* energy from the reciprocal sum, forces by analytic differentiation of
  the spline weights,
* self-energy and intra-molecular exclusion corrections so the *total*
  electrostatic energy (together with the ``ewald`` real-space mode of
  `repro.md.nonbonded`) is physical — validated against the Madelung
  constant of rock salt in the test suite.

Everything is vectorised over particles; the only Python loops run over
the three dimensions and the spline order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from repro.md.box import Box
from repro.md.system import ParticleSystem
from repro.util.units import COULOMB_CONSTANT


@dataclass(frozen=True)
class PmeParams:
    """PME configuration: spline order, grid spacing, splitting beta."""

    order: int = 4
    grid_spacing: float = 0.12  # nm, GROMACS' fourierspacing default
    beta: float = 3.12341  # must match NonbondedParams.ewald_beta

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"spline order must be >= 2: {self.order}")
        if self.grid_spacing <= 0:
            raise ValueError(f"grid spacing must be positive: {self.grid_spacing}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive: {self.beta}")

    def grid_dims(self, box: Box) -> tuple[int, int, int]:
        """Grid size per dimension: at least order, at least L / spacing."""
        return tuple(
            max(self.order, int(np.ceil(length / self.grid_spacing)))
            for length in box.lengths
        )


def bspline_m(order: int, x: np.ndarray) -> np.ndarray:
    """Cardinal B-spline ``M_order(x)`` (support ``(0, order)``)."""
    x = np.asarray(x, dtype=np.float64)
    if order == 1:
        return np.where((x >= 0) & (x < 1), 1.0, 0.0)
    prev = bspline_m(order - 1, x)
    prev_shift = bspline_m(order - 1, x - 1.0)
    return (x / (order - 1)) * prev + ((order - x) / (order - 1)) * prev_shift


def spline_weights(order: int, frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spreading weights and derivatives for fractional offsets ``frac``.

    ``frac`` is ``u - floor(u)`` in grid units, shape (N,).  Returns
    ``(w, dw)`` of shape (N, order): the weight on grid point
    ``floor(u) - order + 1 + j`` and its derivative with respect to ``u``.
    """
    frac = np.asarray(frac, dtype=np.float64)
    j = np.arange(order)[None, :]
    arg = frac[:, None] + (order - 1 - j)
    w = bspline_m(order, arg)
    # dM_n(x)/dx = M_{n-1}(x) - M_{n-1}(x - 1)
    dw = bspline_m(order - 1, arg) - bspline_m(order - 1, arg - 1.0)
    return w, dw


def euler_spline_b2(order: int, k: int) -> np.ndarray:
    """|b(m)|^2 interpolation factors for a dimension of ``k`` grid points."""
    m = np.arange(k)
    j = np.arange(order - 1)
    mn = bspline_m(order, j + 1.0)  # M_n(1), ..., M_n(n-1)
    phase = np.exp(2j * np.pi * np.outer(m, j) / k)
    denom = phase @ mn
    b2 = np.empty(k, dtype=np.float64)
    mag2 = np.abs(denom) ** 2
    with np.errstate(divide="ignore"):
        b2 = np.where(mag2 > 1e-12, 1.0 / np.maximum(mag2, 1e-300), 0.0)
    return b2


@dataclass
class PmeResult:
    """Reciprocal energy/forces plus the correction terms."""

    energy_reciprocal: float
    energy_self: float
    energy_exclusion: float
    forces: np.ndarray  # reciprocal + exclusion-correction forces

    @property
    def energy(self) -> float:
        return self.energy_reciprocal + self.energy_self + self.energy_exclusion


def _intramolecular_pairs(mol_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All intra-molecular pairs ``i < j``, grouped by molecule."""
    order = np.argsort(mol_ids, kind="stable")
    boundaries = np.nonzero(np.diff(mol_ids[order]))[0] + 1
    pi_list, pj_list = [], []
    for g in np.split(order, boundaries):
        if len(g) < 2:
            continue
        a, b = np.triu_indices(len(g), k=1)
        pi_list.append(g[a])
        pj_list.append(g[b])
    if not pi_list:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(pi_list), np.concatenate(pj_list)


class PmeSolver:
    """Reusable PME solver for a fixed box/topology.

    The influence function is built once per box, and the excluded
    (intra-molecular) pairs once per topology: they are rebuilt only
    when a call brings ``mol_ids`` that differ from the ones they came
    from, so a solver reused on another system stays correct.
    """

    def __init__(self, box: Box, params: PmeParams) -> None:
        self.box = box
        self.params = params
        self._excl_mol_ids: np.ndarray | None = None
        self._excl_pairs: tuple[np.ndarray, np.ndarray] | None = None
        self.dims = params.grid_dims(box)
        kx, ky, kz = self.dims
        # Influence function G(m) on the FFT grid (zero at m = 0).
        mx = np.fft.fftfreq(kx, d=1.0 / kx)
        my = np.fft.fftfreq(ky, d=1.0 / ky)
        mz = np.fft.fftfreq(kz, d=1.0 / kz)
        lx, ly, lz = box.lengths
        m2 = (
            (mx[:, None, None] / lx) ** 2
            + (my[None, :, None] / ly) ** 2
            + (mz[None, None, :] / lz) ** 2
        )
        b2 = (
            euler_spline_b2(params.order, kx)[:, None, None]
            * euler_spline_b2(params.order, ky)[None, :, None]
            * euler_spline_b2(params.order, kz)[None, None, :]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            g = (
                np.exp(-np.pi**2 * m2 / params.beta**2)
                / (2.0 * np.pi * box.volume * m2)
                * b2
            )
        g[0, 0, 0] = 0.0
        self._g = g

    def spread(self, positions: np.ndarray, charges: np.ndarray) -> tuple[np.ndarray, list]:
        """Spread charges onto the grid; returns (grid, spread context)."""
        pos = self.box.wrap(positions)
        order = self.params.order
        grid = np.zeros(self.dims)
        ctx = []
        idx_all = []
        w_all = []
        dw_all = []
        for dim in range(3):
            k = self.dims[dim]
            u = pos[:, dim] / self.box.lengths[dim] * k
            base = np.floor(u).astype(np.int64)
            w, dw = spline_weights(order, u - base)
            idx = (base[:, None] - order + 1 + np.arange(order)[None, :]) % k
            idx_all.append(idx)
            w_all.append(w)
            dw_all.append(dw)
        # Tensor-product deposit, vectorised over particles.
        n = len(pos)
        wx, wy, wz = w_all
        ix, iy, iz = idx_all
        weights = (
            wx[:, :, None, None] * wy[:, None, :, None] * wz[:, None, None, :]
        ) * charges[:, None, None, None]
        flat = (
            (ix[:, :, None, None] * self.dims[1] + iy[:, None, :, None])
            * self.dims[2]
            + iz[:, None, None, :]
        )
        np.add.at(grid.reshape(-1), flat.ravel(), weights.ravel())
        return grid, [idx_all, w_all, dw_all]

    def reciprocal(self, system: ParticleSystem) -> tuple[float, np.ndarray]:
        """Reciprocal-space energy and forces."""
        charges = system.charges
        grid, (idx_all, w_all, dw_all) = self.spread(system.positions, charges)
        fgrid = np.fft.fftn(grid)
        energy = float(COULOMB_CONSTANT * np.sum(self._g * np.abs(fgrid) ** 2))
        # dE/dQ_g: with E = f * sum_m G |F(Q)|^2 and numpy's normalised
        # ifftn, the derivative is N_grid * IFFT(2 G F(Q)) — the factor 2
        # comes from |F|^2 = F F*, the N_grid undoes ifftn's 1/N.
        n_grid = np.prod(self.dims)
        phi = (
            np.real(np.fft.ifftn(2.0 * self._g * fgrid))
            * n_grid
            * COULOMB_CONSTANT
        )
        ix, iy, iz = idx_all
        wx, wy, wz = w_all
        dwx, dwy, dwz = dw_all
        phi_vals = phi[
            ix[:, :, None, None], iy[:, None, :, None], iz[:, None, None, :]
        ]
        kx, ky, kz = self.dims
        lx, ly, lz = self.box.lengths
        fx = -(charges * kx / lx) * np.einsum(
            "nijk,ni,nj,nk->n", phi_vals, dwx, wy, wz
        )
        fy = -(charges * ky / ly) * np.einsum(
            "nijk,ni,nj,nk->n", phi_vals, wx, dwy, wz
        )
        fz = -(charges * kz / lz) * np.einsum(
            "nijk,ni,nj,nk->n", phi_vals, wx, wy, dwz
        )
        return energy, np.stack([fx, fy, fz], axis=1)

    def self_energy(self, charges: np.ndarray) -> float:
        """Ewald self-interaction correction."""
        return float(
            -COULOMB_CONSTANT * self.params.beta / np.sqrt(np.pi) * np.sum(charges**2)
        )

    def _excluded_pairs(
        self, mol_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._excl_pairs is None or not np.array_equal(
            mol_ids, self._excl_mol_ids
        ):
            self._excl_pairs = _intramolecular_pairs(mol_ids)
            self._excl_mol_ids = mol_ids.copy()
        return self._excl_pairs

    def exclusion_correction(
        self, system: ParticleSystem
    ) -> tuple[float, np.ndarray]:
        """Remove reciprocal-space interactions of excluded (intra-molecular)
        pairs: subtract ``f q_i q_j erf(beta r) / r`` and its force."""
        pi, pj = self._excluded_pairs(system.topology.mol_ids)
        if not len(pi):
            return 0.0, np.zeros_like(system.positions)
        dr = system.box.displacement(system.positions[pi], system.positions[pj])
        r2 = np.sum(dr * dr, axis=1)
        r = np.sqrt(r2)
        qq = system.charges[pi] * system.charges[pj]
        beta = self.params.beta
        erf_br = erf(beta * r)
        energy = float(-COULOMB_CONSTANT * np.sum(qq * erf_br / r))
        # d/dr [ -erf(beta r)/r ] gives the correction force scalar.
        gauss = np.exp(-((beta * r) ** 2))
        f_scalar = -COULOMB_CONSTANT * qq * (
            erf_br / r2 - 2.0 * beta / np.sqrt(np.pi) * gauss / r
        ) / r
        forces = np.zeros_like(system.positions)
        fvec = f_scalar[:, None] * dr
        np.add.at(forces, pi, fvec)
        np.add.at(forces, pj, -fvec)
        return energy, forces

    def compute(self, system: ParticleSystem) -> PmeResult:
        """Full long-range contribution (reciprocal + self + exclusions)."""
        e_rec, f_rec = self.reciprocal(system)
        e_self = self.self_energy(system.charges)
        e_excl, f_excl = self.exclusion_correction(system)
        return PmeResult(
            energy_reciprocal=e_rec,
            energy_self=e_self,
            energy_exclusion=e_excl,
            forces=f_rec + f_excl,
        )
