"""Reference short-range force engine over the cluster pair list.

This is the float64 ground truth every strategy kernel is validated
against.  It expands cluster pairs into 4x4 particle-interaction tiles,
applies the validity mask (padding, self pairs, intra-molecular
exclusions, half-list deduplication), evaluates
`repro.md.nonbonded.pair_force_energy`, and scatter-adds forces back to
the original particle order — all in chunked numpy, no per-pair Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.nonbonded import NonbondedParams, pair_force_energy
from repro.md.pairlist import CLUSTER_SIZE, ClusterPairList
from repro.md.system import ParticleSystem
from repro.util.scatter import scatter_add_rows


@dataclass
class ShortRangeResult:
    """Forces (original particle order) and summed potential energy."""

    forces: np.ndarray
    energy: float
    n_pairs_in_cutoff: int
    #: Scalar virial W = sum_pairs F_ij . r_ij (pressure: P = (2 Ekin + W)
    #: / (3 V)).  Counted once per unordered pair.
    virial: float = 0.0


def tile_indices(
    pair_ci: np.ndarray, pair_cj: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Particle slot indices for the 4x4 tiles of each cluster pair.

    Returns ``(slot_i, slot_j)`` with shape (M, 4, 4): entry [m, a, b] is
    the interaction of the a-th particle of cluster ci[m] with the b-th of
    cluster cj[m].
    """
    lane = np.arange(CLUSTER_SIZE)
    slot_i = (
        pair_ci.astype(np.int64)[:, None, None] * CLUSTER_SIZE
        + lane[None, :, None]
    )
    slot_j = (
        pair_cj.astype(np.int64)[:, None, None] * CLUSTER_SIZE
        + lane[None, None, :]
    )
    slot_i = np.broadcast_to(slot_i, (len(pair_ci), CLUSTER_SIZE, CLUSTER_SIZE))
    slot_j = np.broadcast_to(slot_j, (len(pair_cj), CLUSTER_SIZE, CLUSTER_SIZE))
    return slot_i, slot_j


def tile_validity(
    plist: ClusterPairList,
    pair_ci: np.ndarray,
    pair_cj: np.ndarray,
    slot_i: np.ndarray,
    slot_j: np.ndarray,
    mol_sorted: np.ndarray,
) -> np.ndarray:
    """Boolean mask of interactions to evaluate within each 4x4 tile.

    Excludes padding slots, intra-molecular pairs (GROMACS exclusions),
    and — on diagonal tiles of a half list — the lower triangle plus the
    self interaction so each particle pair is counted exactly once.
    """
    real = plist.real
    valid = real[slot_i] & real[slot_j]
    valid &= mol_sorted[slot_i] != mol_sorted[slot_j]
    diag = pair_ci == pair_cj
    if plist.half:
        valid[diag] &= slot_i[diag] < slot_j[diag]
    else:
        valid[diag] &= slot_i[diag] != slot_j[diag]
    return valid


def compute_short_range(
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type = np.float64,
    chunk_pairs: int = 65536,
) -> ShortRangeResult:
    """Evaluate LJ + short-range Coulomb over the pair list.

    ``dtype`` selects the arithmetic precision: float64 is the reference,
    float32 models the paper's mixed-precision production path.

    Energy and virial add, chunk by chunk, the float64 sum of the
    chunk's in-cutoff lanes (``pair_force_energy``'s own cutoff mask) in
    lane order; a lane outside the cutoff never enters a sum, so the
    fast path (`repro.core.vectorized`), which evaluates only those
    lanes, reduces over the same elements in the same tree.
    """
    box = plist.box
    pos = plist.current_positions(system).astype(dtype)
    q = plist.gather(system.charges).astype(dtype)
    types = plist.gather(system.topology.type_ids, fill=0).astype(np.int64)
    mol = plist.gather(system.topology.mol_ids, fill=-1).astype(np.int64)
    # Padding slots get mol -1; make each unique so the exclusion test
    # (equal mol id) never accidentally masks real pairs, while padding is
    # already excluded via `real`.
    c6_tab = system.topology.c6_table.astype(dtype)
    c12_tab = system.topology.c12_table.astype(dtype)
    box_arr = box.array.astype(dtype)

    cut2 = np.dtype(dtype).type(params.r_cut) ** 2
    f_sorted = np.zeros((plist.n_slots, 3), dtype=np.float64)
    energy = 0.0
    virial = 0.0
    n_in_cutoff = 0
    m_total = plist.n_cluster_pairs
    for lo in range(0, m_total, chunk_pairs):
        hi = min(m_total, lo + chunk_pairs)
        ci = plist.pair_ci[lo:hi]
        cj = plist.pair_cj[lo:hi]
        slot_i, slot_j = tile_indices(ci, cj)
        valid = tile_validity(plist, ci, cj, slot_i, slot_j, mol)

        dr = pos[slot_i] - pos[slot_j]
        dr -= box_arr * np.round(dr / box_arr)
        r2 = np.sum(dr * dr, axis=-1)

        qq = q[slot_i] * q[slot_j]
        ti, tj = types[slot_i], types[slot_j]
        c6 = c6_tab[ti, tj]
        c12 = c12_tab[ti, tj]

        f_scalar, e = pair_force_energy(r2, qq, c6, c12, params, mask=valid)
        n_in_cutoff += int(np.count_nonzero(f_scalar != 0))
        inside = valid & (r2 < cut2) & (r2 > 0)
        energy += float(e[inside].sum(dtype=np.float64))
        # W = sum F . dr = sum f_scalar * r^2 (F is along +dr for i).
        virial += float((f_scalar[inside].astype(np.float64) * r2[inside]).sum())
        fvec = (f_scalar[..., None] * dr).astype(np.float64)

        flat_i = slot_i.ravel()
        flat_j = slot_j.ravel()
        flat_f = fvec.reshape(-1, 3)
        scatter_add_rows(f_sorted, flat_i, flat_f)
        if plist.half:
            scatter_add_rows(f_sorted, flat_j, -flat_f)

    forces = np.zeros((system.n_particles, 3), dtype=np.float64)
    plist.scatter_add(forces, f_sorted)
    if not plist.half:
        # A full list visits each unordered pair twice (and computes both
        # sides); each visit deposits only the i-side force, so energy and
        # virial are double counted and must be halved — the RCA trade-off.
        energy *= 0.5
        virial *= 0.5
    return ShortRangeResult(
        forces=forces,
        energy=energy,
        n_pairs_in_cutoff=n_in_cutoff,
        virial=virial,
    )


def brute_force_short_range(
    system: ParticleSystem, params: NonbondedParams
) -> ShortRangeResult:
    """O(N^2) evaluation without any pair list — the oracle of oracles."""
    pos = system.box.wrap(system.positions)
    n = len(pos)
    topo = system.topology
    forces = np.zeros((n, 3))
    energy = 0.0
    virial = 0.0
    n_in = 0
    chunk = max(1, int(2e6) // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        dr = pos[lo:hi, None, :] - pos[None, :, :]
        dr -= system.box.array * np.round(dr / system.box.array)
        r2 = np.sum(dr * dr, axis=-1)
        idx_i = np.arange(lo, hi)[:, None]
        idx_j = np.arange(n)[None, :]
        valid = (idx_i != idx_j) & (topo.mol_ids[idx_i] != topo.mol_ids[idx_j])
        qq = system.charges[idx_i] * system.charges[idx_j]
        c6, c12 = topo.lj_params_for(
            np.broadcast_to(topo.type_ids[idx_i], r2.shape),
            np.broadcast_to(topo.type_ids[idx_j], r2.shape),
        )
        f_scalar, e = pair_force_energy(r2, qq, c6, c12, params, mask=valid)
        # Every pair appears twice in the full N^2 sweep.
        energy += 0.5 * float(e.sum())
        virial += 0.5 * float((f_scalar * r2).sum())
        n_in += int(np.count_nonzero(f_scalar != 0)) // 2
        forces[lo:hi] += (f_scalar[..., None] * dr).sum(axis=1)
    return ShortRangeResult(
        forces=forces, energy=energy, n_pairs_in_cutoff=n_in, virial=virial
    )
