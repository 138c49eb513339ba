"""Cluster pair list: coverage vs brute force, structure invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.cells import CellGrid
from repro.md.pairlist import (
    CLUSTER_SIZE,
    brute_force_pairs,
    build_pair_list,
    pair_list_covers,
)
from repro.md.water import build_lj_fluid


class TestCellGrid:
    def test_partition_covers_all_points(self, lj_small):
        grid = CellGrid.build(lj_small.positions, lj_small.box, 0.5)
        members = np.concatenate(
            [grid.cell_members(c) for c in range(grid.n_cells)]
        )
        assert sorted(members) == list(range(lj_small.n_particles))

    def test_flatten_unflatten_roundtrip(self, lj_small):
        grid = CellGrid.build(lj_small.positions, lj_small.box, 0.5)
        ids = np.arange(grid.n_cells)
        np.testing.assert_array_equal(grid.flatten(grid.unflatten(ids)), ids)

    def test_half_offsets_cover_each_pair_once(self):
        grid = CellGrid.build(np.zeros((1, 3)), __import__("repro.md.box", fromlist=["Box"]).Box.cubic(5.0), 1.0)
        offs = grid.neighbor_offsets(half=True)
        assert len(offs) == 14
        seen = {tuple(o) for o in offs}
        for o in offs:
            if tuple(o) != (0, 0, 0):
                assert tuple(-o) not in seen

    def test_rejects_bad_edge(self, lj_small):
        with pytest.raises(ValueError):
            CellGrid.build(lj_small.positions, lj_small.box, 0.0)


class TestPairListStructure:
    def test_slots_padded_to_clusters(self, plist_water_small):
        assert plist_water_small.n_slots % CLUSTER_SIZE == 0
        assert plist_water_small.n_real == 750

    def test_perm_is_permutation(self, plist_water_small):
        p = plist_water_small
        real_perm = p.perm[p.real]
        assert sorted(real_perm) == list(range(750))
        assert np.all(p.perm[~p.real] == -1)

    def test_csr_consistent(self, plist_water_small):
        p = plist_water_small
        assert p.i_starts[0] == 0
        assert p.i_starts[-1] == p.n_cluster_pairs
        assert np.all(np.diff(p.i_starts) >= 0)
        # pair_ci matches CSR segments
        for ci in range(0, p.n_clusters, 7):
            seg = p.pair_ci[p.i_starts[ci] : p.i_starts[ci + 1]]
            assert np.all(seg == ci)

    def test_half_list_canonical(self, plist_water_small):
        assert np.all(plist_water_small.pair_ci <= plist_water_small.pair_cj)

    def test_no_duplicate_pairs(self, plist_water_small):
        p = plist_water_small
        keys = p.pair_ci.astype(np.int64) * p.n_clusters + p.pair_cj
        assert len(np.unique(keys)) == len(keys)

    def test_gather_scatter_roundtrip(self, water_small, plist_water_small):
        values = np.arange(water_small.n_particles, dtype=np.float64)
        sorted_vals = plist_water_small.gather(values)
        out = np.zeros(water_small.n_particles)
        plist_water_small.scatter_add(out, sorted_vals)
        np.testing.assert_array_equal(out, values)

    def test_current_positions_fresh(self, water_small, plist_water_small):
        sys2 = water_small.copy()
        sys2.positions[:] += 0.01
        pos = plist_water_small.current_positions(sys2)
        slot0 = np.nonzero(plist_water_small.real)[0][0]
        orig = plist_water_small.perm[slot0]
        np.testing.assert_allclose(
            pos[slot0], sys2.box.wrap(sys2.positions)[orig]
        )

    def test_to_full_doubles_offdiagonal(self, plist_water_small):
        half = plist_water_small
        full = half.to_full()
        n_diag = int(np.sum(half.pair_ci == half.pair_cj))
        assert full.n_cluster_pairs == 2 * half.n_cluster_pairs - n_diag
        assert not full.half
        assert full.to_full() is full


class TestPairListCoverage:
    def test_lj_coverage(self, lj_small, nb_lj):
        plist = build_pair_list(lj_small, nb_lj.r_list)
        oracle = brute_force_pairs(lj_small, nb_lj.r_list)
        assert pair_list_covers(plist, oracle)

    def test_water_coverage(self, water_small, nb_water_small):
        plist = build_pair_list(water_small, nb_water_small.r_list)
        oracle = brute_force_pairs(water_small, nb_water_small.r_list)
        assert pair_list_covers(plist, oracle)

    def test_full_list_coverage(self, water_small, nb_water_small):
        plist = build_pair_list(water_small, nb_water_small.r_list, half=False)
        oracle = brute_force_pairs(water_small, nb_water_small.r_list)
        assert pair_list_covers(plist, oracle)

    def test_exact_filter_prunes_but_preserves(self, water_small, nb_water_small):
        loose = build_pair_list(
            water_small, nb_water_small.r_list, exact_filter=False
        )
        tight = build_pair_list(
            water_small, nb_water_small.r_list, exact_filter=True
        )
        assert tight.n_cluster_pairs < loose.n_cluster_pairs
        oracle = brute_force_pairs(water_small, nb_water_small.r_list)
        assert pair_list_covers(tight, oracle)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.sampled_from([60, 120, 200]))
    def test_coverage_property_random_fluids(self, seed, n):
        system = build_lj_fluid(n, seed=seed, jitter=0.35)
        rlist = min(0.9, system.box.min_edge / 2 * 0.95)
        plist = build_pair_list(system, rlist)
        assert pair_list_covers(plist, brute_force_pairs(system, rlist))

    def test_after_motion_rebuild_covers(self, water_small, nb_water_small, rng):
        sys2 = water_small.copy()
        sys2.positions += rng.normal(scale=0.05, size=sys2.positions.shape)
        plist = build_pair_list(sys2, nb_water_small.r_list)
        assert pair_list_covers(
            plist, brute_force_pairs(sys2, nb_water_small.r_list)
        )

    def test_cutoff_too_large_rejected(self, lj_small):
        with pytest.raises(ValueError):
            build_pair_list(lj_small, lj_small.box.min_edge)


def _brute_force_pairs_scalar(system, r_cut):
    """Pre-vectorisation reference: per-pair python loop over the chunked
    distance matrix (the exact old `brute_force_pairs` body)."""
    pos = system.box.wrap(system.positions)
    n = len(pos)
    pairs = set()
    chunk = max(1, int(4e6) // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        d = system.box.distance(pos[lo:hi, None, :], pos[None, :, :])
        ii, jj = np.nonzero(d < r_cut)
        for i, j in zip(ii + lo, jj):
            if i < j:
                pairs.add((int(i), int(j)))
    return pairs


def _pair_list_covers_scalar(plist, pairs):
    """Pre-vectorisation reference: per-pair permutation walk."""
    listed = set(zip(plist.pair_ci.tolist(), plist.pair_cj.tolist()))
    slot_of = {}
    for slot, orig in enumerate(plist.perm):
        if orig >= 0:
            slot_of[int(orig)] = slot
    for i, j in pairs:
        ci = slot_of[i] // CLUSTER_SIZE
        cj = slot_of[j] // CLUSTER_SIZE
        if plist.half and ci > cj:
            ci, cj = cj, ci
        if (ci, cj) not in listed and (
            plist.half or (cj, ci) not in listed
        ):
            return False
    return True


class TestVectorizedOracles:
    """The numpy-vectorised test oracles must agree with their scalar
    predecessors bit-for-bit (satellite of the host-parallel PR)."""

    def test_brute_force_pairs_matches_scalar(self, lj_small, nb_lj):
        fast = brute_force_pairs(lj_small, nb_lj.r_list)
        slow = _brute_force_pairs_scalar(lj_small, nb_lj.r_list)
        assert fast == slow

    def test_brute_force_pairs_matches_scalar_water(
        self, water_small, nb_water_small
    ):
        fast = brute_force_pairs(water_small, nb_water_small.r_list)
        slow = _brute_force_pairs_scalar(water_small, nb_water_small.r_list)
        assert fast == slow

    @pytest.mark.parametrize("half", [True, False])
    def test_pair_list_covers_matches_scalar(
        self, water_small, nb_water_small, half
    ):
        plist = build_pair_list(water_small, nb_water_small.r_list, half=half)
        oracle = brute_force_pairs(water_small, nb_water_small.r_list)
        assert pair_list_covers(plist, oracle) == _pair_list_covers_scalar(
            plist, oracle
        )
        assert pair_list_covers(plist, oracle)

    def test_pair_list_covers_detects_misses(self, water_small, nb_water_small):
        plist = build_pair_list(water_small, nb_water_small.r_list)
        # A pair well beyond the cutoff cannot be covered: find one by
        # taking two real particles in distant clusters.
        real_particles = plist.perm[plist.perm >= 0]
        far = {(int(real_particles[0]), int(real_particles[-1]))}
        if not _pair_list_covers_scalar(plist, far):
            assert not pair_list_covers(plist, far)
        assert pair_list_covers(plist, set()) is True
