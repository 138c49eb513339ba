"""Cluster pair list: coverage vs brute force, structure invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.cells import CellGrid
from repro.md.pairlist import (
    CLUSTER_SIZE,
    MASK_PAD,
    ClusterPairList,
    _candidate_pairs,
    _cluster_geometry,
    _cluster_particles,
    _exact_cluster_filter,
    brute_force_pairs,
    build_pair_list,
    pack_lanes,
    pair_list_covers,
    unpack_lanes,
)
from repro.md.water import build_lj_fluid, build_lj_mixture, build_water_system
from repro.scenarios import concretize_text
from repro.scenarios.registry import build_scenario


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


def _oracle_exact_filter(sorted_pos, box, ci, cj, rlist):
    """The exact filter as the pair search once computed it: a
    ``(B, 4, 4, 3)`` displacement tensor per block, folded and summed
    over its coordinate axis."""
    members = sorted_pos.reshape(-1, CLUSTER_SIZE, 3)
    keep = np.empty(len(ci), dtype=bool)
    for lo in range(0, len(ci), 8192):
        bi, bj = ci[lo : lo + 8192], cj[lo : lo + 8192]
        dr = members[bi, :, None, :] - members[bj, None, :, :]
        dr -= box.array * np.round(dr / box.array)
        r2 = np.sum(dr * dr, axis=-1)
        keep[lo : lo + 8192] = r2.min(axis=(1, 2)) < rlist * rlist
    return keep


def _oracle_pair_list(system, rlist, half):
    """`build_pair_list` with the old filters: `Box.distance` for the
    bounding-sphere prefilter and `_oracle_exact_filter`."""
    box = system.box
    perm, real, sorted_pos, pad_source = _cluster_particles(
        box.wrap(system.positions), box
    )
    centers, radii = _cluster_geometry(sorted_pos, box)
    ci, cj = _candidate_pairs(centers, radii, box, rlist)
    keep = box.distance(centers[ci], centers[cj]) <= rlist + radii[ci] + radii[cj]
    ci, cj = ci[keep], cj[keep]
    keep = _oracle_exact_filter(sorted_pos, box, ci, cj, rlist)
    ci, cj = ci[keep], cj[keep]
    order = np.argsort(ci, kind="stable")
    ci, cj = ci[order], cj[order]
    plist = ClusterPairList(
        box=box,
        rlist=rlist,
        half=True,
        perm=perm,
        real=real,
        sorted_positions=sorted_pos,
        pad_source=pad_source,
        pair_ci=ci.astype(np.int32),
        pair_cj=cj.astype(np.int32),
        i_starts=np.searchsorted(ci, np.arange(len(centers) + 1)).astype(np.int64),
    )
    return plist if half else plist.to_full()


def _takes_all_pairs(system, rlist):
    """Whether the candidate search falls back to every cluster pair."""
    box = system.box
    _, _, sorted_pos, _ = _cluster_particles(box.wrap(system.positions), box)
    _, radii = _cluster_geometry(sorted_pos, box)
    return rlist + 2.0 * float(radii.max()) >= box.min_edge / 2.0


def _assert_same_list(system, rlist, half):
    got = build_pair_list(system, rlist, half=half)
    want = _oracle_pair_list(system, rlist, half)
    assert got.n_cluster_pairs > 0
    for name in ("pair_ci", "pair_cj", "i_starts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


_ORACLE_SYSTEMS = {
    "water": lambda: build_water_system(1200, seed=2019),
    "ionic": lambda: build_scenario(
        concretize_text("ionic@nacl n=1500 elec=pme seed=3")
    )[0],
    "ljmix": lambda: build_lj_mixture(2000, seed=5),
}


class TestPairListOracle:
    """The column-wise filters keep exactly the cluster pairs the
    ``(B, 4, 4, 3)`` filters kept, on every system family, cutoff, list
    kind and candidate branch, and across box faces."""

    @pytest.fixture(scope="class", params=sorted(_ORACLE_SYSTEMS))
    def system(self, request):
        return _ORACLE_SYSTEMS[request.param]()

    @pytest.mark.parametrize("displaced", [False, True])
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("rlist", [0.45, 0.5])
    def test_equal_to_oracle(self, system, rlist, half, displaced):
        moved = system.copy()
        if displaced:
            moved.positions += np.random.default_rng(29).normal(
                0.0, 0.05, moved.positions.shape
            )
        else:
            assert not _takes_all_pairs(moved, rlist)  # the KD-tree branch
        _assert_same_list(moved, rlist, half)

    @pytest.mark.parametrize("half", [True, False])
    def test_all_pairs_branch(self, half):
        system = build_water_system(600, seed=2019)
        assert _takes_all_pairs(system, 0.9)
        _assert_same_list(system, 0.9, half)

    @pytest.mark.parametrize("n", [600, 2000])
    def test_particles_on_both_sides_of_a_face(self, n):
        system = build_lj_mixture(n, seed=7)
        rng = np.random.default_rng(31)
        picked = rng.choice(n, n // 6, replace=False)
        axis = rng.integers(0, 3, len(picked))
        # Within 1e-3 nm of a face, on either side of it.
        system.positions[picked, axis] = rng.uniform(-1e-3, 1e-3, len(picked))
        for half in (True, False):
            _assert_same_list(system, 0.6, half)


def _oracle_lane_r2(plist, ci, cj):
    """``(m, 16)`` float64 ``r2`` of every lane of the cluster pairs
    ``(ci, cj)`` at the build positions, folded as one ``(m, 4, 4, 3)``
    tensor (lane ``4a + b`` pairs member a of ci with member b of cj)."""
    members = plist.sorted_positions.reshape(-1, CLUSTER_SIZE, 3)
    dr = members[ci, :, None, :] - members[cj, None, :, :]
    dr -= plist.box.array * np.round(dr / plist.box.array)
    return np.sum(dr * dr, axis=-1).reshape(len(ci), 16)


class TestLaneMasks:
    """Each listed cluster pair carries the lanes found within ``rlist +
    MASK_PAD`` at the build positions, without changing which pairs are
    listed; the full list mirrors them."""

    @pytest.fixture(scope="class", params=sorted(_ORACLE_SYSTEMS))
    def system(self, request):
        return _ORACLE_SYSTEMS[request.param]()

    @pytest.mark.parametrize("rlist", [0.45, 0.5])
    def test_bits_equal_float64_fold(self, system, rlist):
        plist = build_pair_list(system, rlist)
        assert plist.lane_mask.dtype == np.uint16
        assert len(plist.lane_mask) == plist.n_cluster_pairs
        r2 = _oracle_lane_r2(plist, plist.pair_ci, plist.pair_cj)
        want = r2 < (rlist + MASK_PAD) ** 2
        assert np.array_equal(unpack_lanes(plist.lane_mask), want)
        # Every listed pair has a lane within rlist, so a set bit.
        assert (r2.min(axis=1) < rlist * rlist).all()
        assert (plist.lane_mask != 0).all()

    def test_keep_unchanged(self, system):
        rlist = 0.5
        box = system.box
        _, _, sorted_pos, _ = _cluster_particles(box.wrap(system.positions), box)
        centers, radii = _cluster_geometry(sorted_pos, box)
        ci, cj = _candidate_pairs(centers, radii, box, rlist)
        keep, mask = _exact_cluster_filter(sorted_pos, box, ci, cj, rlist)
        assert np.array_equal(
            keep, _oracle_exact_filter(sorted_pos, box, ci, cj, rlist)
        )
        assert len(mask) == len(ci)

    def test_full_list_mirrors_masks(self, system):
        half = build_pair_list(system, 0.5)
        full = half.to_full()
        r2 = _oracle_lane_r2(full, full.pair_ci, full.pair_cj)
        want = r2 < (0.5 + MASK_PAD) ** 2
        assert np.array_equal(unpack_lanes(full.lane_mask), want)
        # A mirrored pair's mask is the transpose of its half-list pair's.
        n = full.n_clusters
        half_mask = dict(
            zip((half.pair_ci.astype(np.int64) * n + half.pair_cj).tolist(),
                half.lane_mask.tolist())
        )
        for ci, cj, m in zip(full.pair_ci.tolist(), full.pair_cj.tolist(),
                             full.lane_mask.tolist()):
            if ci <= cj:
                assert m == half_mask[ci * n + cj]
            else:
                bits = unpack_lanes(np.array([half_mask[cj * n + ci]]))
                t = pack_lanes(bits.reshape(1, 4, 4).transpose(0, 2, 1).reshape(1, 16))
                assert m == int(t[0])

    def test_pack_roundtrip(self):
        rng = np.random.default_rng(3)
        bits = rng.random((500, 16)) < 0.5
        mask = pack_lanes(bits)
        assert mask.dtype == np.uint16
        want = (bits * (1 << np.arange(16))).sum(axis=1)
        assert np.array_equal(mask, want)
        assert np.array_equal(unpack_lanes(mask), bits)

    def test_no_mask_without_exact_filter(self):
        system = build_water_system(600, seed=2019)
        plist = build_pair_list(system, 0.5, exact_filter=False)
        assert plist.lane_mask is None
        assert plist.to_full().lane_mask is None
