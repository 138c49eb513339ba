"""Bit-identity of the vectorized kernels against the scalar reference.

The vectorized module replaces iteration structure, never arithmetic:
every cell of the impl × backend × half/full × mark matrix must produce
the same forces, energy, write-cache counters, shuffle counts, and
trace events as the scalar fidelity walk — to the bit, not to a
tolerance.  The per-step pruned-lane path is pinned the same way
against `compute_short_range` across coulomb modes, dtypes, lane-block
boundaries, reference chunk sizes, prune margins, first evaluations,
deferred panel fills and drift-guard refreshes; its pair kernel sees
exactly the in-cutoff lanes, and its memory is bounded by the
reference's.
"""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.core import vectorized
from repro.core.kernels import ALL_SPECS, run_kernel, run_kernel_sequential
from repro.core.stepcache import partition_clusters
from repro.core.vectorized import (
    KERNEL_IMPLS,
    CompactPanels,
    _pair_terms_compact,
    _Scratch,
    compute_short_range_impl,
    compute_short_range_vectorized,
    listed_lanes,
    resolve_kernel_impl,
    valid_lanes,
)
from repro.md.forces import compute_short_range, tile_indices, tile_validity
from repro.md.nonbonded import NonbondedParams, pair_force_energy
from repro.md.pairlist import MASK_PAD, build_pair_list
from repro.md.water import build_lj_mixture, build_water_system
from repro.scenarios import concretize_text
from repro.scenarios.registry import build_scenario
from repro.trace.events import Tracer

COULOMB_MODES = ("rf", "cut", "none", "ewald")


@pytest.fixture(scope="module")
def water():
    return build_water_system(600, seed=2019)


@pytest.fixture(scope="module")
def nb():
    return NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")


def _same_result(a, b):
    assert np.array_equal(a.forces, b.forces)
    assert a.energy == b.energy


def _bit_equal(ref, res):
    """Forces compared bit for bit (signed zeros included), plus energy,
    virial and the in-cutoff count."""
    assert np.array_equal(ref.forces.view(np.int64), res.forces.view(np.int64))
    assert ref.energy == res.energy
    assert ref.virial == res.virial
    assert ref.n_pairs_in_cutoff == res.n_pairs_in_cutoff


def _panels_of(panels):
    (cp,) = [v for v in panels.values() if isinstance(v, CompactPanels)]
    return cp


def _same_counters(a, b):
    for key in (
        "write_misses",
        "write_puts",
        "write_gets",
        "write_first_touches",
        "simd_shuffles",
    ):
        assert a.stats[key] == b.stats[key], key


class TestResolveImpl:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel_impl() == "vectorized"

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        assert resolve_kernel_impl() == "vectorized"
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert resolve_kernel_impl() == "scalar"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        assert resolve_kernel_impl("scalar") == "scalar"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel impl"):
            resolve_kernel_impl("simd9000")

    def test_impl_names_stable(self):
        assert KERNEL_IMPLS == ("scalar", "vectorized")


class TestWalkMatrix:
    """Fidelity-walk matrix: vectorized vs scalar, every observable."""

    @pytest.fixture(scope="class")
    def scalar_ref(self, water, nb):
        refs = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_KERNEL", "scalar")
            for half in (True, False):
                plist = build_pair_list(water, nb.r_list, half=half)
                for spec_name in ("MARK", "CACHE"):  # mark on / mark off
                    tracer = Tracer()
                    res = run_kernel_sequential(
                        water, plist, nb, ALL_SPECS[spec_name],
                        n_cpes=8, tracer=tracer,
                    )
                    refs[half, spec_name] = (res, tracer.events, plist)
        return refs

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    @pytest.mark.parametrize("spec_name", ["MARK", "CACHE"])
    @pytest.mark.parametrize("half", [True, False])
    def test_bit_identity(
        self, scalar_ref, water, nb, half, spec_name, backend, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        ref, ref_events, plist = scalar_ref[half, spec_name]
        tracer = Tracer()
        res = run_kernel_sequential(
            water, plist, nb, ALL_SPECS[spec_name],
            n_cpes=8, backend=backend, tracer=tracer,
        )
        _same_result(ref, res)
        _same_counters(ref, res)
        assert tracer.events == ref_events

    def test_simd_shuffles_replayed(self, scalar_ref):
        res, _, _ = scalar_ref[True, "MARK"]
        assert res.stats["simd_shuffles"] > 0


class TestTraceNoDuplicates:
    """Regression: `run_kernel_sequential` borrows the fast path's
    timing without re-emitting its kernel spans into the live tracer, so
    a Chrome trace shows each kernel once (ISSUE 8)."""

    def test_fast_path_spans_not_reemitted(self, water, nb):
        plist = build_pair_list(water, nb.r_list)
        fast_tracer = Tracer()
        run_kernel(
            water, plist, nb, ALL_SPECS["MARK"], tracer=fast_tracer
        )
        fast_names = {e.name for e in fast_tracer.events}
        assert fast_names  # the fast path does instrument its own runs

        seq_tracer = Tracer()
        run_kernel_sequential(
            water, plist, nb, ALL_SPECS["MARK"], n_cpes=8, tracer=seq_tracer
        )
        seq_names = {e.name for e in seq_tracer.events}
        assert seq_names == {"fidelity_walk"}
        assert not (fast_names & seq_names)

    def test_no_identical_event_pairs(self, water, nb):
        plist = build_pair_list(water, nb.r_list)
        tracer = Tracer()
        run_kernel_sequential(
            water, plist, nb, ALL_SPECS["MARK"], n_cpes=8, tracer=tracer
        )
        seen = set()
        for e in tracer.events:
            key = (e.name, e.category, e.cpe_id, e.start_cycle)
            assert key not in seen, f"duplicate trace event: {key}"
            seen.add(key)


class TestEmptyPartitions:
    """`n_clusters < n_cpes` leaves empty tail partitions; both walks
    must return clean zero contributions for them."""

    @pytest.fixture(scope="class")
    def tiny(self):
        system = build_water_system(150, seed=2019)
        nb = NonbondedParams(r_cut=0.45, r_list=0.55, coulomb_mode="rf")
        return system, nb, build_pair_list(system, nb.r_list)

    def test_partitions_are_actually_empty(self, tiny):
        _, _, plist = tiny
        parts = partition_clusters(plist, 64)
        assert plist.n_clusters < 64
        assert sum(1 for lo, hi in parts if lo == hi) > 0
        assert parts[-1][1] == plist.n_clusters

    @pytest.mark.parametrize("impl", KERNEL_IMPLS)
    def test_walks_match_reference(self, tiny, impl, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", impl)
        system, nb, plist = tiny
        ref = compute_short_range(system, plist, nb, dtype=np.float32)
        res = run_kernel_sequential(
            system, plist, nb, ALL_SPECS["MARK"], n_cpes=64
        )
        np.testing.assert_allclose(res.forces, ref.forces, atol=5e-4)
        assert np.isfinite(res.energy)

    def test_impls_bit_identical(self, tiny, monkeypatch):
        system, nb, plist = tiny
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        a = run_kernel_sequential(
            system, plist, nb, ALL_SPECS["MARK"], n_cpes=64
        )
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        b = run_kernel_sequential(
            system, plist, nb, ALL_SPECS["MARK"], n_cpes=64
        )
        _same_result(a, b)
        _same_counters(a, b)


class TestPerStepPath:
    """`compute_short_range_vectorized` vs the chunked reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("mode", COULOMB_MODES)
    def test_bit_identity_with_drift(self, mode, half, dtype):
        rng = np.random.default_rng(7)
        system = build_water_system(600, seed=2019)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode=mode)
        plist = build_pair_list(system, params.r_list, half=half)
        panels = {}  # the list's panel memo, kept across the steps
        for it in range(4):
            ref = compute_short_range(system, plist, params, dtype=dtype)
            res = compute_short_range_vectorized(
                system, plist, params, dtype=dtype, panels=panels
            )
            assert np.array_equal(ref.forces, res.forces), (mode, half, it)
            assert ref.energy == res.energy
            assert ref.virial == res.virial
            assert ref.n_pairs_in_cutoff == res.n_pairs_in_cutoff
            # Small drift on most iterations; a large kick on the third
            # forces the drift guard to re-anchor the compact panels.
            scale = 0.06 if it == 2 else 0.004
            system.positions += rng.normal(0, scale, system.positions.shape)

    def test_dispatcher_routes_both_impls(self, water, nb, monkeypatch):
        plist = build_pair_list(water, nb.r_list)
        routed = []
        monkeypatch.setattr(
            vectorized, "compute_short_range",
            lambda *a, **kw: routed.append("scalar")
            or compute_short_range(*a, **kw),
        )
        monkeypatch.setattr(
            vectorized, "compute_short_range_vectorized",
            lambda *a, **kw: routed.append("vectorized")
            or compute_short_range_vectorized(*a, **kw),
        )
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        a = compute_short_range_impl(water, plist, nb, dtype=np.float32)
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        b = compute_short_range_impl(water, plist, nb, dtype=np.float32)
        assert routed == ["scalar", "vectorized"]
        assert np.array_equal(a.forces, b.forces)
        assert a.energy == b.energy


class TestChunkGrouping:
    """The reference's chunk grouping is observable, and the fast path
    reproduces it at every chunk size: on its first evaluation, on the
    second one (which fills the panels at moved positions), on a
    drift-guard re-anchor (which selects and fills again) and on the
    step after it."""

    def test_reference_grouping_is_observable(self):
        system = build_water_system(600, seed=2019)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        plist = build_pair_list(system, params.r_list)
        assert plist.n_cluster_pairs > 5000
        one = compute_short_range(system, plist, params, chunk_pairs=10**6)
        chunked = compute_short_range(system, plist, params, chunk_pairs=5000)
        assert not np.array_equal(one.forces, chunked.forces)
        assert one.energy != chunked.energy

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("mode", COULOMB_MODES)
    @pytest.mark.parametrize("chunk_pairs", [257, 5000, 10**6])
    def test_bit_identity(self, chunk_pairs, mode, half, dtype):
        rng = np.random.default_rng(13)
        system = build_water_system(600, seed=2019)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode=mode)
        plist = build_pair_list(system, params.r_list, half=half)

        def step():
            ref = compute_short_range(
                system, plist, params, dtype=dtype, chunk_pairs=chunk_pairs
            )
            res = compute_short_range_vectorized(
                system, plist, params, dtype=dtype, chunk_pairs=chunk_pairs,
                panels=panels,
            )
            _bit_equal(ref, res)

        panels = {}
        step()
        cp = _panels_of(panels)
        assert not cp.bufs and cp.sel is not None
        anchor = cp.anchor_pos.copy()
        system.positions += rng.normal(0.0, 0.004, system.positions.shape)
        step()
        assert cp.bufs and cp.sel is None
        assert np.array_equal(cp.anchor_pos, anchor)
        system.positions += rng.normal(0.0, 0.06, system.positions.shape)
        step()
        assert not np.array_equal(cp.anchor_pos, anchor)
        assert cp.sel is None
        anchor = cp.anchor_pos.copy()
        system.positions += rng.normal(0.0, 0.004, system.positions.shape)
        step()
        assert np.array_equal(cp.anchor_pos, anchor)


def _in_cutoff_lanes(system, plist, params, dtype):
    """Flat tile positions (lane order) of the valid lanes with
    ``0 < r2 < r_cut**2``, and every lane's slots and ``r2``, from the
    reference's tile layout (`tile_indices`, `tile_validity`)."""
    pos = plist.current_positions(system).astype(dtype)
    ci, cj = plist.pair_ci, plist.pair_cj
    slot_i, slot_j = tile_indices(ci, cj)
    mol = plist.gather(system.topology.mol_ids, fill=-1).astype(np.int64)
    valid = tile_validity(plist, ci, cj, slot_i, slot_j, mol).ravel()
    slot_i, slot_j = slot_i.ravel(), slot_j.ravel()
    box = plist.box.array.astype(dtype)
    dr = pos[slot_i] - pos[slot_j]
    dr -= box * np.round(dr / box)
    r2 = np.sum(dr * dr, axis=-1)
    inside = valid & (r2 < dtype(params.r_cut) ** 2) & (r2 > 0)
    return np.flatnonzero(inside), slot_i, slot_j, r2


class TestInCutoffLanes:
    """The pair kernel sees exactly the in-cutoff lanes on every kind of
    evaluation, and energy and virial are the float64 sums of those
    lanes per reference chunk, whatever the prune margin."""

    @pytest.mark.parametrize("chunk_pairs", [257, 65536])
    @pytest.mark.parametrize("half", [True, False])
    def test_kernel_sees_only_in_cutoff_lanes(
        self, monkeypatch, half, chunk_pairs
    ):
        seen = []
        kernel = vectorized._pair_terms_compact

        def counting(r2, *args):
            seen.append(len(r2))
            return kernel(r2, *args)

        monkeypatch.setattr(vectorized, "_pair_terms_compact", counting)
        system = build_water_system(600, seed=2019)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        plist = build_pair_list(system, params.r_list, half=half)
        rng = np.random.default_rng(19)
        panels = {}
        # first evaluation, fill, steady, drift-guard re-anchor
        for kind, scale in (
            ("first", 0.0), ("fill", 0.002), ("steady", 0.002),
            ("re-anchor", 0.06),
        ):
            system.positions += rng.normal(0.0, scale, system.positions.shape)
            before = _panels_of(panels) if panels else None
            state = (
                None if before is None
                else (before.sel is not None, before.anchor_pos.copy())
            )
            seen.clear()
            compute_short_range_vectorized(
                system, plist, params, dtype=np.float32,
                chunk_pairs=chunk_pairs, panels=panels,
            )
            cp = _panels_of(panels)
            if kind == "fill":
                assert state[0] and cp.sel is None
            elif kind == "steady":
                assert cp.sel is None
                assert np.array_equal(cp.anchor_pos, state[1])
            elif kind == "re-anchor":
                assert cp.sel is None
                assert not np.array_equal(cp.anchor_pos, state[1])
            want, *_ = _in_cutoff_lanes(system, plist, params, np.float32)
            assert sum(seen) == len(want) > 0, kind

    @pytest.mark.parametrize("chunk_pairs", [5000, 65536])
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("mode", ["rf", "ewald"])
    def test_energy_virial_sum_in_cutoff_lanes(self, mode, half, chunk_pairs):
        dtype = np.float64
        system = build_water_system(600, seed=2019)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode=mode)
        plist = build_pair_list(system, params.r_list, half=half)
        rng = np.random.default_rng(31)
        panels = {}
        topo = system.topology
        q = plist.gather(system.charges).astype(dtype)
        types = plist.gather(topo.type_ids, fill=0).astype(np.int64)
        for _ in range(3):  # first evaluation, fill, steady
            lane, slot_i, slot_j, r2 = _in_cutoff_lanes(
                system, plist, params, dtype
            )
            si, sj, r2 = slot_i[lane], slot_j[lane], r2[lane]
            f, e = pair_force_energy(
                r2, q[si] * q[sj],
                topo.c6_table.astype(dtype)[types[si], types[sj]],
                topo.c12_table.astype(dtype)[types[si], types[sj]],
                params,
            )
            n_chunks = -(-plist.n_cluster_pairs // chunk_pairs)
            ends = np.searchsorted(
                lane // (16 * chunk_pairs), np.arange(n_chunks + 1)
            )
            energy = virial = 0.0
            for a, z in zip(ends[:-1], ends[1:]):
                energy += float(e[a:z].sum(dtype=np.float64))
                virial += float((f[a:z].astype(np.float64) * r2[a:z]).sum())
            if not half:
                energy *= 0.5
                virial *= 0.5
            for res in (
                compute_short_range(
                    system, plist, params, dtype=dtype,
                    chunk_pairs=chunk_pairs,
                ),
                compute_short_range_vectorized(
                    system, plist, params, dtype=dtype,
                    chunk_pairs=chunk_pairs, panels=panels,
                ),
            ):
                assert res.energy == energy
                assert res.virial == virial
            system.positions += rng.normal(0.0, 0.002, system.positions.shape)

    @pytest.mark.parametrize("half", [True, False])
    def test_prune_margin_changes_no_bit(self, monkeypatch, half):
        runs = []
        for margin in (0.05, 0.4):
            monkeypatch.setattr(vectorized, "PRUNE_MARGIN", margin)
            system = build_water_system(600, seed=2019)
            params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
            plist = build_pair_list(system, params.r_list, half=half)
            rng = np.random.default_rng(37)
            panels, results, anchors = {}, [], []
            # first evaluation, fill, steady, drift-guard re-anchor
            for scale in (0.0, 0.002, 0.002, 0.12):
                system.positions += rng.normal(
                    0.0, scale, system.positions.shape
                )
                res = compute_short_range_vectorized(
                    system, plist, params, dtype=np.float32, panels=panels
                )
                _bit_equal(
                    compute_short_range(
                        system, plist, params, dtype=np.float32
                    ),
                    res,
                )
                results.append(res)
                anchors.append(_panels_of(panels).anchor_pos.copy())
            assert _panels_of(panels).r_keep == params.r_cut + margin
            assert np.array_equal(anchors[0], anchors[2])
            assert not np.array_equal(anchors[2], anchors[3])
            runs.append(results)
        for a, b in zip(*runs):
            _bit_equal(a, b)


def _oracle_listed(system, plist):
    """The valid lanes (`tile_validity`) that a float64 ``(n, 3)`` fold
    of the build positions puts within ``rlist + MASK_PAD``."""
    ci, cj = plist.pair_ci, plist.pair_cj
    slot_i, slot_j = tile_indices(ci, cj)
    mol = plist.gather(system.topology.mol_ids, fill=-1).astype(np.int64)
    valid = tile_validity(plist, ci, cj, slot_i, slot_j, mol).ravel()
    pos = plist.sorted_positions
    dr = pos[slot_i.ravel()] - pos[slot_j.ravel()]
    dr -= plist.box.array * np.round(dr / plist.box.array)
    r2 = np.sum(dr * dr, axis=-1)
    return np.flatnonzero(valid & (r2 < (plist.rlist + MASK_PAD) ** 2))


class TestListedLanes:
    """A first evaluation at a list's build positions folds only the
    listed lanes (valid lanes inside the lane mask) when ``r_keep`` lies
    within the list radius, and every valid lane otherwise; either way
    it selects the lanes the all-valid-lane scan selects and matches the
    scalar reference, then and after its fill."""

    @pytest.mark.parametrize("margin", [0.05, 0.4])
    @pytest.mark.parametrize("chunk_pairs", [257, 65536])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("half", [True, False])
    def test_first_evaluation_streams_listed_lanes(
        self, monkeypatch, half, dtype, chunk_pairs, margin
    ):
        monkeypatch.setattr(vectorized, "PRUNE_MARGIN", margin)
        folded = []
        fold = vectorized.minimum_image_fold

        def counting(cols, box_arr, ii, *rest):
            folded.append(len(ii))
            return fold(cols, box_arr, ii, *rest)

        monkeypatch.setattr(vectorized, "minimum_image_fold", counting)
        system = build_water_system(600, seed=2019)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        reference = system.copy()
        system.positions += np.random.default_rng(41).normal(
            0.0, 0.003, system.positions.shape
        )
        rng = np.random.default_rng(43)
        # At its build positions, and a list rebuilt from a checkpoint's
        # reference positions, first evaluated at the current ones.
        for plist, at_build in (
            (build_pair_list(system, params.r_list, half=half), True),
            (build_pair_list(reference, params.r_list, half=half), False),
        ):
            valid = valid_lanes(system, plist)
            listed = listed_lanes(system, plist)
            assert np.array_equal(listed, _oracle_listed(system, plist))
            assert 0 < len(listed) < len(valid)
            fits = params.r_cut + margin < params.r_list
            want = listed if at_build and fits else valid
            panels = {}
            start = system.positions.copy()
            for step in range(3):  # first evaluation, fill, steady
                folded.clear()
                res = compute_short_range_vectorized(
                    system, plist, params, dtype=dtype,
                    chunk_pairs=chunk_pairs, panels=panels,
                )
                _bit_equal(
                    compute_short_range(
                        system, plist, params, dtype=dtype,
                        chunk_pairs=chunk_pairs,
                    ),
                    res,
                )
                if step == 0:
                    assert sum(folded) == len(want)
                    cp = _panels_of(panels)
                    scan = vectorized._new_panels(
                        plist, params, cp.anchor_pos, chunk_pairs
                    )
                    vectorized._select(scan, plist, cp.anchor_pos, valid)
                    assert cp.sel.dtype == np.int32
                    assert np.array_equal(cp.sel, scan.sel)
                system.positions += rng.normal(0.0, 0.002, start.shape)
            assert _panels_of(panels).sel is None
            system.positions = start


class TestBoundaryCrossing:
    """A particle that crosses the periodic boundary between two
    evaluations jumps a box edge in the wrapped slot positions, which
    the drift guard (minimum-imaged) does not see.  The fold must still
    round every lane's image as the reference does — stored per-lane
    shifts from the anchor went stale here."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_wrap_between_evaluations(self, dtype):
        # r_cut 0.45 in the 1.82 nm box: 2*r_keep - r_cut is under half
        # an edge, where anchor shifts were once stored.
        params = NonbondedParams(r_cut=0.45, r_list=0.55, coulomb_mode="rf")
        system = build_water_system(600, seed=2019)
        plist = build_pair_list(system, params.r_list)
        rng = np.random.default_rng(17)
        panels = {}

        def step():
            _bit_equal(
                compute_short_range(system, plist, params, dtype=dtype),
                compute_short_range_vectorized(
                    system, plist, params, dtype=dtype, panels=panels
                ),
            )

        step()
        anchor = _panels_of(panels).anchor_pos.copy()
        wrapped = system.box.wrap(system.positions)
        i = int(np.argmin(wrapped[:, 0]))
        system.positions[i, 0] -= wrapped[i, 0] + 0.002  # crosses x = 0
        for _ in range(2):  # the fill, then a steady step
            step()
            system.positions += rng.normal(0.0, 0.001, system.positions.shape)
        # Served from the first anchor: no drift-guard re-anchor hid it.
        assert np.array_equal(_panels_of(panels).anchor_pos, anchor)


class TestDeferredFill:
    """The second evaluation fills the panels a first evaluation left
    pending, anchored where that first evaluation ran."""

    @pytest.mark.parametrize("chunk_pairs", [257, 65536])
    @pytest.mark.parametrize("half", [True, False])
    def test_panels_match_anchor_at_first_positions(self, half, chunk_pairs):
        params = NonbondedParams(r_cut=0.45, r_list=0.55, coulomb_mode="rf")
        system = build_water_system(600, seed=2019)
        plist = build_pair_list(system, params.r_list, half=half)
        p1 = system.positions.copy()

        def filled(noise_seed):
            # Two memos whose second evaluations move by different noise.
            panels = {}
            for noise in (0.0, 0.004):
                system.positions = p1 + np.random.default_rng(
                    noise_seed
                ).normal(0.0, noise, p1.shape)
                compute_short_range_vectorized(
                    system, plist, params, dtype=np.float32,
                    chunk_pairs=chunk_pairs, panels=panels,
                )
            return _panels_of(panels)

        want, got = filled(3), filled(4)
        assert want.sel is None and got.sel is None
        assert got.n_kept == want.n_kept
        assert np.array_equal(got.anchor_pos, want.anchor_pos)
        assert got.segs == want.segs
        assert len(got.segs) == -(-plist.n_cluster_pairs // chunk_pairs)
        assert np.array_equal(got.idx_i, want.idx_i)
        assert np.array_equal(got.idx_j, want.idx_j)
        assert np.array_equal(got.c6, want.c6)

    def test_same_positions_fill_nothing(self):
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        system = build_water_system(600, seed=2019)
        plist = build_pair_list(system, params.r_list)
        panels = {}
        first = compute_short_range_vectorized(system, plist, params, panels=panels)
        again = compute_short_range_vectorized(system, plist, params, panels=panels)
        _bit_equal(first, again)
        assert not _panels_of(panels).bufs


class TestOneShotLists:
    """A minimiser list fills its kept-lane buffers at most once, on its
    second evaluation: the first leaves a pending selection, and the
    list is rebuilt once ``2*max_move`` passes ``r_list - r_cut``, the
    displacement at which the drift guard (``2*max_move >
    PRUNE_MARGIN``, both 0.1 nm here) would re-anchor, up to rounding.
    (Serve's one-shot lists never fill them:
    `tests/serve/test_jobs.py`.)"""

    def test_minimiser_lists_fill_once_on_second_evaluation(
        self, monkeypatch
    ):
        from repro.md.mdloop import MdConfig
        from repro.md.minimize import minimize

        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        lists = {}  # id -> [list (pinned, so ids stay unique), evaluations]
        fills = []  # (list id, evaluations of that list so far)
        evaluate, fill = vectorized.compute_short_range_vectorized, vectorized._fill

        def counting_evaluate(system, plist, *args, **kwargs):
            lists.setdefault(id(plist), [plist, 0])[1] += 1
            return evaluate(system, plist, *args, **kwargs)

        def counting_fill(cp, system, plist, *args, **kwargs):
            fills.append((id(plist), lists[id(plist)][1]))
            return fill(cp, system, plist, *args, **kwargs)

        monkeypatch.setattr(
            vectorized, "compute_short_range_vectorized", counting_evaluate
        )
        monkeypatch.setattr(vectorized, "_fill", counting_fill)
        system = build_water_system(600, seed=2019)
        nb = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        minimize(system, MdConfig(nonbonded=nb), n_steps=8)
        reused = {key for key, (_, n) in lists.items() if n >= 2}
        assert reused
        assert [n for _, n in fills] == [2] * len(fills)
        assert sorted(key for key, _ in fills) == sorted(reused)


def _filled_panels(system, plist, params, dtype, panels=None):
    """Panels filled through the memo: a first evaluation, then one at
    moved positions (the positions are restored after)."""
    panels = {} if panels is None else panels
    start = system.positions.copy()
    compute_short_range_vectorized(
        system, plist, params, dtype=dtype, panels=panels
    )
    system.positions = start + np.random.default_rng(23).normal(
        0.0, 0.002, start.shape
    )
    compute_short_range_vectorized(
        system, plist, params, dtype=dtype, panels=panels
    )
    system.positions = start
    cp = _panels_of(panels)
    assert cp.bufs and cp.sel is None
    return cp


class TestPairTermsCompact:
    """The fused in-place pair kernel vs `pair_force_energy`, lane for
    lane on the real compact panels plus randomised in-cutoff r2."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", COULOMB_MODES)
    def test_bitwise_equal(self, mode, dtype):
        water = build_water_system(600, seed=2019)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode=mode)
        plist = build_pair_list(water, params.r_list)
        cp = _filled_panels(water, plist, params, dtype)
        k = cp.n_kept
        rng = np.random.default_rng(11)
        # The kernel only sees lanes with 0 < r2 < r_cut**2.
        cut2 = dtype(params.r_cut) ** 2
        r2 = rng.uniform(0.0, params.r_cut**2, k).astype(dtype)
        r2 = np.where((r2 > 0) & (r2 < cut2), r2, dtype(0.5) * cut2)
        # The panels keep felec*qq only; the reference takes the raw
        # charge products the tiles form.
        q = plist.gather(water.charges).astype(dtype)
        qq = q[cp.idx_i] * q[cp.idx_j]
        ref_f, ref_e = pair_force_energy(
            r2, qq, cp.c6.copy(), cp.c12.copy(), params
        )
        f, e = _pair_terms_compact(r2, cp.bufs, _Scratch(k, dtype), params)
        assert np.array_equal(f, ref_f)
        assert np.array_equal(e, ref_e)

    def test_masked_lanes_warning_free(self):
        """Padding slots and two atoms of different molecules at one
        point (``r2 == 0`` on a valid lane) never reach the kernel's
        division: a first evaluation emits no RuntimeWarning."""
        system = build_water_system(600, seed=2019)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        mol = system.topology.mol_ids
        other = int(np.flatnonzero(mol != mol[0])[0])
        system.positions[other] = system.positions[0]
        plist = build_pair_list(system, params.r_list)
        assert not plist.real.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = compute_short_range_vectorized(
                system, plist, params, dtype=np.float32, panels={}
            )
            ref = compute_short_range(system, plist, params, dtype=np.float32)
        _bit_equal(ref, res)


def _assert_same_step(system, plist, params, dtype, panels):
    ref = compute_short_range(system, plist, params, dtype=dtype)
    res = compute_short_range_vectorized(
        system, plist, params, dtype=dtype, panels=panels
    )
    assert np.array_equal(ref.forces, res.forces)
    assert ref.energy == res.energy
    assert ref.virial == res.virial
    assert ref.n_pairs_in_cutoff == res.n_pairs_in_cutoff


class TestLaneBlocks:
    """Block boundaries never change a result: with `LANE_BLOCK` patched
    small, the per-step path stays bit-identical to the reference, and a
    drift-guard re-anchor that grows the kept set past its capacity
    reallocates in place."""

    @pytest.mark.parametrize("short_cut", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("mode", COULOMB_MODES)
    def test_bit_identity(self, monkeypatch, mode, half, dtype, short_cut):
        monkeypatch.setattr(vectorized, "LANE_BLOCK", 257)
        # In the 600-particle water box (1.82 nm), r_keep at r_cut 0.45
        # stays under half an edge and at r_cut 0.8 it does not.
        r_cut = 0.45 if short_cut else 0.8
        params = NonbondedParams(
            r_cut=r_cut, r_list=r_cut + 0.1, coulomb_mode=mode
        )
        system = build_water_system(600, seed=2019)
        lattice = system.positions.copy()
        plist = build_pair_list(system, params.r_list, half=half)
        rng = np.random.default_rng(5)
        # Anchor at a uniform random placement, where few listed lanes
        # lie within r_keep; moving back to the lattice then re-anchors
        # onto a much larger kept set.
        system.positions = rng.uniform(0.0, 1.0, lattice.shape) * (
            system.box.array
        )
        panels = {}
        _assert_same_step(system, plist, params, dtype, panels)
        cp = _filled_panels(system, plist, params, dtype, panels)
        cap = cp.cap
        # Back to the lattice: the drift guard re-anchors and fills past
        # the capacity; then small drift is served from those panels.
        for noise in (0.0, 0.004):
            system.positions = lattice + rng.normal(0.0, noise, lattice.shape)
            _assert_same_step(system, plist, params, dtype, panels)
        assert _panels_of(panels) is cp
        assert cp.n_kept > cap


class TestValidLanes:
    """`valid_lanes`, built block by block from per-cluster rows, keeps
    exactly the lanes of the reference mask (`tile_validity`): padding
    slots, intra-molecular pairs and the diagonal tiles' triangle,
    across block boundaries (`LANE_BLOCK` patched small)."""

    @pytest.mark.parametrize("lane_block", [257, vectorized.LANE_BLOCK])
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("case", ["water", "ljmix", "ionic"])
    def test_equal_to_tile_validity(self, monkeypatch, case, half, lane_block):
        monkeypatch.setattr(vectorized, "LANE_BLOCK", lane_block)
        if case == "water":
            system = build_water_system(600, seed=2019)
        elif case == "ljmix":
            system = build_lj_mixture(900, seed=5)  # one atom per molecule
        else:
            system, _ = build_scenario(
                concretize_text("ionic@nacl n=900 elec=pme seed=3")
            )
        plist = build_pair_list(system, 0.9, half=half)
        ci, cj = plist.pair_ci, plist.pair_cj
        assert not plist.real.all()  # padding slots
        assert np.any(ci == cj)  # diagonal tiles
        slot_i, slot_j = tile_indices(ci, cj)
        mol = plist.gather(system.topology.mol_ids, fill=-1).astype(np.int64)
        want = np.flatnonzero(tile_validity(plist, ci, cj, slot_i, slot_j, mol))
        got = valid_lanes(system, plist)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


def _traced(fn):
    """``(peak, retained)`` bytes of ``fn()`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, current - base


class TestPanelMemory:
    """The fast path's first evaluation, and the second one that fills
    the kept-lane buffers, each peak no higher than 1.25x the scalar
    reference on the same list, and the panels kept after either are
    no larger than the reference's peak.  The n=3000 list is above one
    reference chunk, so the reference runs two."""

    @pytest.mark.parametrize(
        "case", ["water-float32", "ionic-pme-float64", "water-n3000-float32"]
    )
    def test_first_call_bounded_by_reference(self, case, monkeypatch):
        # tracemalloc sees numpy's allocations, not anonymous mappings:
        # count the first evaluation's mapped outputs as allocated.
        monkeypatch.setattr(vectorized, "_mapped", np.empty)
        if case.startswith("water"):
            n = 3000 if "n3000" in case else 900
            system = build_water_system(n, seed=2019)
            params = NonbondedParams(r_cut=0.9, r_list=1.0, coulomb_mode="rf")
            dtype = np.float32
        else:
            system, params = build_scenario(
                concretize_text("ionic@nacl n=900 elec=pme seed=3")
            )
            dtype = np.float64
        ref_peak, _ = _traced(
            lambda: compute_short_range(
                system, build_pair_list(system, params.r_list), params,
                dtype=dtype,
            )
        )
        plist = build_pair_list(system, params.r_list)
        if "n3000" in case:
            assert plist.n_cluster_pairs > 65536
        panels = {}

        def evaluate():
            compute_short_range_vectorized(
                system, plist, params, dtype=dtype, panels=panels
            )

        first_peak, pending = _traced(evaluate)
        assert not _panels_of(panels).bufs
        system.positions += np.random.default_rng(1).normal(
            0.0, 0.002, system.positions.shape
        )
        # tracemalloc counts only blocks allocated while it traces, so
        # what the fill keeps is what this call leaves allocated.
        fill_peak, filled = _traced(evaluate)
        cp = _panels_of(panels)
        assert cp.bufs
        # No filled-panel array is sized by the full tile lanes.
        full = plist.n_cluster_pairs * 16
        arrays = [*cp.bufs.values(), cp.f_sorted, cp.anchor_pos]
        assert all(full not in a.shape for a in arrays)
        assert first_peak <= 1.25 * ref_peak, (first_peak, ref_peak)
        assert fill_peak <= 1.25 * ref_peak, (fill_peak, ref_peak)
        assert pending <= ref_peak, (pending, ref_peak)
        assert 0 < filled <= ref_peak, (filled, ref_peak)

    def test_served_batch_bounded_and_released(self, monkeypatch):
        """The serve path — one kernel run on a fresh list through its
        owner's StepCache, then `release_panels` — peaks no higher than
        1.25x the reference and leaves no lane buffer behind: a one-shot
        first evaluation never pools its outputs."""
        from repro.core.stepcache import StepCache

        monkeypatch.setattr(vectorized, "_mapped", np.empty)
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        system = build_water_system(3000, seed=2019)
        params = NonbondedParams(r_cut=0.9, r_list=1.0, coulomb_mode="rf")
        plist = build_pair_list(system, params.r_list)
        ref_peak, _ = _traced(
            lambda: compute_short_range(system, plist, params, dtype=np.float32)
        )
        cache = StepCache()

        def serve():
            run_kernel(system, plist, params, ALL_SPECS["MARK"], cache=cache)
            cache.release_panels()

        peak, kept = _traced(serve)
        assert not cache._pool
        (memo,) = cache._memos.values()
        assert not memo.panels
        assert peak <= 1.25 * ref_peak, (peak, ref_peak)
        assert kept <= 0.05 * ref_peak, (kept, ref_peak)


class TestMaskedLaneWarnings:
    """Regression: masked lanes (r2 == 0 self-pairs, out-of-cutoff) are
    clamped before the division, so the hot path emits no
    RuntimeWarnings — enforced suite-wide by the pytest
    ``error::RuntimeWarning`` filter."""

    @pytest.mark.parametrize("mode", COULOMB_MODES)
    def test_pair_force_energy_zero_r2(self, mode):
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode=mode)
        r2 = np.array([0.0, 0.04, 1.0], dtype=np.float32)
        ones = np.ones(3, dtype=np.float32)
        mask = np.array([False, True, True])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, e = pair_force_energy(
                r2, ones, 1e-3 * ones, 1e-6 * ones, params, mask=mask
            )
        assert f[0] == 0.0 and e[0] == 0.0
        assert np.isfinite(f).all() and np.isfinite(e).all()

    def test_unmasked_self_pair_guarded(self):
        # Without an explicit mask the r2 > 0 guard must still hold.
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        r2 = np.zeros(4, dtype=np.float32)
        ones = np.ones(4, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, e = pair_force_energy(r2, ones, ones, ones, params)
        assert not f.any() and not e.any()


class TestEngineParity:
    """Whole-trajectory parity: the engine under both impls."""

    def test_positions_and_frames_identical(self, monkeypatch):
        from repro.core.engine import EngineConfig, SWGromacsEngine

        nb = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        results = {}
        for impl in KERNEL_IMPLS:
            monkeypatch.setenv("REPRO_KERNEL", impl)
            system = build_water_system(600, seed=2019)
            engine = SWGromacsEngine(
                system, EngineConfig(nonbonded=nb, report_interval=3)
            )
            assert engine.kernel_impl == impl
            res = engine.run(12)
            results[impl] = (system.positions.copy(), res.reporter.frames)
        pos_s, frames_s = results["scalar"]
        pos_v, frames_v = results["vectorized"]
        assert np.array_equal(pos_s, pos_v)
        assert frames_s == frames_v
