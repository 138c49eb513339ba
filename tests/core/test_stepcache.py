"""Step-compute reuse layer (DESIGN.md §8).

The headline invariant: forces/energies are bit-identical with reuse on
vs. off, at every level — kernel sweep, engine, reference loop.  Plus the
reuse accounting itself: one `compute_short_range` per (work list,
positions), topology entries memoised, invalidation on rebuild/restore.
"""

import numpy as np
import pytest

from repro.core.kernels import (
    ALL_SPECS,
    run_kernel,
    run_strategy_sweep,
)
from repro.core import vectorized
from repro.core.stepcache import (
    NullStepCache,
    StepCache,
    TraceCounts,
    partition_clusters,
    position_fingerprint,
    write_trace_for_range,
)
from repro.hw.cache import AddressMap
from repro.core.strategies import STRATEGY_LADDER, run_ladder
from repro.hw.params import DEFAULT_PARAMS
from repro.md.forces import compute_short_range
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import build_pair_list
from repro.md.water import build_water_system

LADDER = ["ORI", "PKG", "CACHE", "VEC", "MARK"]
WITH_BASELINES = LADDER + ["RMA", "RCA", "USTC"]


@pytest.fixture(scope="module")
def water(nb):
    return build_water_system(600, seed=21)


@pytest.fixture(scope="module")
def nb():
    return NonbondedParams(r_cut=0.75, r_list=0.85, coulomb_mode="rf")


@pytest.fixture(scope="module")
def plist(water, nb):
    return build_pair_list(water, nb.r_list)


class TestSweepEquivalence:
    def test_sweep_matches_individual_runs_bitwise(self, water, plist, nb):
        swept = run_strategy_sweep(water, plist, nb, WITH_BASELINES)
        for name in WITH_BASELINES:
            solo = run_kernel(water, plist, nb, ALL_SPECS[name])
            assert np.array_equal(swept[name].forces, solo.forces), name
            assert swept[name].energy == solo.energy, name
            assert swept[name].elapsed_seconds == solo.elapsed_seconds, name
            assert swept[name].breakdown == solo.breakdown, name
            assert swept[name].stats == solo.stats, name

    def test_sweep_accepts_spec_objects(self, water, plist, nb):
        by_name = run_strategy_sweep(water, plist, nb, ["MARK"])
        by_spec = run_strategy_sweep(water, plist, nb, [ALL_SPECS["MARK"]])
        assert by_name.keys() == by_spec.keys()
        assert np.array_equal(
            by_name["MARK"].forces, by_spec["MARK"].forces
        )

    def test_one_force_eval_per_work_list(self, water, plist, nb):
        """The acceptance criterion: a full ladder sweep evaluates
        `compute_short_range` once per list state — once for the half
        list, plus once for the RCA-mirrored full list."""
        cache = StepCache()
        run_strategy_sweep(water, plist, nb, LADDER, cache=cache)
        assert cache.stats.sr_evals == 1
        assert cache.stats.sr_hits == len(LADDER) - 1

        cache = StepCache()
        run_strategy_sweep(water, plist, nb, WITH_BASELINES, cache=cache)
        assert cache.stats.sr_evals == 2  # half list + RCA full list
        assert cache.stats.sr_hits == len(WITH_BASELINES) - 2

    def test_builds_no_packed_particles(self, water, plist, nb, monkeypatch):
        """The cost model reads only the read-cache line size, a chip
        constant, so no rung packs particles (a position gather and a
        fingerprint per rebuild and per served job)."""
        from repro.core.packing import PackedParticles

        def refuse(*args, **kwargs):
            raise AssertionError("run_kernel packed particles")

        monkeypatch.setattr(PackedParticles, "from_pairlist", refuse)
        cache = StepCache()
        run_strategy_sweep(water, plist, nb, WITH_BASELINES, cache=cache)
        assert not hasattr(cache.stats, "packed_builds")

    def test_run_ladder_shares_one_eval(self, water, nb):
        res = run_ladder(water, STRATEGY_LADDER, nb)
        labels = [s.label for s in STRATEGY_LADDER]
        assert list(res.results.keys()) == labels
        # All rungs share the identical forces object state.
        ref = res.results["Ori"].forces
        for label in labels[1:]:
            assert np.array_equal(res.results[label].forces, ref)


class TestCacheSemantics:
    def test_position_change_is_a_miss(self, water, plist, nb):
        cache = StepCache()
        a = cache.short_range(water, plist, nb, dtype=np.float32)
        moved = water.copy()
        moved.positions = moved.positions + 1e-7
        b = cache.short_range(moved, plist, nb, dtype=np.float32)
        assert cache.stats.sr_evals == 2
        assert not np.array_equal(a.forces, b.forces)

    def test_hit_returns_shared_result(self, water, plist, nb):
        cache = StepCache()
        a = cache.short_range(water, plist, nb, dtype=np.float32)
        b = cache.short_range(water, plist, nb, dtype=np.float32)
        assert a is b
        assert cache.stats.sr_evals == 1 and cache.stats.sr_hits == 1

    def test_nb_params_in_key(self, water, plist, nb):
        cache = StepCache()
        cache.short_range(water, plist, nb, dtype=np.float32)
        other = NonbondedParams(r_cut=0.7, r_list=0.85, coulomb_mode="rf")
        cache.short_range(water, plist, other, dtype=np.float32)
        assert cache.stats.sr_evals == 2

    def test_latest_fingerprint_only(self, water, plist, nb):
        """A stepping run replaces entries, it doesn't accumulate them."""
        cache = StepCache()
        moved = water.copy()
        for k in range(4):
            moved.positions = moved.positions + 1e-7
            cache.short_range(moved, plist, nb, dtype=np.float32)
        assert cache.stats.sr_evals == 4
        (memo,) = cache._memos.values()
        assert len(memo.state) == 1

    def test_invalidate_clears_everything(self, water, plist, nb):
        cache = StepCache()
        cache.short_range(water, plist, nb, dtype=np.float32)
        cache.partitions(plist, DEFAULT_PARAMS.n_cpes)
        cache.invalidate()
        assert not cache._memos
        assert cache.stats.invalidations == 1
        cache.short_range(water, plist, nb, dtype=np.float32)
        assert cache.stats.sr_evals == 2

    def test_topology_entries_memoised(self, plist):
        cache = StepCache()
        p1 = cache.partitions(plist, 64)
        p2 = cache.partitions(plist, 64)
        assert p1 is p2
        c1 = cache.trace_counts(plist, DEFAULT_PARAMS)
        c2 = cache.trace_counts(plist, DEFAULT_PARAMS)
        assert c1 is c2
        assert c1.write is c2.write
        # The write trace's accesses: per i-cluster its pairs, then itself.
        assert c1.write[1].sum() == len(
            write_trace_for_range(plist, 0, plist.n_clusters)
        )

    def test_fingerprint_sensitivity(self):
        a = np.zeros((8, 3))
        b = a.copy()
        assert position_fingerprint(a) == position_fingerprint(b)
        b[7, 2] = np.nextafter(0.0, 1.0)  # smallest possible change
        assert position_fingerprint(a) != position_fingerprint(b)

    def test_null_cache_counts_evals(self, water, plist, nb):
        cache = NullStepCache()
        a = cache.short_range(water, plist, nb, dtype=np.float32)
        b = cache.short_range(water, plist, nb, dtype=np.float32)
        assert cache.stats.sr_evals == 2
        assert a is not b
        assert np.array_equal(a.forces, b.forces)


class TestGatherReuse:
    """Lane data gathered once per list (the memo's valid lanes and
    compact panels) gives the same results as a reuse-off evaluation,
    also once the positions have moved; `release_panels` drops only the
    panels."""

    def test_reuse_on_off_bit_identical(self, water, plist, nb):
        cache = StepCache()
        moved = water.copy()
        for _ in range(2):
            on = cache.short_range(moved, plist, nb)
            off = NullStepCache().short_range(moved, plist, nb)
            assert np.array_equal(on.forces, off.forces)
            assert on.energy == off.energy
            assert on.virial == off.virial
            moved.positions = moved.positions + 1e-4
        assert cache.stats.sr_evals == 2

    def test_release_panels_keeps_results(self, water, plist, nb, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")  # builds panels
        cache = StepCache()
        a = cache.short_range(water, plist, nb)
        (memo,) = cache._memos.values()
        assert memo.panels
        cache.release_panels()
        assert not memo.panels
        assert cache.short_range(water, plist, nb) is a
        assert cache.stats.sr_hits == 1


class TestDriverBitIdentity:
    def test_engine_reuse_on_off(self, water):
        from repro.core.engine import EngineConfig, SWGromacsEngine
        from repro.md.integrator import IntegratorConfig

        nb = NonbondedParams(
            r_cut=0.75, r_list=0.85, coulomb_mode="rf", nstlist=5
        )
        results = {}
        for reuse in (True, False):
            cfg = EngineConfig(
                nonbonded=nb,
                integrator=IntegratorConfig(thermostat="berendsen"),
                report_interval=2,
            )
            eng = SWGromacsEngine(water.copy(), cfg)
            if not reuse:
                eng.stepcache = NullStepCache()
            results[reuse] = eng.run(12)
        on, off = results[True], results[False]
        assert np.array_equal(on.system.positions, off.system.positions)
        assert np.array_equal(on.system.velocities, off.system.velocities)
        assert [f.total for f in on.reporter.frames] == [
            f.total for f in off.reporter.frames
        ]

    def test_mdloop_reuse_on_off(self, water):
        from repro.md.integrator import IntegratorConfig
        from repro.md.mdloop import MdConfig, MdLoop

        nb = NonbondedParams(
            r_cut=0.75, r_list=0.85, coulomb_mode="rf", nstlist=5
        )
        results = {}
        for reuse in (True, False):
            cfg = MdConfig(
                nonbonded=nb,
                integrator=IntegratorConfig(thermostat="berendsen"),
                report_interval=2,
            )
            loop = MdLoop(water.copy(), cfg)
            if not reuse:
                loop.stepcache = NullStepCache()
            results[reuse] = loop.run(12)
        on, off = results[True], results[False]
        assert np.array_equal(on.system.positions, off.system.positions)
        assert np.array_equal(on.system.velocities, off.system.velocities)
        assert [f.total for f in on.reporter.frames] == [
            f.total for f in off.reporter.frames
        ]

    def test_engine_rebuild_invalidates(self, water):
        from repro.core.engine import EngineConfig, SWGromacsEngine

        nb = NonbondedParams(
            r_cut=0.75, r_list=0.85, coulomb_mode="rf", nstlist=4
        )
        eng = SWGromacsEngine(water.copy(), EngineConfig(nonbonded=nb))
        eng.run(9)  # rebuilds at steps 0, 4, 8
        assert eng.stepcache.stats.invalidations == 3
        # At each rebuild step the kernel model's evaluation is shared
        # with the step loop (one hit per rebuild).
        assert eng.stepcache.stats.sr_hits >= 3


class TestNoOldListPinnedAtBuild:
    """When the engine or `MdLoop` builds its next pair list, its
    StepCache pins no memo of the old one, so the old lane panels are
    gone (their buffers pooled) before the new ones exist — during
    `run`, in the minimiser, and after `restore`."""

    NB = NonbondedParams(r_cut=0.75, r_list=0.85, coulomb_mode="rf", nstlist=5)

    @staticmethod
    def _watch(monkeypatch, module, caches):
        """Patch ``module.build_pair_list`` to record, per build, how
        many list memos the StepCaches ``caches()`` still hold."""
        real = module.build_pair_list
        pinned = []

        def build(*args, **kwargs):
            pinned.append(sum(len(c._memos) for c in caches()))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "build_pair_list", build)
        return pinned

    def _run_restore_run(self, md):
        md.run(7)  # builds at steps 0 and 5
        ckpt = md.checkpoint()
        assert md.stepcache._memos
        md.restore(ckpt)
        assert not md.stepcache._memos
        md.run(12)  # rebuilds the step-5 list at 7, then builds at 10

    def test_engine(self, water, monkeypatch):
        import repro.core.engine as engine_mod

        eng = engine_mod.SWGromacsEngine(
            water.copy(), engine_mod.EngineConfig(nonbonded=self.NB)
        )
        pinned = self._watch(monkeypatch, engine_mod, lambda: [eng.stepcache])
        self._run_restore_run(eng)
        assert pinned == [0, 0, 0, 0]

    def test_mdloop(self, water, monkeypatch):
        import repro.md.mdloop as mdloop

        loop = mdloop.MdLoop(water.copy(), mdloop.MdConfig(nonbonded=self.NB))
        pinned = self._watch(monkeypatch, mdloop, lambda: [loop.stepcache])
        self._run_restore_run(loop)
        assert pinned == [0, 0, 0, 0]

    def test_minimiser(self, water, monkeypatch):
        import importlib

        import repro.md.mdloop as mdloop

        # `repro.md` re-exports the function under the module's name.
        minimize_mod = importlib.import_module("repro.md.minimize")
        loops = []

        class RecordingLoop(mdloop.MdLoop):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                loops.append(self)

        monkeypatch.setattr(minimize_mod, "MdLoop", RecordingLoop)
        pinned = self._watch(
            monkeypatch, mdloop, lambda: [lp.stepcache for lp in loops]
        )
        minimize_mod.minimize(
            water.copy(), mdloop.MdConfig(nonbonded=self.NB), n_steps=4
        )
        assert len(loops) == 1
        assert len(pinned) >= 2
        assert not any(pinned)


def _panels(cache, plist):
    """The vectorized kernel's panels of ``plist`` in ``cache``."""
    (cp,) = [
        v for v in cache._memos[id(plist)].panels.values()
        if isinstance(v, vectorized.CompactPanels)
    ]
    return cp


def _moved(system, seed, scale=0.002):
    out = system.copy()
    out.positions += np.random.default_rng(seed).normal(
        0.0, scale, out.positions.shape
    )
    return out


class TestBufferPool:
    """Kept-lane buffers outlive their list: `invalidate` pools them,
    the next list's first evaluation borrows them and its fill takes
    them; they never serve two live lists, a one-shot list leaves none
    behind, and `release_panels` drops them."""

    @pytest.fixture(autouse=True)
    def _vectorized(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")

    def test_next_list_fill_reuses_dead_lists_arrays(self, water, nb):
        cache = StepCache()
        old = build_pair_list(water, nb.r_list)
        for k in range(2):  # first evaluation, fill
            cache.short_range(_moved(water, k, 0.002 * k), old, nb, np.float32)
        dead = _panels(cache, old).bufs
        assert dead
        cache.invalidate()
        assert cache._pool and next(iter(cache._pool.values())) is dead
        start = _moved(water, 5)
        plist = build_pair_list(start, nb.r_list)
        first = cache.short_range(start, plist, nb, np.float32)
        # Borrowed for the outputs and returned.
        assert next(iter(cache._pool.values())) is dead
        assert not _panels(cache, plist).bufs
        later = _moved(start, 6)
        filled = cache.short_range(later, plist, nb, np.float32)
        cp = _panels(cache, plist)
        assert cp.bufs is dead and not cache._pool
        assert all(cp.bufs[name] is arr for name, arr in dead.items())
        for system, res in ((start, first), (later, filled)):
            ref = compute_short_range(system, plist, nb, dtype=np.float32)
            assert np.array_equal(ref.forces, res.forces)
            assert (ref.energy, ref.virial) == (res.energy, res.virial)

    def test_small_pooled_set_is_replaced(self, water, nb, monkeypatch):
        cache = StepCache()
        old = build_pair_list(water, nb.r_list)
        for k in range(2):
            cache.short_range(_moved(water, k, 0.002 * k), old, nb, np.float32)
        cache.invalidate()
        (key,) = cache._pool
        cache._pool[key] = vectorized._lane_buffers(
            16, np.float32, True, nb
        )
        plist = build_pair_list(_moved(water, 5), nb.r_list)
        for k in (5, 6):
            res = cache.short_range(_moved(water, k), plist, nb, np.float32)
            ref = compute_short_range(
                _moved(water, k), plist, nb, dtype=np.float32
            )
            assert np.array_equal(ref.forces, res.forces)
        cp = _panels(cache, plist)
        assert cp.cap >= cp.n_kept > 16
        assert not cache._pool

    def test_two_live_lists_stay_exact(self, water, nb):
        cache = StepCache()
        old = build_pair_list(water, nb.r_list)
        for k in range(2):
            cache.short_range(_moved(water, k, 0.002 * k), old, nb, np.float32)
        cache.invalidate()
        lists = [
            build_pair_list(_moved(water, 7), nb.r_list),
            build_pair_list(_moved(water, 8), nb.r_list),
        ]
        for step in range(4):
            for i, plist in enumerate(lists):
                system = _moved(water, 7 + i if step == 0 else 20 + step)
                res = cache.short_range(system, plist, nb, np.float32)
                ref = compute_short_range(system, plist, nb, dtype=np.float32)
                assert np.array_equal(
                    ref.forces.view(np.int64), res.forces.view(np.int64)
                )
                assert (ref.energy, ref.virial) == (res.energy, res.virial)
                assert ref.n_pairs_in_cutoff == res.n_pairs_in_cutoff
        a, b = (_panels(cache, plist).bufs for plist in lists)
        assert a and b
        assert not any(
            np.shares_memory(x, y) for x in a.values() for y in b.values()
        )

    def test_one_shot_list_leaves_no_pooled_buffer(self, water, plist, nb):
        cache = StepCache()
        cache.short_range(water, plist, nb, np.float32)
        assert not cache._pool
        assert not _panels(cache, plist).bufs
        cache.release_panels()
        cache.invalidate()
        assert not cache._pool

    def test_release_panels_empties_pool(self, water, nb):
        cache = StepCache()
        old = build_pair_list(water, nb.r_list)
        for k in range(2):
            cache.short_range(_moved(water, k, 0.002 * k), old, nb, np.float32)
        cache.invalidate()
        assert cache._pool
        cache.release_panels()
        assert not cache._pool


def _oracle_misses(trace, amap):
    """The direct-mapped miss count as a per-CPE call once computed it:
    an int64 stable argsort of the set indices."""
    idx = np.asarray(trace, dtype=np.int64)
    if idx.size == 0:
        return 0
    lines = (idx >> amap.offset_bits) & (amap.n_lines - 1)
    tags = idx >> (amap.index_bits + amap.offset_bits)
    order = np.argsort(lines, kind="stable")
    sl, st = lines[order], tags[order]
    new = np.ones(idx.size, dtype=bool)
    new[1:] = (sl[1:] != sl[:-1]) | (st[1:] != st[:-1])
    return int(np.count_nonzero(new))


def _oracle_counts(plist, parts, amap):
    """Per-CPE (read misses, read accesses, write misses, write
    accesses, distinct write lines), one partition at a time."""
    rows = []
    for lo, hi in parts:
        s, e = int(plist.i_starts[lo]), int(plist.i_starts[hi])
        read = plist.pair_cj[s:e].astype(np.int64)
        write = write_trace_for_range(plist, lo, hi)
        rows.append((
            _oracle_misses(read, amap), len(read),
            _oracle_misses(write, amap), len(write),
            len(np.unique(write >> amap.offset_bits)),
        ))
    return np.array(rows, dtype=np.int64).reshape(-1, 5)


class TestTraceCounts:
    """The whole-list passes give every CPE the counts a per-partition
    analysis gives, on real lists of every family (with empty
    partitions, and cluster counts 64 does not divide)."""

    @pytest.mark.parametrize("n_cpes", [1, 7, 64])
    @pytest.mark.parametrize("half", [True, False])
    def test_equal_to_per_partition_oracle(self, water, nb, half, n_cpes):
        plist = build_pair_list(water, nb.r_list, half=half)
        assert plist.n_clusters % 64
        params = DEFAULT_PARAMS.with_overrides(n_cpes=n_cpes)
        self._check(plist, params)

    def test_empty_partitions(self):
        from repro.md.water import build_lj_mixture

        system = build_lj_mixture(120, seed=5)
        plist = build_pair_list(system, 0.9)
        parts = partition_clusters(plist, DEFAULT_PARAMS.n_cpes)
        assert plist.n_clusters < 64
        assert any(lo == hi for lo, hi in parts)
        self._check(plist, DEFAULT_PARAMS)

    @pytest.mark.parametrize("index_bits, offset_bits", [(5, 3), (2, 1), (9, 0)])
    def test_other_geometries(self, water, nb, index_bits, offset_bits):
        plist = build_pair_list(water, nb.r_list)
        params = DEFAULT_PARAMS.with_overrides(
            index_bits=index_bits, offset_bits=offset_bits
        )
        self._check(plist, params)

    @staticmethod
    def _check(plist, params):
        parts = partition_clusters(plist, params.n_cpes)
        amap = AddressMap(params.index_bits, params.offset_bits)
        want = _oracle_counts(plist, parts, amap)
        counts = TraceCounts(plist, parts, params)
        got = np.stack([*counts.read, *counts.write], axis=1)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
