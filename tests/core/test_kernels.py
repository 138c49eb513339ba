"""Strategy kernels: functional fidelity against the reference engine,
fast-path vs sequential-fidelity equivalence, cost-model shape.

These are the load-bearing tests of the reproduction: every strategy must
produce the same physics, and the modelled ladder must have the paper's
ordering.
"""

import numpy as np
import pytest

from repro.core.deferred import analyze_write_trace
from repro.core.kernels import (
    ALL_SPECS,
    KernelSpec,
    _write_trace_for_range,
    partition_clusters,
    run_kernel,
    run_kernel_sequential,
)
from repro.core.strategies import (
    BASELINE_STRATEGIES,
    STRATEGY_LADDER,
    get_strategy,
    run_ladder,
    run_strategy,
    verify_forces_agree,
)
from repro.md.forces import compute_short_range
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import build_pair_list


@pytest.fixture(scope="module")
def reference_forces(water_small_mod, nb_mod, plist_mod):
    return compute_short_range(water_small_mod, plist_mod, nb_mod).forces


@pytest.fixture(scope="module")
def water_small_mod():
    from repro.md.water import build_water_system

    return build_water_system(600, seed=21)


@pytest.fixture(scope="module")
def nb_mod():
    return NonbondedParams(r_cut=0.75, r_list=0.85, coulomb_mode="rf")


@pytest.fixture(scope="module")
def plist_mod(water_small_mod, nb_mod):
    return build_pair_list(water_small_mod, nb_mod.r_list)


class TestSpecValidation:
    def test_mark_requires_write_cache(self):
        with pytest.raises(ValueError):
            KernelSpec("bad", mark=True)

    def test_rca_excludes_write_cache(self):
        with pytest.raises(ValueError):
            KernelSpec("bad", full_list=True, write_cache=True, rma_copies=False)

    def test_ustc_excludes_copies(self):
        with pytest.raises(ValueError):
            KernelSpec("bad", mpe_collect=True, rma_copies=True)

    def test_pipelining_arrives_with_cache(self):
        assert not ALL_SPECS["PKG"].pipelined
        assert ALL_SPECS["CACHE"].pipelined


class TestPartition:
    def test_covers_all_clusters(self, plist_mod):
        parts = partition_clusters(plist_mod, 64)
        assert parts[0][0] == 0
        assert parts[-1][1] == plist_mod.n_clusters
        for (a, b), (c, d) in zip(parts, parts[1:]):
            assert b == c

    def test_balanced_by_pairs(self, plist_mod):
        parts = partition_clusters(plist_mod, 16)
        counts = [
            int(plist_mod.i_starts[hi] - plist_mod.i_starts[lo])
            for lo, hi in parts
        ]
        assert max(counts) <= 1.5 * np.mean(counts)

    def test_single_worker(self, plist_mod):
        assert partition_clusters(plist_mod, 1) == [(0, plist_mod.n_clusters)]

    def test_rejects_zero_workers(self, plist_mod):
        with pytest.raises(ValueError):
            partition_clusters(plist_mod, 0)


class TestWriteTraceConstruction:
    def test_interleaving(self, plist_mod):
        trace = _write_trace_for_range(plist_mod, 0, 2)
        js0 = plist_mod.pairs_of_cluster(0)
        js1 = plist_mod.pairs_of_cluster(1)
        expect = np.concatenate([js0, [0], js1, [1]])
        np.testing.assert_array_equal(trace, expect)

    def test_full_range_length(self, plist_mod):
        trace = _write_trace_for_range(plist_mod, 0, plist_mod.n_clusters)
        assert len(trace) == plist_mod.n_cluster_pairs + plist_mod.n_clusters


class TestFunctionalFidelity:
    @pytest.mark.parametrize("name", list(ALL_SPECS))
    def test_every_strategy_matches_reference(
        self, name, water_small_mod, nb_mod, plist_mod, reference_forces
    ):
        res = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS[name])
        scale = np.abs(reference_forces).max()
        assert np.abs(res.forces - reference_forces).max() / scale < 2e-4

    def test_energies_agree_across_strategies(
        self, water_small_mod, nb_mod, plist_mod
    ):
        energies = [
            run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS[n]).energy
            for n in ("ORI", "MARK", "RCA", "USTC")
        ]
        assert max(energies) - min(energies) < 1e-3 * abs(np.mean(energies))

    def test_verify_forces_agree_raises_on_bad(self, reference_forces):
        from repro.core.kernels import KernelResult

        bad = KernelResult(
            "bad", reference_forces * 1.5, 0.0, 1.0
        )
        with pytest.raises(AssertionError):
            verify_forces_agree({"bad": bad}, reference_forces)


class TestSequentialFidelityPath:
    @pytest.mark.parametrize("name", ["CACHE", "VEC", "MARK", "RMA"])
    def test_sequential_equals_fast(self, name, water_small_mod, nb_mod, plist_mod):
        """The cluster-by-cluster walk through the real cache/bitmap/SIMD
        objects reproduces the vectorised kernel's forces and energy."""
        fast = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS[name])
        seq = run_kernel_sequential(
            water_small_mod, plist_mod, nb_mod, ALL_SPECS[name], n_cpes=8
        )
        scale = np.abs(fast.forces).max()
        assert np.abs(seq.forces - fast.forces).max() / scale < 2e-5
        assert seq.energy == pytest.approx(fast.energy, rel=1e-4)

    @pytest.mark.parametrize("use_mark", [True, False])
    def test_sequential_cache_counters_match_trace_analysis(
        self, use_mark, water_small_mod, nb_mod, plist_mod
    ):
        """The fast path's closed-form write accounting equals the counters
        of the real caches driven by the same partition."""
        n_cpes = 8
        spec = ALL_SPECS["MARK"] if use_mark else ALL_SPECS["RMA"]
        seq = run_kernel_sequential(
            water_small_mod, plist_mod, nb_mod, spec, n_cpes=n_cpes
        )
        parts = partition_clusters(plist_mod, n_cpes)
        misses = puts = gets = first = 0
        for lo, hi in parts:
            trace = _write_trace_for_range(plist_mod, lo, hi)
            st = analyze_write_trace(trace, use_mark=use_mark)
            misses += st.misses
            puts += st.puts
            gets += st.gets
            first += st.first_touches
        assert seq.stats["write_misses"] == misses
        assert seq.stats["write_puts"] == puts
        assert seq.stats["write_gets"] == gets
        assert seq.stats["write_first_touches"] == first

    def test_simd_path_counts_shuffles(self, water_small_mod, nb_mod, plist_mod):
        seq = run_kernel_sequential(
            water_small_mod, plist_mod, nb_mod, ALL_SPECS["VEC"], n_cpes=8
        )
        # Six shuffles per cluster pair (the Fig. 7 transpose).
        assert seq.stats["simd_shuffles"] == 6 * plist_mod.n_cluster_pairs


class TestCostModelShape:
    def test_ladder_ordering(self, water_small_mod, nb_mod):
        lad = run_ladder(water_small_mod, STRATEGY_LADDER, nb_mod)
        s = lad.speedups
        assert s["Ori"] == pytest.approx(1.0)
        assert 1.0 < s["Pkg"] < s["Cache"] < s["Vec"] < s["Mark"]

    def test_baseline_ordering(self, water_small_mod, nb_mod):
        lad = run_ladder(
            water_small_mod,
            STRATEGY_LADDER + BASELINE_STRATEGIES,
            nb_mod,
        )
        s = lad.speedups
        # The paper's Fig. 9 ordering: USTC ~ RCA << RMA < MARK.
        assert s["USTC_GMX"] < s["RMA_GMX"]
        assert s["SW_LAMMPS"] < s["RMA_GMX"]
        assert s["RMA_GMX"] < s["MARK_GMX"]
        assert s["RMA_GMX"] == pytest.approx(s["Vec"])
        assert s["MARK_GMX"] == pytest.approx(s["Mark"])

    def test_mark_removes_init(self, water_small_mod, nb_mod, plist_mod):
        vec = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS["VEC"])
        mark = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS["MARK"])
        assert vec.breakdown["init"] > 0
        assert mark.breakdown["init"] == 0
        assert mark.breakdown["reduction"] < vec.breakdown["reduction"]

    def test_rca_doubles_compute(self, water_small_mod, nb_mod, plist_mod):
        rca = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS["RCA"])
        cache = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS["CACHE"])
        # Exactly 2x in total work; the critical-CPE time ratio is noisy
        # at this small cluster count (load imbalance), so allow slack.
        assert rca.stats["cluster_pairs"] == pytest.approx(
            2 * cache.stats["cluster_pairs"], rel=0.05
        )
        assert 1.4 < rca.breakdown["compute"] / cache.breakdown["compute"] < 2.6

    def test_cache_reduces_read_traffic(self, water_small_mod, nb_mod, plist_mod):
        pkg = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS["PKG"])
        cache = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS["CACHE"])
        assert cache.breakdown["read_dma"] < pkg.breakdown["read_dma"]
        assert cache.breakdown["write_dma"] < pkg.breakdown["write_dma"]
        assert cache.stats["read_miss_ratio"] < 0.5

    def test_miss_ratios_paper_range(self, water_small_mod, nb_mod, plist_mod):
        """Paper §4.2: both cache miss rates under 15 %."""
        mark = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS["MARK"])
        assert mark.stats["read_miss_ratio"] < 0.20
        assert mark.stats["write_miss_ratio"] < 0.20

    def test_speedup_roughly_size_independent(self, nb_mod):
        """Fig. 8: the ladder is flat in particles per CG."""
        from repro.md.water import build_water_system

        speedups = []
        for n in (1200, 2400):
            system = build_water_system(n, seed=3)
            lad = run_ladder(system, STRATEGY_LADDER, nb_mod)
            speedups.append(lad.speedups["Mark"])
        assert speedups[1] == pytest.approx(speedups[0], rel=0.30)

    def test_run_strategy_by_label(self, water_small_mod, nb_mod):
        res = run_strategy(water_small_mod, "Mark", nb_mod)
        assert res.name == "MARK"
        with pytest.raises(KeyError):
            get_strategy("nonexistent")


class TestCostModelRegressions:
    """Satellite-bug pins: nblist DMA through Table 2 per CPE, per-
    partition i-line counts, and the two-sided speedup guard."""

    def test_nblist_charged_at_interpolated_bandwidth(
        self, water_small_mod, nb_mod, plist_mod
    ):
        """Each CPE's neighbour-list slice streams at the Table 2
        bandwidth for its own chunk size — hand-recomputed here with an
        independent log-log interpolation of the anchors."""
        from repro.hw.params import DEFAULT_PARAMS

        res = run_kernel(
            water_small_mod, plist_mod, nb_mod, ALL_SPECS["MARK"]
        )
        curve = DEFAULT_PARAMS.dma_curve
        sizes = np.array([s for s, _ in curve], dtype=float)
        bws = np.array([b for _, b in curve], dtype=float)

        def hand_bandwidth_gbs(nbytes: float) -> float:
            if nbytes <= sizes[0]:
                return bws[0] * nbytes / sizes[0]
            if nbytes >= sizes[-1]:
                return float(bws[-1])
            return float(
                np.exp(
                    np.interp(np.log(nbytes), np.log(sizes), np.log(bws))
                )
            )

        parts = partition_clusters(plist_mod, DEFAULT_PARAMS.n_cpes)
        expected = 0.0
        for lo, hi in parts:
            nbytes = int(plist_mod.i_starts[hi] - plist_mod.i_starts[lo]) * 4
            if nbytes:
                expected += nbytes / (hand_bandwidth_gbs(nbytes) * 1e9)
        assert res.breakdown["nblist_dma"] == pytest.approx(
            expected, rel=1e-12
        )

    def test_nblist_not_charged_at_peak_anchor(
        self, water_small_mod, nb_mod, plist_mod
    ):
        """The old model divided by the top-anchor bandwidth, making
        small systems' nblist DMA impossibly fast; per-CPE chunks of
        this system sit below the top anchor, so the corrected time is
        strictly slower than peak."""
        from repro.hw.params import DEFAULT_PARAMS

        res = run_kernel(
            water_small_mod, plist_mod, nb_mod, ALL_SPECS["MARK"]
        )
        peak_seconds = (
            plist_mod.n_cluster_pairs * 4
        ) / (DEFAULT_PARAMS.dma_curve[-1][1] * 1e9)
        assert res.breakdown["nblist_dma"] > peak_seconds

    def test_i_lines_ceil_per_partition(
        self, water_small_mod, nb_mod, plist_mod
    ):
        """Each CPE streams its own contiguous i-cluster range: the line
        count must match what the sequential fidelity cache reports for
        that range, and their sum exceeds the old global ceil."""
        from repro.core.fetch import (
            analyze_read_trace,
            sequential_stream_lines,
        )
        from repro.core.packing import Layout, PackedParticles
        from repro.hw.params import DEFAULT_PARAMS

        params = DEFAULT_PARAMS
        packed = PackedParticles.from_pairlist(
            water_small_mod, plist_mod, Layout.SOA, params
        )
        parts = partition_clusters(plist_mod, params.n_cpes)
        total = 0
        for lo, hi in parts:
            n_lines = sequential_stream_lines(
                lo, hi, params.packages_per_line
            )
            if hi > lo:
                seq = analyze_read_trace(
                    np.arange(lo, hi, dtype=np.int64), packed, params
                )
                assert n_lines == seq.misses, (lo, hi)
            total += n_lines
        res = run_kernel(
            water_small_mod, plist_mod, nb_mod, ALL_SPECS["MARK"]
        )
        assert res.stats["i_lines"] == total
        global_ceil = -(-plist_mod.n_clusters // params.packages_per_line)
        assert total > global_ceil  # the old undercount

    def test_speedup_over_guards_both_operands(self):
        from repro.core.kernels import KernelResult

        good = KernelResult("a", np.zeros((1, 3)), 0.0, 1.0)
        bad = KernelResult("b", np.zeros((1, 3)), 0.0, 0.0)
        with pytest.raises(ValueError):
            bad.speedup_over(good)
        with pytest.raises(ValueError):
            good.speedup_over(bad)
        assert good.speedup_over(good) == 1.0

    def test_engine_speedup_guards_both_operands(self):
        from repro.core.engine import EngineResult
        from repro.hw.perf import KernelTiming

        t = KernelTiming()
        t.add("Force", 1.0)
        good = EngineResult(None, None, t, 1, "Ori")
        bad = EngineResult(None, None, KernelTiming(), 1, "Ori")
        with pytest.raises(ValueError):
            good.speedup_over(bad)
        with pytest.raises(ValueError):
            bad.speedup_over(good)


#: Golden cost-model pins (water 600, seed 21, nb_mod, DEFAULT_PARAMS):
#: future cost-model edits must update these numbers *deliberately*.
GOLDEN_BREAKDOWN = {
    "ORI": {
        "compute": 0.004211255172413793,
    },
    "GLD": {
        "compute": 0.00020915862068965517,
        "read_dma": 0.0012940836206896552,
        "nblist_dma": 1.1650275849904328e-06,
        "write_dma": 0.0012589898275862069,
        "init": 1.531968503937008e-05,
        "reduction": 7.887061913434195e-05,
        "mpe_collect": 0.0,
    },
    "PKG": {
        "compute": 0.00020915862068965517,
        "read_dma": 0.0002765167879319904,
        "nblist_dma": 1.1650275849904328e-06,
        "write_dma": 0.0005510618575567485,
        "init": 1.531968503937008e-05,
        "reduction": 7.887061913434195e-05,
        "mpe_collect": 0.0,
    },
    "CACHE": {
        "compute": 0.00020915862068965517,
        "read_dma": 2.68711354668689e-05,
        "nblist_dma": 1.1650275849904328e-06,
        "write_dma": 2.1629351513335847e-05,
        "init": 1.531968503937008e-05,
        "reduction": 7.887061913434195e-05,
        "mpe_collect": 0.0,
    },
    "VEC": {
        "compute": 8.058758620689655e-05,
        "read_dma": 2.68711354668689e-05,
        "nblist_dma": 1.1650275849904328e-06,
        "write_dma": 2.1629351513335847e-05,
        "init": 1.531968503937008e-05,
        "reduction": 7.887061913434195e-05,
        "mpe_collect": 0.0,
    },
    "MARK": {
        "compute": 8.058758620689655e-05,
        "read_dma": 2.68711354668689e-05,
        "nblist_dma": 1.1650275849904328e-06,
        "write_dma": 1.0814675756667923e-05,
        "init": 0.0,
        "reduction": 1.1264821697477044e-05,
        "mpe_collect": 0.0,
    },
    "RMA": {
        "compute": 8.058758620689655e-05,
        "read_dma": 2.68711354668689e-05,
        "nblist_dma": 1.1650275849904328e-06,
        "write_dma": 2.1629351513335847e-05,
        "init": 1.531968503937008e-05,
        "reduction": 7.887061913434195e-05,
        "mpe_collect": 0.0,
    },
    "RCA": {
        "compute": 0.00033015172413793103,
        "read_dma": 3.90191910725221e-05,
        "nblist_dma": 2.258874174711415e-06,
        "write_dma": 1.2236994733903296e-06,
        "init": 0.0,
        "reduction": 0.0,
        "mpe_collect": 0.0,
    },
    "USTC": {
        "compute": 0.00020915862068965517,
        "read_dma": 2.68711354668689e-05,
        "nblist_dma": 1.1650275849904328e-06,
        "write_dma": 6.872976976041977e-05,
        "init": 0.0,
        "reduction": 0.0,
        "mpe_collect": 0.0002857489655172414,
    },
}


#: Every rung's stats on the same system, and the engine's neighbour-
#: search time per rebuild and one modelled step (level 3) there.
GOLDEN_STATS = {
    "ORI": {
        "cluster_pairs": 8481.0,
        "tile_pairs": 135696.0,
    },
    "GLD": {
        "cluster_pairs": 8481.0,
        "tile_pairs": 135696.0,
        "imbalance": 1.682820422120033,
        "read_miss_ratio": 1.0,
        "n_gld": 678480.0,
        "read_bytes": 2713920.0,
        "write_bytes": 3256704.0,
        "nblist_bytes": 33924.0,
        "dma_seconds": 0.0025542384758608524,
    },
    "PKG": {
        "cluster_pairs": 8481.0,
        "tile_pairs": 135696.0,
        "imbalance": 1.682820422120033,
        "read_miss_ratio": 1.0,
        "read_bytes": 3816400.0,
        "write_bytes": 3263952.0,
        "nblist_bytes": 33924.0,
        "dma_seconds": 0.0008287436730737293,
    },
    "CACHE": {
        "cluster_pairs": 8481.0,
        "tile_pairs": 135696.0,
        "imbalance": 1.682820422120033,
        "read_miss_ratio": 0.09609715835396769,
        "i_lines": 72.0,
        "write_miss_ratio": 0.09441612604263207,
        "read_bytes": 794752.0,
        "write_bytes": 625920.0,
        "nblist_bytes": 33924.0,
        "dma_seconds": 4.966551456519518e-05,
    },
    "VEC": {
        "cluster_pairs": 8481.0,
        "tile_pairs": 135696.0,
        "imbalance": 1.682820422120033,
        "read_miss_ratio": 0.09609715835396769,
        "i_lines": 72.0,
        "write_miss_ratio": 0.09441612604263207,
        "read_bytes": 794752.0,
        "write_bytes": 625920.0,
        "nblist_bytes": 33924.0,
        "dma_seconds": 4.966551456519518e-05,
    },
    "MARK": {
        "cluster_pairs": 8481.0,
        "tile_pairs": 135696.0,
        "imbalance": 1.682820422120033,
        "read_miss_ratio": 0.09609715835396769,
        "i_lines": 72.0,
        "write_miss_ratio": 0.09441612604263207,
        "read_bytes": 794752.0,
        "write_bytes": 312960.0,
        "nblist_bytes": 33924.0,
        "dma_seconds": 3.885083880852725e-05,
    },
    "RMA": {
        "cluster_pairs": 8481.0,
        "tile_pairs": 135696.0,
        "imbalance": 1.682820422120033,
        "read_miss_ratio": 0.09609715835396769,
        "i_lines": 72.0,
        "write_miss_ratio": 0.09441612604263207,
        "read_bytes": 794752.0,
        "write_bytes": 625920.0,
        "nblist_bytes": 33924.0,
        "dma_seconds": 4.966551456519518e-05,
    },
    "RCA": {
        "cluster_pairs": 16811.0,
        "tile_pairs": 268976.0,
        "imbalance": 1.3400749509249896,
        "read_miss_ratio": 0.07221462137885908,
        "i_lines": 74.0,
        "read_bytes": 1154048.0,
        "write_bytes": 7248.0,
        "nblist_bytes": 67244.0,
        "dma_seconds": 4.2501764720623846e-05,
    },
    "USTC": {
        "cluster_pairs": 8481.0,
        "tile_pairs": 135696.0,
        "imbalance": 1.682820422120033,
        "read_miss_ratio": 0.09609715835396769,
        "i_lines": 72.0,
        "read_bytes": 794752.0,
        "write_bytes": 407088.0,
        "nblist_bytes": 33924.0,
        "dma_seconds": 9.67659328122791e-05,
    },
}
GOLDEN_NS_SECONDS = 3.247105174881322e-05
GOLDEN_MODEL_STEP = 0.00015058231131432712


class TestGoldenBreakdowns:
    """Pin every rung's modelled breakdown and stats, and the engine's
    modelled neighbour search and step, on the fixed-seed system —
    exactly: a reordered float sum in the cost model shows here."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_BREAKDOWN))
    def test_breakdown_pinned(self, name, water_small_mod, nb_mod, plist_mod):
        res = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS[name])
        assert res.breakdown == GOLDEN_BREAKDOWN[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_STATS))
    def test_stats_pinned(self, name, water_small_mod, nb_mod, plist_mod):
        res = run_kernel(water_small_mod, plist_mod, nb_mod, ALL_SPECS[name])
        assert res.stats == GOLDEN_STATS[name]

    def test_engine_model_pinned(self, water_small_mod, nb_mod):
        from repro.core.engine import EngineConfig, SWGromacsEngine

        engine = SWGromacsEngine(
            water_small_mod.copy(), EngineConfig(nonbonded=nb_mod)
        )
        assert engine.model_step().total() == GOLDEN_MODEL_STEP
        assert engine._cached_ns_seconds == GOLDEN_NS_SECONDS
        assert engine._ns_seconds() == GOLDEN_NS_SECONDS
