"""CPE short-range kernels: every optimisation rung and baseline.

Each kernel produces *functionally correct* forces (validated against the
float64 reference engine) plus a modelled execution time built from the
same quantities the paper's optimizations act on: DMA transactions and
block sizes (through the Table 2 bandwidth curve), software-cache miss
counts (exact, trace-driven), init/reduction traffic, and compute cycles
(scalar vs. 4-lane SIMD; MPE vs. 64 CPEs).

Strategy rungs (the paper's Fig. 8 ladder):

* ``ORI``   — original GROMACS on the MPE only;
* ``PKG``   — CPE offload with particle-package aggregation (§3.1, Fig. 2);
* ``CACHE`` — + read cache (Fig. 3) and deferred-update write cache
  (Fig. 4), full pipelining;
* ``VEC``   — + SIMD vectorisation with the Fig. 6 layout and Fig. 7
  shuffles;
* ``MARK``  — + Bit-Map update marks (§3.3, Algorithms 3-4).

Comparison baselines (Fig. 9):

* ``RMA``   — the Cell-style redundant-memory approach: identical to
  ``VEC`` (per-CPE copies with full init + reduction);
* ``RCA``   — the SW_LAMMPS redundant-compute approach (Algorithm 2):
  full pair list, each side computes its own half, no write conflicts,
  2x the arithmetic;
* ``USTC``  — CPEs compute, the MPE serially collects and applies force
  updates [29].

The *fast path* computes forces vectorised and derives costs from
whole-trace analysis; the *fidelity path*
(`run_kernel_sequential`) walks the pair list cluster-by-cluster through
the actual cache/bitmap/SIMD objects.  Tests assert both paths agree on
forces, energies, and every cache counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.deferred import DeferredUpdateCache, WriteTraceStats
from repro.core.fetch import sequential_stream_lines, uncached_read_seconds
from repro.core.packing import Layout, PackedParticles
from repro.core.reduction import init_cost, reduce_copies, reduction_cost
from repro.core.shuffle import transpose_4x3
from repro.core.stepcache import (
    NullStepCache,
    StepCache,
    partition_clusters,
    write_trace_for_range,
)
from repro.hw.dma import transfer_seconds
from repro.hw.params import ChipParams, DEFAULT_PARAMS
from repro.hw.simd import FloatV4, OpCounter
from repro.md.nonbonded import NonbondedParams, pair_force_energy
from repro.md.pairlist import CLUSTER_SIZE, ClusterPairList
from repro.md.system import ParticleSystem
from repro.parallel.pool import (
    ExecutionBackend,
    as_input,
    shared_backend,
    shared_inputs,
)
from repro.trace.events import (
    CAT_COMPUTE,
    CAT_DMA,
    CAT_KERNEL,
    DMA_TRACK,
    MPE_TRACK,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
)

FORCE_PACKAGE_BYTES = 48  # 4 particles x 3 float32
#: Rough FLOPs of one LJ+RF particle-pair interaction (distance, cutoff,
#: r^-6/r^-12, force scalar, 3-component FMA accumulate) — only used to
#: annotate compute trace events for roofline analysis, never for timing.
FLOPS_PER_PAIR = 30.0


@dataclass(frozen=True)
class KernelSpec:
    """Feature switches defining one strategy."""

    name: str
    use_cpes: bool = True  # False: the whole kernel runs on the MPE
    packaged: bool = True  # False: fine-grained gld/gst per field (naive port)
    read_cache: bool = False
    write_cache: bool = False  # deferred update
    simd: bool = False
    mark: bool = False  # Bit-Map
    full_list: bool = False  # RCA redundant compute
    mpe_collect: bool = False  # USTC
    rma_copies: bool = True  # per-CPE force copies (init + reduction)

    def __post_init__(self) -> None:
        if self.mark and not self.write_cache:
            raise ValueError("mark requires the deferred-update write cache")
        if self.full_list and self.write_cache:
            raise ValueError("RCA updates only i-forces; no write cache needed")
        if self.mpe_collect and self.rma_copies:
            raise ValueError("USTC streams to the MPE; no per-CPE copies")

    @property
    def pipelined(self) -> bool:
        """Full pipelining arrives with the cache version (§3.1: 'fetch
        eight particle packages in pipeline')."""
        return self.read_cache


ORI = KernelSpec("ORI", use_cpes=False, rma_copies=False)
#: The naive CPE port nobody ships: Algorithm 1 verbatim with fine-grained
#: gld/gst per field — the starting point §3.1's packaging fixes.
GLD = KernelSpec("GLD", packaged=False)
PKG = KernelSpec("PKG")
CACHE = KernelSpec("CACHE", read_cache=True, write_cache=True)
VEC = KernelSpec("VEC", read_cache=True, write_cache=True, simd=True)
MARK = KernelSpec("MARK", read_cache=True, write_cache=True, simd=True, mark=True)
RMA = KernelSpec("RMA", read_cache=True, write_cache=True, simd=True)
RCA = KernelSpec(
    "RCA", read_cache=True, full_list=True, rma_copies=False
)
USTC = KernelSpec(
    "USTC", read_cache=True, mpe_collect=True, rma_copies=False
)

ALL_SPECS: dict[str, KernelSpec] = {
    s.name: s for s in (ORI, GLD, PKG, CACHE, VEC, MARK, RMA, RCA, USTC)
}


@dataclass
class KernelResult:
    """One kernel execution: functional output + modelled performance."""

    name: str
    forces: np.ndarray  # original particle order, float64
    energy: float
    elapsed_seconds: float
    breakdown: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)

    def speedup_over(self, other: "KernelResult") -> float:
        if self.elapsed_seconds <= 0:
            raise ValueError(f"non-positive elapsed time for {self.name}")
        if other.elapsed_seconds <= 0:
            raise ValueError(f"non-positive elapsed time for {other.name}")
        return other.elapsed_seconds / self.elapsed_seconds


#: Partitioning and the write-trace construction live in
#: `repro.core.stepcache` (they are pure list-topology functions the reuse
#: layer memoises); re-exported here for the established public API.
_write_trace_for_range = write_trace_for_range


def nblist_stream_seconds(
    pair_counts: np.ndarray, params: ChipParams
) -> float:
    """Modelled time for the CPEs to stream their neighbour-list slices.

    Each CPE DMAs its own contiguous run of 4 B cluster-pair entries —
    ``pair_counts[cpe] * 4`` bytes — in one large chunked transfer, so the
    achieved bandwidth is the Table 2 value *for that block size*, not the
    top-anchor peak.  (Charging every list at the 2048 B anchor made small
    systems' nblist DMA impossibly fast.)  Beyond the last anchor the
    curve is flat, so large systems still stream at peak.
    """
    return sum(
        transfer_seconds(int(c) * 4, params) for c in pair_counts if c > 0
    )


def _compute_cycles(spec: KernelSpec, n_cluster_pairs: int, params: ChipParams) -> float:
    """CPE cycles to evaluate ``n_cluster_pairs`` 4x4 tiles."""
    if spec.simd:
        # 4 SIMD bundles (one per i-lane) per tile.
        return n_cluster_pairs * 4.0 * params.cpe_simd_pair4_cycles
    return n_cluster_pairs * 16.0 * params.cpe_scalar_pair_cycles


def run_kernel(
    system: ParticleSystem,
    plist: ClusterPairList,
    nb_params: NonbondedParams,
    spec: KernelSpec,
    params: ChipParams = DEFAULT_PARAMS,
    check_ldm: bool = True,
    tracer: NullTracer = NULL_TRACER,
    cache: StepCache | NullStepCache | None = None,
) -> KernelResult:
    """Execute one strategy (fast path): vectorised functional forces +
    trace-driven cost model.

    The functional force evaluation runs the impl ``REPRO_KERNEL``
    selects (`repro.core.vectorized.compute_short_range_impl`).  Results
    are bit-identical either way — the cost model never sees the
    difference.  The per-CPE trace analyses come from the cache's
    whole-list `TraceCounts` and are summed here in CPE order.

    ``check_ldm`` plans the kernel's LDM layout up front and raises
    :class:`~repro.hw.ldm.LdmOverflowError` when the configured cache
    geometry cannot fit the 64 KB scratchpad — the failure a real athread
    launch would hit.  Disable only for hypothetical-geometry studies.

    ``cache`` is the step-reuse layer (DESIGN.md §8): the functional half
    of the kernel (forces, partitions, trace analysis) is routed
    through it, so rungs sharing a cache share one `compute_short_range`
    per (work list, positions) and all list-topology analysis.  With the
    default (a throwaway `StepCache`) every lookup is a miss and the
    result is bit-identical to the historical uncached path.

    With a recording ``tracer``, the kernel lays its modelled phases out
    on the timeline: per-CPE compute spans, the read/nblist/write DMA
    phases positioned per the pipeline-overlap model, init/reduction
    passes after the parallel region, and a whole-kernel span on the MPE
    track — so `repro.trace.analyze.measure_overlap` can recover the
    overlap fraction the scalar model assumed.
    """
    if check_ldm:
        from repro.core.ldm_plan import plan_kernel_ldm

        plan_kernel_ldm(spec, system.n_particles, params)
    if cache is None:
        cache = StepCache()
    work_list = cache.full_list(plist) if spec.full_list else plist
    sr = cache.short_range(system, work_list, nb_params, dtype=np.float32)
    m_pairs = work_list.n_cluster_pairs
    tile_pairs = 16 * m_pairs
    breakdown: dict[str, float] = {}
    stats: dict[str, float] = {
        "cluster_pairs": float(m_pairs),
        "tile_pairs": float(tile_pairs),
    }

    if not spec.use_cpes:
        mpe_seconds = tile_pairs * params.mpe_scalar_pair_cycles * params.cycle_s
        breakdown["compute"] = mpe_seconds
        if tracer.enabled:
            base = tracer.end_cycle()
            cycles = tile_pairs * params.mpe_scalar_pair_cycles
            tracer.span(
                "pair_compute", CAT_COMPUTE, MPE_TRACK, base, cycles,
                flops=tile_pairs * FLOPS_PER_PAIR,
            )
            tracer.span(
                f"kernel:{spec.name}", CAT_KERNEL, MPE_TRACK, base, cycles,
                cluster_pairs=m_pairs,
            )
        return KernelResult(
            name=spec.name,
            forces=sr.forces,
            energy=sr.energy,
            elapsed_seconds=mpe_seconds,
            breakdown=breakdown,
            stats=stats,
        )

    # ---- partition across CPEs -------------------------------------------
    parts = cache.partitions(work_list, params.n_cpes)
    counts = cache.trace_counts(work_list, params)
    pair_counts = counts.pairs
    crit_pairs = int(pair_counts.max()) if len(pair_counts) else 0
    stats["imbalance"] = (
        float(crit_pairs / pair_counts.mean()) if pair_counts.mean() > 0 else 1.0
    )

    compute_seconds = _compute_cycles(spec, crit_pairs, params) * params.cycle_s
    breakdown["compute"] = compute_seconds

    # ---- read path ---------------------------------------------------------
    n_i_clusters_total = sum(hi - lo for lo, hi in parts)
    read_seconds = 0.0
    read_bytes = 0
    read_misses = 0
    read_accesses = 0
    line_bytes = params.line_bytes
    if spec.read_cache:
        line_seconds = transfer_seconds(line_bytes, params)
        for misses, accesses in zip(*(a.tolist() for a in counts.read)):
            read_seconds += misses * line_seconds
            read_bytes += misses * line_bytes
            read_misses += misses
            read_accesses += accesses
        # i-cluster packages stream sequentially, one line per 8 packages.
        # Each CPE streams its *own* contiguous cluster range, so the line
        # count ceils per partition (a global ceil undercounted up to
        # n_cpes - 1 boundary lines).
        i_lines = sum(
            sequential_stream_lines(lo, hi, params.packages_per_line)
            for lo, hi in parts
        )
        read_seconds += i_lines * transfer_seconds(line_bytes, params)
        read_bytes += i_lines * line_bytes
        stats["read_miss_ratio"] = read_misses / max(read_accesses, 1)
        stats["i_lines"] = float(i_lines)
    elif not spec.packaged:
        # Naive port: every field of every j particle is a separate gld
        # (position x/y/z, type, charge, and the force read-modify-write
        # pair counted under writes below).  gld stalls cannot be hidden.
        n_gld = 16 * m_pairs * 5
        read_seconds += (
            n_gld / params.n_cpes * params.gld_latency_cycles * params.cycle_s
        )
        read_bytes += n_gld * 4
        stats["read_miss_ratio"] = 1.0
        stats["n_gld"] = float(n_gld)
    else:
        # Pkg rung: no LDM cache, so the inner loop re-fetches the j
        # package for every i-particle row of the 4x4 tile (the redundancy
        # the Fig. 3 read cache eliminates), plus the i packages.
        n_reads = CLUSTER_SIZE * m_pairs + n_i_clusters_total
        read_seconds += uncached_read_seconds(
            n_reads, params.package_bytes, params
        )
        read_bytes += n_reads * params.package_bytes
        stats["read_miss_ratio"] = 1.0
    breakdown["read_dma"] = read_seconds

    # Neighbour-list entries stream in per-CPE chunks through Table 2.
    nblist_bytes = m_pairs * 4
    nblist_seconds = nblist_stream_seconds(pair_counts, params)
    breakdown["nblist_dma"] = nblist_seconds

    # ---- write path ----------------------------------------------------------
    write_seconds = 0.0
    write_bytes = 0
    touched_lines_per_cpe: list[int] = []
    write_misses = 0
    write_accesses = 0
    if spec.write_cache:
        for misses, accesses, lines in zip(*(a.tolist() for a in counts.write)):
            wstats = WriteTraceStats.from_counts(
                accesses, misses, lines, params, use_mark=spec.mark
            )
            write_seconds += wstats.seconds(params)
            write_bytes += wstats.bytes_moved
            write_misses += misses
            write_accesses += accesses
            touched_lines_per_cpe.append(lines)
        stats["write_miss_ratio"] = write_misses / max(write_accesses, 1)
    elif spec.full_list:
        # RCA: each CPE owns its i-clusters outright; accumulate FA in LDM
        # and write each i-force package once.  No conflicts, no copies.
        write_seconds = n_i_clusters_total * transfer_seconds(
            FORCE_PACKAGE_BYTES, params
        )
        write_bytes = n_i_clusters_total * FORCE_PACKAGE_BYTES
    elif spec.mpe_collect:
        # USTC: CPEs push per-tile j contributions to the MPE's queue.
        write_seconds = m_pairs * transfer_seconds(FORCE_PACKAGE_BYTES, params)
        write_bytes = m_pairs * FORCE_PACKAGE_BYTES
    elif not spec.packaged:
        # Naive port: per-pair force update = 3 gld + 3 gst per particle
        # pair (Algorithm 1 line 9), serialised on the issuing CPE.
        n_ops = 16 * m_pairs * 3
        write_seconds = (
            n_ops
            / params.n_cpes
            * (params.gld_latency_cycles + params.gst_latency_cycles)
            * params.cycle_s
        )
        write_bytes = n_ops * 2 * 4  # one 4 B load + one 4 B store per op
        touched_lines_per_cpe = counts.write[2].tolist()
    else:
        # Pkg rung: without the deferred-update cache, each i-row of the
        # tile read-modify-writes the j force package in the CPE's main
        # memory copy (Algorithm 1 line 9), plus one i-force package per
        # i-cluster.
        n_writes = 2 * CLUSTER_SIZE * m_pairs + n_i_clusters_total
        write_seconds = n_writes * transfer_seconds(FORCE_PACKAGE_BYTES, params)
        write_bytes = n_writes * FORCE_PACKAGE_BYTES
        touched_lines_per_cpe = counts.write[2].tolist()
    breakdown["write_dma"] = write_seconds
    # Byte totals per DMA phase: the resilience layer replays this
    # traffic through a fault-injecting DmaEngine to charge retry
    # overhead at the same Table 2 block sizes.
    stats["read_bytes"] = float(read_bytes)
    stats["write_bytes"] = float(write_bytes)
    stats["nblist_bytes"] = float(nblist_bytes)

    # ---- parallel region under the pipeline model ---------------------------
    dma_seconds = read_seconds + write_seconds + nblist_seconds
    if spec.pipelined:
        hidden = params.pipeline_overlap * min(compute_seconds, dma_seconds)
        parallel = compute_seconds + dma_seconds - hidden
    else:
        parallel = compute_seconds + dma_seconds
    stats["dma_seconds"] = dma_seconds

    # ---- timeline emission (parallel region) --------------------------------
    traced = tracer.enabled
    base = tracer.end_cycle() if traced else 0.0
    if traced:
        hz = params.clock_hz
        for cpe in range(len(parts)):
            pairs = int(pair_counts[cpe])
            if pairs == 0:
                continue
            tracer.span(
                "pair_compute", CAT_COMPUTE, cpe, base,
                _compute_cycles(spec, pairs, params),
                cluster_pairs=pairs, flops=16 * pairs * FLOPS_PER_PAIR,
            )
        # DMA phases end exactly at the close of the parallel region, so
        # the realised overlap equals the scalar the model assumed.
        t = base + (parallel - dma_seconds) * hz
        for phase, secs, nbytes in (
            ("read_dma", read_seconds, read_bytes),
            ("nblist_dma", nblist_seconds, nblist_bytes),
            ("write_dma", write_seconds, write_bytes),
        ):
            if secs > 0.0:
                tracer.span(
                    phase, CAT_DMA, DMA_TRACK, t, secs * hz, bytes=int(nbytes)
                )
                t += secs * hz
        # Serial passes (init/reduction) start after the parallel region
        # even when the DMA phases were fully hidden.
        lag = base + parallel * hz - tracer.cursor(DMA_TRACK)
        if lag > 0.0:
            tracer.advance(DMA_TRACK, lag)

    # ---- init + reduction -------------------------------------------------
    init_seconds = 0.0
    red_seconds = 0.0
    if spec.rma_copies:
        n_slots = work_list.n_slots
        if not spec.mark:
            init_seconds = init_cost(
                params.n_cpes, n_slots, params, tracer=tracer
            ).seconds
        red = reduction_cost(
            touched_lines_per_cpe
            if spec.mark
            else [0] * params.n_cpes,  # ignored when marked=False
            n_slots,
            params,
            marked=spec.mark,
            tracer=tracer,
        )
        red_seconds = red.seconds
    breakdown["init"] = init_seconds
    breakdown["reduction"] = red_seconds

    # ---- MPE side (USTC) ----------------------------------------------------
    mpe_seconds = 0.0
    if spec.mpe_collect:
        n_updates = 4 * m_pairs + 4 * n_i_clusters_total
        mpe_seconds = (
            n_updates * params.mpe_collect_cycles_per_particle * params.cycle_s
        )
        if traced and mpe_seconds > 0.0:
            tracer.span(
                "mpe_collect", CAT_COMPUTE, MPE_TRACK, base,
                mpe_seconds * params.clock_hz, n_updates=n_updates,
            )
    breakdown["mpe_collect"] = mpe_seconds

    # ---- combine ------------------------------------------------------------
    if spec.mpe_collect:
        # Producer-consumer pipeline: the slower side dominates.
        elapsed = max(parallel, mpe_seconds) + init_seconds + red_seconds
    else:
        elapsed = parallel + init_seconds + red_seconds
    if traced:
        tracer.span(
            f"kernel:{spec.name}", CAT_KERNEL, MPE_TRACK, base,
            elapsed * params.clock_hz,
            cluster_pairs=m_pairs, dma_seconds=dma_seconds,
            compute_seconds=compute_seconds,
        )
    return KernelResult(
        name=spec.name,
        forces=sr.forces,
        energy=sr.energy,
        elapsed_seconds=elapsed,
        breakdown=breakdown,
        stats=stats,
    )


def run_strategy_sweep(
    system: ParticleSystem,
    plist: ClusterPairList,
    nb_params: NonbondedParams,
    specs: list[KernelSpec | str],
    params: ChipParams = DEFAULT_PARAMS,
    check_ldm: bool = True,
    tracer: NullTracer = NULL_TRACER,
    cache: StepCache | NullStepCache | None = None,
) -> dict[str, KernelResult]:
    """Evaluate many strategy rungs against ONE ``(system state, pair
    list)`` — the one-pass ablation API used by bench_fig8/fig9, the
    engine, and the CLI.

    All rungs share a single :class:`~repro.core.stepcache.StepCache`, so
    the functional forces are computed exactly once per work list (the
    half list, plus the mirrored full list iff an RCA-style spec is in the
    sweep) and every trace analysis is memoised.  Results are
    bit-identical to calling :func:`run_kernel` individually per spec
    (test-enforced).

    ``specs`` accepts :class:`KernelSpec` objects or names from
    :data:`ALL_SPECS`; the returned dict is keyed by spec name in input
    order.  Pass an explicit ``cache`` to extend sharing across calls
    (e.g. across steps of a pair-list interval); the caller then owns
    invalidation.
    """
    if cache is None:
        cache = StepCache()
    resolved = [ALL_SPECS[s] if isinstance(s, str) else s for s in specs]
    return {
        spec.name: run_kernel(
            system,
            plist,
            nb_params,
            spec,
            params,
            check_ldm=check_ldm,
            tracer=tracer,
            cache=cache,
        )
        for spec in resolved
    }


# ---------------------------------------------------------------------------
# Fidelity path: sequential execution through the real cache objects.
# ---------------------------------------------------------------------------


@dataclass
class _FidelityTask:
    """One CPE's share of the fidelity walk.

    Picklable work unit for `repro.parallel.pool` backends: the large
    read-only inputs (positions, charges, LJ tables, ...) arrive as
    `SharedArray` handles under the pool backend and as plain arrays
    under the serial one — `as_input` resolves either.  The pair-list
    slice is partition-local (``i_starts`` rebased to the slice).
    """

    cpe: int
    lo: int
    hi: int
    pair_cj: np.ndarray  # this partition's j-cluster entries
    i_starts: np.ndarray  # local prefix: pairs of cluster lo+k at [k, k+1)
    positions: object
    charges: object
    types: object
    mols: object
    real: object
    c6_table: object
    c12_table: object
    box: np.ndarray
    half: bool
    spec: KernelSpec
    nb_params: NonbondedParams
    params: ChipParams
    padded_slots: int
    traced: bool
    impl: str = "scalar"


@dataclass
class _FidelityResult:
    """What one CPE's walk produces; merged in CPE-id order by the parent."""

    cpe: int
    copy: np.ndarray  # this CPE's force copy (padded_slots x 3 float32)
    mark: object | None  # LineMarkBitmap when the spec uses Bit-Map marks
    energy: float  # float64 partial, term order = walk order
    write_misses: int
    write_puts: int
    write_gets: int
    write_first_touches: int
    shuffles: int
    events: list[TraceEvent]


def _walk_fidelity_partition(task: _FidelityTask) -> _FidelityResult:
    """Walk one CPE partition through the real cache/bitmap/SIMD objects.

    Pure function of the task (no globals, no RNG), so serial and pool
    backends produce bit-identical results by construction.
    """
    spec, params, nb_params = task.spec, task.params, task.nb_params
    pos = as_input(task.positions)
    q = as_input(task.charges)
    types = as_input(task.types)
    mols = as_input(task.mols)
    real = as_input(task.real)
    c6_tab = as_input(task.c6_table)
    c12_tab = as_input(task.c12_table)
    box_arr = task.box

    copy = np.zeros((task.padded_slots, 3), dtype=np.float32)
    cache = DeferredUpdateCache(copy, params, use_mark=spec.mark)
    ops = OpCounter()
    energy = 0.0
    for k in range(task.hi - task.lo):
        ci = task.lo + k
        fi_acc = np.zeros((CLUSTER_SIZE, 3), dtype=np.float32)
        i_sl = slice(ci * CLUSTER_SIZE, (ci + 1) * CLUSTER_SIZE)
        for cj in task.pair_cj[task.i_starts[k] : task.i_starts[k + 1]]:
            cj = int(cj)
            j_sl = slice(cj * CLUSTER_SIZE, (cj + 1) * CLUSTER_SIZE)
            dr = pos[i_sl][:, None, :] - pos[j_sl][None, :, :]
            dr = dr - box_arr * np.round(dr / box_arr)
            r2 = np.sum(dr * dr, axis=-1)
            valid = (
                real[i_sl][:, None]
                & real[j_sl][None, :]
                & (mols[i_sl][:, None] != mols[j_sl][None, :])
            )
            if ci == cj:
                lane = np.arange(CLUSTER_SIZE)
                if task.half:
                    valid &= lane[:, None] < lane[None, :]
                else:
                    valid &= lane[:, None] != lane[None, :]
            qq = q[i_sl][:, None] * q[j_sl][None, :]
            c6 = c6_tab[types[i_sl][:, None], types[j_sl][None, :]]
            c12 = c12_tab[types[i_sl][:, None], types[j_sl][None, :]]
            f_scalar, e = pair_force_energy(
                r2, qq, c6, c12, nb_params, mask=valid
            )
            energy += float(e.sum(dtype=np.float64))
            fvec = f_scalar[..., None] * dr
            if spec.simd:
                # Exercise the Fig. 7 post-treatment on the i-side sums
                # (functionally identity; counts the 6 shuffles).
                fsum = fvec.sum(axis=1)
                fx = FloatV4(fsum[:, 0], ops)
                fy = FloatV4(fsum[:, 1], ops)
                fz = FloatV4(fsum[:, 2], ops)
                o0, o1, o2 = transpose_4x3(fx, fy, fz, ops)
                interleaved = np.concatenate([o0.lanes, o1.lanes, o2.lanes])
                fi_acc += interleaved.reshape(CLUSTER_SIZE, 3)
            else:
                fi_acc += fvec.sum(axis=1)
            if task.half:
                cache.accumulate_package(cj, -fvec.sum(axis=0))
        cache.accumulate_package(ci, fi_acc)
    cache.flush()

    events: list[TraceEvent] = []
    if task.traced:
        n_pairs = int(task.i_starts[-1])
        events.append(
            TraceEvent(
                "fidelity_walk",
                CAT_COMPUTE,
                task.cpe,
                0.0,
                _compute_cycles(spec, n_pairs, params),
                {"cluster_pairs": n_pairs},
            )
        )
    return _FidelityResult(
        cpe=task.cpe,
        copy=copy,
        mark=cache.mark if spec.mark else None,
        energy=energy,
        write_misses=cache.stats.misses,
        write_puts=cache.stats.puts,
        write_gets=cache.stats.gets,
        write_first_touches=cache.stats.first_touches,
        shuffles=ops.shuffle,
        events=events,
    )


def _walk_fidelity(task: _FidelityTask) -> _FidelityResult:
    """Backend entry point: dispatch one partition to the selected impl.

    Module-level (picklable) so pool workers can receive it; the impl
    name travels inside the task, keeping the map call uniform.
    """
    if task.impl == "vectorized":
        from repro.core.vectorized import walk_fidelity_partition_vectorized

        return walk_fidelity_partition_vectorized(task)
    return _walk_fidelity_partition(task)


def run_kernel_sequential(
    system: ParticleSystem,
    plist: ClusterPairList,
    nb_params: NonbondedParams,
    spec: KernelSpec,
    params: ChipParams = DEFAULT_PARAMS,
    n_cpes: int | None = None,
    tracer: NullTracer = NULL_TRACER,
    backend: str | ExecutionBackend | None = None,
) -> KernelResult:
    """Walk the pair list cluster-by-cluster through the actual
    DeferredUpdateCache / bitmap / SIMD machinery.

    Slow (Python per cluster pair) — use small systems, or spread the
    per-CPE partitions over real cores with ``backend="pool"`` (this is
    the simulator's hottest Python loop and its partitions are fully
    independent).  Merging is deterministic — copies, marks, counters,
    energy partials, and trace events join in CPE-id order — so every
    output is bit-identical between backends (test-enforced).  ``backend``
    accepts a name, an `ExecutionBackend`, or None for
    ``REPRO_BACKEND``-or-serial.

    Only the cached strategies (CACHE/VEC/MARK/RMA) are meaningful here;
    others fall back to `run_kernel`.  Returns the same counters the fast
    path derives from trace analysis, letting tests pin the two together.

    The walk runs the impl ``REPRO_KERNEL`` selects (``"vectorized"``,
    the batched replay in `repro.core.vectorized`, or ``"scalar"``, the
    reference loop), resolved once here and carried in each task so
    pool workers need no environment.  Both produce identical results;
    only speed differs.
    """
    from repro.core.vectorized import resolve_kernel_impl

    backend = shared_backend(backend)
    if not (spec.write_cache and spec.use_cpes):
        return run_kernel(system, plist, nb_params, spec, params, tracer=tracer)
    impl = resolve_kernel_impl()
    n_cpes = n_cpes or params.n_cpes
    work_list = plist.to_full() if spec.full_list else plist
    packed = PackedParticles.from_pairlist(system, plist, Layout.AOS, params)
    parts = partition_clusters(work_list, n_cpes)

    n_slots = work_list.n_slots
    ppl = params.particles_per_line
    padded_slots = -(-n_slots // ppl) * ppl
    box_arr = work_list.box.array.astype(np.float32)

    with shared_inputs(
        backend,
        positions=packed.positions,
        charges=packed.charges,
        types=packed.types.astype(np.int64),
        mols=packed.mols.astype(np.int64),
        real=work_list.real,
        c6_table=system.topology.c6_table.astype(np.float32),
        c12_table=system.topology.c12_table.astype(np.float32),
    ) as shared:
        tasks = []
        for cpe, (lo, hi) in enumerate(parts):
            s, e = int(work_list.i_starts[lo]), int(work_list.i_starts[hi])
            tasks.append(
                _FidelityTask(
                    cpe=cpe,
                    lo=lo,
                    hi=hi,
                    pair_cj=work_list.pair_cj[s:e],
                    i_starts=(
                        work_list.i_starts[lo : hi + 1] - s
                    ).astype(np.int64),
                    box=box_arr,
                    half=work_list.half,
                    spec=spec,
                    nb_params=nb_params,
                    params=params,
                    padded_slots=padded_slots,
                    traced=tracer.enabled,
                    impl=impl,
                    **shared,
                )
            )
        # One fidelity walk per CPE is the canonical small-task fan:
        # coalesce them into one submission per worker when the backend
        # supports batched IPC (results stay in task order either way).
        mapper = getattr(backend, "map_batched", backend.map)
        walks = mapper(_walk_fidelity, tasks)

    # ---- deterministic CPE-id-ordered merge --------------------------------
    copies = [w.copy for w in walks]
    marks = [w.mark for w in walks] if spec.mark else None
    energy = 0.0
    for w in walks:  # partials summed in CPE order
        energy += w.energy
    if tracer.enabled:
        for w in walks:
            tracer.absorb(w.events)
    total_sorted = reduce_copies(copies, marks, ppl)[:n_slots]
    forces = np.zeros((system.n_particles, 3), dtype=np.float64)
    work_list.scatter_add(forces, total_sorted)
    if not work_list.half:
        energy *= 0.5

    write_cache_stats = {
        "write_misses": float(sum(w.write_misses for w in walks)),
        "write_puts": float(sum(w.write_puts for w in walks)),
        "write_gets": float(sum(w.write_gets for w in walks)),
        "write_first_touches": float(
            sum(w.write_first_touches for w in walks)
        ),
        "simd_shuffles": float(sum(w.shuffles for w in walks)),
    }
    # Borrow the fast path's modelled timing/breakdown WITHOUT its tracer
    # instrumentation: passing the live tracer here used to re-emit every
    # kernel span on top of the fidelity events above, so Chrome traces
    # showed each kernel twice.
    fast = run_kernel(system, plist, nb_params, spec, params)
    return KernelResult(
        name=spec.name + "(seq)",
        forces=forces,
        energy=energy,
        elapsed_seconds=fast.elapsed_seconds,
        breakdown=fast.breakdown,
        stats={**fast.stats, **write_cache_stats},
    )
