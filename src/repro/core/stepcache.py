"""Pairlist-interval compute reuse: the step cache (DESIGN.md §8).

GROMACS' Verlet scheme owes most of its speed to *reuse across the
pair-list interval*: the list is rebuilt every ``nstlist`` steps, and
everything derivable from list topology alone is computed once per
rebuild, not once per step (Páll et al. 2015, 2020).  This module gives
the reproduction the same lever, at two scopes:

* **list-state scope** (valid while positions are unchanged): the
  functional short-range result (`ShortRangeResult`) and the packed
  particle arrays (`PackedParticles`).  Every strategy kernel in
  `repro.core.kernels` computes identical physics — only the cost model
  differs — so a Fig. 8/9 ablation sweep over N rungs needs ONE
  `compute_short_range` evaluation per list state, not N.  Entries are
  keyed on a position fingerprint (BLAKE2 over the raw coordinate
  bytes), so any position change is a guaranteed miss — reuse can never
  alter the physics, which keeps the repo's bit-identity invariant.
* **list-topology scope** (valid until the list is rebuilt): per-CPE
  partitions, write traces, read/write trace-analysis statistics, and
  touched-line counts.  These depend only on the cluster-pair structure,
  never on positions, so steps ``2..nstlist`` of each interval skip
  trace analysis entirely.

Ownership (DESIGN.md §8, tested in ``tests/core/test_stepcache.py``):
everything derived from one pair list — both scopes above plus the
vectorized kernel's lane panels — lives in that list's
:class:`ListMemo`, and the cache keeps every memo until
:meth:`StepCache.invalidate`.  `SWGromacsEngine` and `MdLoop` invalidate
before every pair-list build and on checkpoint :meth:`restore`; the
resident serve tier invalidates on eviction.
:meth:`StepCache.release_panels` drops only the lane panels.
Position-keyed entries keep only the *latest* fingerprint per key, so a
long MD run cannot grow a memo.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.deferred import WriteTraceStats, analyze_write_trace
from repro.core.fetch import ReadTraceStats, analyze_read_trace
from repro.core.packing import Layout, PackedParticles
from repro.hw.cache import AddressMap
from repro.hw.params import ChipParams, DEFAULT_PARAMS
from repro.md.forces import ShortRangeResult
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import ClusterPairList
from repro.md.system import ParticleSystem


def partition_clusters(plist: ClusterPairList, n_cpes: int) -> list[tuple[int, int]]:
    """Split i-clusters into ``n_cpes`` contiguous ranges with ~equal
    cluster-pair counts (the paper partitions Algorithm 1's outer loop)."""
    if n_cpes < 1:
        raise ValueError(f"n_cpes must be >= 1: {n_cpes}")
    pair_prefix = plist.i_starts  # pairs before cluster c
    total = int(pair_prefix[-1])
    bounds = [0]
    for c in range(1, n_cpes):
        target = total * c // n_cpes
        bounds.append(int(np.searchsorted(pair_prefix, target)))
    bounds.append(plist.n_clusters)
    # Monotonicity can break on tiny systems; enforce it.
    for k in range(1, len(bounds)):
        bounds[k] = max(bounds[k], bounds[k - 1])
    return [(bounds[k], bounds[k + 1]) for k in range(n_cpes)]


def write_trace_for_range(
    plist: ClusterPairList, lo: int, hi: int
) -> np.ndarray:
    """Force-update trace for one CPE: per i-cluster, its j packages in
    pair order followed by the i package itself."""
    s, e = int(plist.i_starts[lo]), int(plist.i_starts[hi])
    js = plist.pair_cj[s:e].astype(np.int64)
    counts = (plist.i_starts[lo + 1 : hi + 1] - plist.i_starts[lo:hi]).astype(
        np.int64
    )
    insert_at = np.cumsum(counts)
    i_vals = np.arange(lo, hi, dtype=np.int64)
    return np.insert(js, insert_at, i_vals)


@dataclass(frozen=True)
class _PartitionStatsTask:
    """Picklable per-CPE trace-analysis work unit for the parallel backend.

    Carries the partition's trace *slices* (small, pair-list-sized) plus
    the scalar geometry facts the analyses need — never the particle
    arrays, which the analyses provably do not read.
    """

    lo: int
    hi: int
    params: ChipParams
    read_trace: np.ndarray | None  # j-package trace, None if read stats unneeded
    write_trace: np.ndarray | None  # force-update trace, None if unneeded
    data_line_bytes: int
    use_mark: bool
    want_write: bool
    want_touched: bool


def _partition_stats_job(
    task: _PartitionStatsTask,
) -> tuple[ReadTraceStats | None, WriteTraceStats | None, int | None]:
    """Run one CPE partition's trace analyses (pure; runs in any process)."""
    rstats = None
    if task.read_trace is not None:
        rstats = analyze_read_trace(
            task.read_trace, task.data_line_bytes, task.params
        )
    wstats = None
    if task.want_write:
        wstats = analyze_write_trace(
            task.write_trace, task.params, use_mark=task.use_mark
        )
    tlines = None
    if task.want_touched:
        amap = AddressMap(task.params.index_bits, task.params.offset_bits)
        tlines = int(len(np.unique(task.write_trace >> amap.offset_bits)))
    return rstats, wstats, tlines


def position_fingerprint(positions: np.ndarray) -> bytes:
    """Cheap, collision-safe fingerprint of a coordinate array.

    BLAKE2b over the raw bytes: ~1 GB/s, so negligible next to a force
    evaluation, and cryptographically collision-resistant — a stale hit
    on changed positions is not a realistic failure mode (unlike a
    sampled or checksum fingerprint).
    """
    arr = np.ascontiguousarray(positions)
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


@dataclass
class StepCacheStats:
    """Hit/miss counters, split by the expensive entry kinds."""

    sr_hits: int = 0
    sr_evals: int = 0  # actual compute_short_range executions
    packed_hits: int = 0
    packed_builds: int = 0
    topo_hits: int = 0
    topo_misses: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-able counter snapshot (pool workers report cache sharing
        back to the serving layer through this)."""
        return dict(vars(self))


@dataclass
class ListMemo:
    """Everything a :class:`StepCache` derives from one pair list."""

    #: The list itself: pinning it keeps its ``id()`` (the memo's key in
    #: the cache) unique for as long as the memo lives.
    plist: ClusterPairList
    #: Topology-keyed entries: (kind, ...) -> value.
    topo: dict = field(default_factory=dict)
    #: Position-keyed entries: (kind, ...) -> (fingerprint, value).  Only
    #: the latest fingerprint is retained per key, so a stepping run
    #: replaces entries instead of accumulating them.
    state: dict = field(default_factory=dict)
    #: Lane panels of the vectorized short-range kernel
    #: (`repro.core.vectorized`), filled by the kernel itself.
    panels: dict = field(default_factory=dict)


class StepCache:
    """Compute-reuse layer shared by strategy sweeps and the MD drivers.

    One instance serves one owner: the engine, the reference loop, a
    resident serve entry, or one `run_strategy_sweep` call.  All getters are
    memoising wrappers around the underlying pure functions; with a
    fresh cache every call is a miss, so results are bit-identical to
    the uncached path by construction.
    """

    def __init__(self) -> None:
        #: id(plist) -> that list's memo.
        self._memos: dict[int, ListMemo] = {}
        self.stats = StepCacheStats()

    # -- lifecycle ---------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every memo (pair-list rebuild, checkpoint restore or
        resident eviction)."""
        self._memos.clear()
        self.stats.invalidations += 1

    def release_panels(self) -> None:
        """Drop the lane panels of every memo and keep all other
        entries — for owners whose positions never change, where the
        cached short-range result answers every later call."""
        for memo in self._memos.values():
            memo.panels.clear()

    def _memo(self, plist: ClusterPairList) -> ListMemo:
        memo = self._memos.get(id(plist))
        if memo is None:
            memo = self._memos[id(plist)] = ListMemo(plist)
        return memo

    # -- internal memo helpers ---------------------------------------------
    def _topo_get(self, plist: ClusterPairList, key: tuple, compute):
        topo = self._memo(plist).topo
        hit = topo.get(key)
        if hit is None:
            hit = compute()
            topo[key] = hit
            self.stats.topo_misses += 1
        else:
            self.stats.topo_hits += 1
        return hit

    # -- list-state scope (position-fingerprinted) -------------------------
    def short_range(
        self,
        system: ParticleSystem,
        plist: ClusterPairList,
        nb_params: NonbondedParams,
        dtype: type = np.float64,
    ) -> ShortRangeResult:
        """One functional force evaluation per (pair list, dtype, positions).

        The returned object is shared between callers; nothing in the
        kernel/driver paths mutates it (tests enforce bit-identity of a
        shared vs. recomputed result).  The kernel impl stays out of the
        key: both impls give bit-identical results (DESIGN.md §13).
        """
        from repro.core.vectorized import compute_short_range_impl

        memo = self._memo(plist)
        key = ("sr", np.dtype(dtype).str, nb_params)
        fp = position_fingerprint(system.positions)
        hit = memo.state.get(key)
        if hit is not None and hit[0] == fp:
            self.stats.sr_hits += 1
            return hit[1]
        sr = compute_short_range_impl(
            system, plist, nb_params, dtype=dtype, panels=memo.panels
        )
        memo.state[key] = (fp, sr)
        self.stats.sr_evals += 1
        return sr

    def packed(
        self,
        system: ParticleSystem,
        plist: ClusterPairList,
        layout: Layout,
        params: ChipParams = DEFAULT_PARAMS,
    ) -> PackedParticles:
        """Packed particle arrays, shared across the rungs of a sweep."""
        state = self._memo(plist).state
        key = ("packed", layout, params)
        fp = position_fingerprint(system.positions)
        hit = state.get(key)
        if hit is not None and hit[0] == fp:
            self.stats.packed_hits += 1
            return hit[1]
        packed = PackedParticles.from_pairlist(system, plist, layout, params)
        state[key] = (fp, packed)
        self.stats.packed_builds += 1
        return packed

    # -- list-topology scope -----------------------------------------------
    def full_list(self, plist: ClusterPairList) -> ClusterPairList:
        """Memoised ``plist.to_full()`` (the RCA mirrored list)."""
        return self._topo_get(plist, ("full",), plist.to_full)

    def partitions(
        self, plist: ClusterPairList, n_cpes: int
    ) -> list[tuple[int, int]]:
        return self._topo_get(
            plist, ("parts", n_cpes), lambda: partition_clusters(plist, n_cpes)
        )

    def pair_counts(self, plist: ClusterPairList, n_cpes: int) -> np.ndarray:
        """Cluster-pair count per CPE for the cached partition."""

        def compute():
            parts = self.partitions(plist, n_cpes)
            return np.array(
                [int(plist.i_starts[hi] - plist.i_starts[lo]) for lo, hi in parts]
            )

        return self._topo_get(plist, ("pair_counts", n_cpes), compute)

    def write_trace(
        self, plist: ClusterPairList, lo: int, hi: int
    ) -> np.ndarray:
        return self._topo_get(
            plist, ("wtrace", lo, hi),
            lambda: write_trace_for_range(plist, lo, hi),
        )

    def write_trace_stats(
        self,
        plist: ClusterPairList,
        lo: int,
        hi: int,
        params: ChipParams,
        use_mark: bool,
    ) -> WriteTraceStats:
        return self._topo_get(
            plist,
            ("wstats", lo, hi, params, use_mark),
            lambda: analyze_write_trace(
                self.write_trace(plist, lo, hi), params, use_mark=use_mark
            ),
        )

    def read_trace_stats(
        self,
        plist: ClusterPairList,
        lo: int,
        hi: int,
        packed: PackedParticles,
        params: ChipParams,
    ) -> ReadTraceStats:
        # The analysis uses only the trace, the cache geometry, and the
        # packed line size — all topology/params facts, never positions.
        key = ("rstats", lo, hi, params, packed.data_line_bytes)

        def compute():
            s, e = int(plist.i_starts[lo]), int(plist.i_starts[hi])
            trace = plist.pair_cj[s:e].astype(np.int64)
            return analyze_read_trace(trace, packed, params)

        return self._topo_get(plist, key, compute)

    def touched_lines(
        self, plist: ClusterPairList, lo: int, hi: int, params: ChipParams
    ) -> int:
        """Distinct force-cache lines one CPE's write trace touches."""

        def compute():
            amap = AddressMap(params.index_bits, params.offset_bits)
            trace = self.write_trace(plist, lo, hi)
            return int(len(np.unique(trace >> amap.offset_bits)))

        return self._topo_get(
            plist, ("tlines", lo, hi, params.offset_bits), compute
        )

    # -- parallel priming ---------------------------------------------------
    def prime_partition_stats(
        self,
        plist: ClusterPairList,
        n_cpes: int,
        packed: PackedParticles,
        params: ChipParams,
        *,
        read: bool,
        write: bool,
        use_mark: bool,
        touched: bool,
        backend,
    ) -> None:
        """Fan the per-CPE trace analyses across a parallel backend.

        Computes exactly the entries the subsequent `run_kernel` loop
        would compute serially — read-trace stats, write-trace stats,
        touched-line counts per partition — and stores them under the
        same list-memo keys, so the serial getters then hit.  Values are
        bit-identical by construction: the workers run the same pure
        functions on the same trace slices, and results are stored in
        partition order.  Serial or already-cached entries make this a
        no-op; only missing analyses are shipped.

        (Counter note: primed entries count as `topo_misses` here and as
        `topo_hits` at the getter, so hit counts differ from a serial run
        even though every cached *value* is identical.)
        """
        if not getattr(backend, "parallel", False):
            return
        if not (read or write or touched):
            return
        parts = self.partitions(plist, n_cpes)
        topo = self._memo(plist).topo
        tasks: list[_PartitionStatsTask] = []
        keys: list[tuple[tuple | None, tuple | None, tuple | None]] = []
        for lo, hi in parts:
            rkey = ("rstats", lo, hi, params, packed.data_line_bytes)
            wkey = ("wstats", lo, hi, params, use_mark)
            tkey = ("tlines", lo, hi, params.offset_bits)
            want_r = read and rkey not in topo
            want_w = write and wkey not in topo
            want_t = touched and tkey not in topo
            if not (want_r or want_w or want_t):
                continue
            rtrace = None
            if want_r:
                s, e = int(plist.i_starts[lo]), int(plist.i_starts[hi])
                rtrace = plist.pair_cj[s:e].astype(np.int64)
            wtrace = (
                self.write_trace(plist, lo, hi) if (want_w or want_t) else None
            )
            tasks.append(
                _PartitionStatsTask(
                    lo=lo,
                    hi=hi,
                    params=params,
                    read_trace=rtrace,
                    write_trace=wtrace,
                    data_line_bytes=packed.data_line_bytes,
                    use_mark=use_mark,
                    want_write=want_w,
                    want_touched=want_t,
                )
            )
            keys.append(
                (
                    rkey if want_r else None,
                    wkey if want_w else None,
                    tkey if want_t else None,
                )
            )
        if not tasks:
            return
        # Per-partition analyses are many small tasks: one coalesced
        # submission per worker (map_batched) instead of one pickle
        # round trip per partition.
        mapper = getattr(backend, "map_batched", backend.map)
        for (rkey, wkey, tkey), (rstats, wstats, tlines) in zip(
            keys, mapper(_partition_stats_job, tasks)
        ):
            for key, value in ((rkey, rstats), (wkey, wstats), (tkey, tlines)):
                if key is not None:
                    topo[key] = value
                    self.stats.topo_misses += 1


@dataclass
class _NullStats:
    """Placeholder so ``reuse off`` paths can still report counters."""

    sr_evals: int = 0
    sr_hits: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class NullStepCache:
    """Reuse-off stand-in: every getter recomputes (ablation baseline).

    Assigned to an engine's or `MdLoop`'s ``stepcache`` (or passed as
    ``cache=`` to `run_kernel`) it disables all sharing, lane panels
    included — the bit-identity tests run both and compare.
    """

    stats: _NullStats = field(default_factory=_NullStats)

    def invalidate(self) -> None:
        self.stats.invalidations += 1

    def short_range(self, system, plist, nb_params, dtype=np.float64):
        from repro.core.vectorized import compute_short_range_impl

        self.stats.sr_evals += 1
        return compute_short_range_impl(system, plist, nb_params, dtype=dtype)

    def packed(self, system, plist, layout, params=DEFAULT_PARAMS):
        return PackedParticles.from_pairlist(system, plist, layout, params)

    def full_list(self, plist):
        return plist.to_full()

    def partitions(self, plist, n_cpes):
        return partition_clusters(plist, n_cpes)

    def pair_counts(self, plist, n_cpes):
        return np.array(
            [
                int(plist.i_starts[hi] - plist.i_starts[lo])
                for lo, hi in self.partitions(plist, n_cpes)
            ]
        )

    def write_trace(self, plist, lo, hi):
        return write_trace_for_range(plist, lo, hi)

    def write_trace_stats(self, plist, lo, hi, params, use_mark):
        return analyze_write_trace(
            self.write_trace(plist, lo, hi), params, use_mark=use_mark
        )

    def read_trace_stats(self, plist, lo, hi, packed, params):
        s, e = int(plist.i_starts[lo]), int(plist.i_starts[hi])
        return analyze_read_trace(
            plist.pair_cj[s:e].astype(np.int64), packed, params
        )

    def touched_lines(self, plist, lo, hi, params):
        amap = AddressMap(params.index_bits, params.offset_bits)
        return int(
            len(np.unique(self.write_trace(plist, lo, hi) >> amap.offset_bits))
        )

    def prime_partition_stats(self, *args, **kwargs) -> None:
        """Reuse off: nothing to prime (getters always recompute)."""
