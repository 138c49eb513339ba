"""Pairlist-interval compute reuse: the step cache (DESIGN.md §8).

GROMACS' Verlet scheme owes most of its speed to *reuse across the
pair-list interval*: the list is rebuilt every ``nstlist`` steps, and
everything derivable from list topology alone is computed once per
rebuild, not once per step (Páll et al. 2015, 2020).  This module gives
the reproduction the same lever, at two scopes:

* **list-state scope** (valid while positions are unchanged): the
  functional short-range result (`ShortRangeResult`).  Every strategy
  kernel in `repro.core.kernels` computes identical physics — only the
  cost model differs — so a Fig. 8/9 ablation sweep over N rungs needs
  ONE `compute_short_range` evaluation per list state, not N.  Entries
  are keyed on a position fingerprint (BLAKE2 over the raw coordinate
  bytes), so any position change is a guaranteed miss — reuse can never
  alter the physics, which keeps the repo's bit-identity invariant.
* **list-topology scope** (valid until the list is rebuilt): the
  mirrored full list, per-CPE partitions, and one :class:`TraceCounts`
  per chip params: every CPE's pair count and its read and write
  cache-trace counts, each kind from one segmented pass over the whole
  list.  These depend only on the cluster-pair structure,
  never on positions, so steps ``2..nstlist`` of each interval skip
  trace analysis entirely.

Ownership (DESIGN.md §8, tested in ``tests/core/test_stepcache.py``):
everything derived from one pair list — both scopes above plus the
vectorized kernel's lane panels — lives in that list's
:class:`ListMemo`, and the cache keeps every memo until
:meth:`StepCache.invalidate`.  `SWGromacsEngine` and `MdLoop` invalidate
before every pair-list build and on checkpoint :meth:`restore`; the
resident serve tier invalidates on eviction, dropping the cache with
the entry.  Invalidation keeps one thing of the dead lists: their
kept-lane buffer sets go into the cache's *pool*, where the next list's
first evaluation borrows one for its outputs and its fill takes one, so
a rebuild does not fault in fresh buffers
(`repro.core.vectorized.retire_panels`).  Buffers enter the pool only
there, when no list is alive, so two live lists never share one.
:meth:`StepCache.release_panels` drops the lane panels and the pool.
Position-keyed entries keep only the *latest* fingerprint per key, so a
long MD run cannot grow a memo.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.hw.cache import (
    AddressMap,
    segment_distinct_lines,
    segment_misses_direct_mapped,
)
from repro.hw.params import ChipParams
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


class TraceCounts:
    """Per-CPE cache-trace counts of one pair list under one chip
    geometry, CPE ``c`` owning i-clusters ``parts[c]``.

    Each kind is one segmented pass over the whole list, computed when
    first read: the CPEs' traces, laid end to end, are one whole-list
    trace, and `repro.hw.cache`'s segment counters give each CPE's count
    exactly as a call on its own trace would (`run_kernel` sums them in
    CPE order).  int64 arrays, one entry per CPE.
    """

    def __init__(
        self, plist: ClusterPairList, parts: list[tuple[int, int]], params: ChipParams
    ) -> None:
        self._plist = plist
        self._amap = AddressMap(params.index_bits, params.offset_bits)
        starts = plist.i_starts[[lo for lo, _ in parts] + [parts[-1][1]]]
        #: Cluster pairs per CPE: its j-package trace's length.
        self.pairs = np.diff(starts)
        #: i-clusters per CPE.
        self.clusters = np.array([hi - lo for lo, hi in parts], dtype=np.int64)

    @cached_property
    def read(self) -> tuple[np.ndarray, np.ndarray]:
        """``(misses, accesses)`` of each CPE's j-package trace
        (its slice of ``pair_cj``) through the direct-mapped read
        cache."""
        trace = self._plist.pair_cj
        return (
            segment_misses_direct_mapped(trace, self.pairs, self._amap),
            self.pairs,
        )

    @cached_property
    def write(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(misses, accesses, lines)`` of each CPE's force-update
        trace (`write_trace_for_range`): direct-mapped misses, length
        and distinct lines touched."""
        plist = self._plist
        trace = write_trace_for_range(plist, 0, plist.n_clusters)
        lengths = self.pairs + self.clusters
        return (
            segment_misses_direct_mapped(trace, lengths, self._amap),
            lengths,
            segment_distinct_lines(trace, lengths, self._amap),
        )


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
    #: (`repro.core.vectorized`), filled by the kernel itself, which
    #: also finds the owner's buffer pool here.
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
        #: Kept-lane buffer sets of dead lists (`retire_panels`), shared
        #: with every memo's panels.
        self._pool: dict = {}
        self.stats = StepCacheStats()

    # -- lifecycle ---------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every memo (pair-list rebuild, checkpoint restore or
        resident eviction), pooling their kept-lane buffers."""
        from repro.core.vectorized import retire_panels

        for memo in self._memos.values():
            retire_panels(memo.panels, self._pool)
        self._memos.clear()
        self.stats.invalidations += 1

    def release_panels(self) -> None:
        """Drop the lane panels of every memo and the buffer pool, and
        keep all other entries — for owners whose positions never
        change, where the cached short-range result answers every later
        call."""
        self._pool.clear()
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
        from repro.core.vectorized import POOL, compute_short_range_impl

        memo = self._memo(plist)
        key = ("sr", np.dtype(dtype).str, nb_params)
        fp = position_fingerprint(system.positions)
        hit = memo.state.get(key)
        if hit is not None and hit[0] == fp:
            self.stats.sr_hits += 1
            return hit[1]
        memo.panels.setdefault(POOL, self._pool)
        sr = compute_short_range_impl(
            system, plist, nb_params, dtype=dtype, panels=memo.panels
        )
        memo.state[key] = (fp, sr)
        self.stats.sr_evals += 1
        return sr

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

    def trace_counts(
        self, plist: ClusterPairList, params: ChipParams
    ) -> TraceCounts:
        """The list's per-CPE cache-trace counts under ``params`` (its
        geometry and CPE count)."""
        return self._topo_get(
            plist,
            ("counts", params),
            lambda: TraceCounts(
                plist, self.partitions(plist, params.n_cpes), params
            ),
        )


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

    def full_list(self, plist):
        return plist.to_full()

    def partitions(self, plist, n_cpes):
        return partition_clusters(plist, n_cpes)

    def trace_counts(self, plist, params):
        return TraceCounts(plist, self.partitions(plist, params.n_cpes), params)
