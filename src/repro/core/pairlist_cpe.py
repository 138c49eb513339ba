"""Pair-list generation on CPEs (the paper's §3.5).

Two pieces:

1. **Parallel generation.**  Different CPEs build the neighbour lists of
   different i-clusters into per-CPE scratch areas in main memory (the
   start index of a CPE's first list is unknowable up front), and the MPE
   gathers them into the final CSR pair list, computing every cluster's
   start/end index on the way.  `generate_parallel` implements this
   functionally and is tested to reproduce the serial build exactly.

2. **The cache study.**  The search kernel streams *two* package streams
   through one LDM cache — the i-cluster under construction and the
   candidate j-clusters — and the interleaving thrashes a direct-mapped
   cache (the paper measured >85 % misses) while a two-way associative
   cache restores <10 %.  `search_trace` builds the interleaved trace;
   `cache_study` runs it through both cache organisations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.hw.cache import (
    AddressMap,
    count_misses_direct_mapped,
    count_misses_two_way,
)
from repro.hw.dma import transfer_seconds
from repro.hw.params import ChipParams, DEFAULT_PARAMS
from repro.md.pairlist import ClusterPairList
from repro.parallel.athread import weighted_partition


@dataclass
class GatheredPairList:
    """Per-CPE neighbour lists gathered into final CSR form."""

    pair_ci: np.ndarray
    pair_cj: np.ndarray
    i_starts: np.ndarray
    scratch_bytes_per_cpe: np.ndarray  # temp memory each CPE used


def generate_parallel(
    plist: ClusterPairList,
    n_cpes: int = 64,
) -> GatheredPairList:
    """Re-derive the CSR pair list with the per-CPE scratch protocol.

    Each CPE emits (ci, cj) pairs for its i-cluster range into its own
    scratch buffer; the gather concatenates the buffers in CPE order and
    rebuilds the start/end index of every cluster's neighbour list —
    byte-identical to the serial CSR because the partition is contiguous.
    """
    weights = np.diff(plist.i_starts).astype(np.float64)
    parts = weighted_partition(weights, n_cpes)
    ci_parts, cj_parts, scratch = [], [], []
    for lo, hi in parts:
        s, e = int(plist.i_starts[lo]), int(plist.i_starts[hi])
        ci_parts.append(plist.pair_ci[s:e])
        cj_parts.append(plist.pair_cj[s:e])
        scratch.append((e - s) * 8)  # two int32 per emitted pair
    ci = np.concatenate(ci_parts) if ci_parts else np.empty(0, dtype=np.int32)
    cj = np.concatenate(cj_parts) if cj_parts else np.empty(0, dtype=np.int32)
    i_starts = np.searchsorted(ci, np.arange(plist.n_clusters + 1))
    return GatheredPairList(
        pair_ci=ci,
        pair_cj=cj,
        i_starts=i_starts.astype(np.int64),
        scratch_bytes_per_cpe=np.array(scratch, dtype=np.int64),
    )


def search_trace(
    plist: ClusterPairList,
    expansion: float = 3.0,
    seed: int = 0,
) -> np.ndarray:
    """Interleaved (i, j, i, j', ...) package trace of the search kernel.

    The search examines ~``expansion``x more candidates than survive into
    the list (cell-neighbourhood candidates before the distance test);
    extra candidates are synthesised around the surviving j's.  Each
    candidate check touches the i package and the candidate j package
    through the same cache — the interleaving that defeats a direct map.
    """
    if expansion < 1.0:
        raise ValueError(f"expansion must be >= 1: {expansion}")
    rng = np.random.default_rng(seed)
    n_cand = int(plist.n_cluster_pairs * expansion)
    ci = np.repeat(
        plist.pair_ci.astype(np.int64), int(np.ceil(expansion))
    )[:n_cand]
    cj_base = np.repeat(
        plist.pair_cj.astype(np.int64), int(np.ceil(expansion))
    )[:n_cand]
    jitter = rng.integers(-4, 5, size=n_cand)
    cj = np.clip(cj_base + jitter, 0, plist.n_clusters - 1)
    trace = np.empty(2 * n_cand, dtype=np.int64)
    trace[0::2] = ci
    trace[1::2] = cj
    return trace


@dataclass
class CacheStudyResult:
    two_way_miss_ratio: float
    accesses: int
    trace: np.ndarray = field(repr=False, compare=False)
    amap: AddressMap = field(repr=False, compare=False)

    @cached_property
    def direct_miss_ratio(self) -> float:
        """The direct-mapped miss ratio, counted when first read (the
        engine's model reads only the two-way one)."""
        misses = count_misses_direct_mapped(self.trace, self.amap)
        return misses / max(self.accesses, 1)


def cache_study(
    trace: np.ndarray, params: ChipParams = DEFAULT_PARAMS
) -> CacheStudyResult:
    """Miss ratios of the same trace under direct-mapped vs two-way.

    Both counters are the vectorised trace analyses; the sequential
    cache classes remain the oracles the property tests pin them
    against.  (The two-way count used to walk the trace through
    `TwoWaySetAssociativeCache.access` one package at a time — at ~150k
    accesses per engine rebuild that Python loop dominated the
    neighbour-search model.)  The two-way count runs here; the
    direct-mapped one only if its ratio is read.
    """
    amap = AddressMap(params.index_bits, params.offset_bits)
    n = len(trace)
    return CacheStudyResult(
        two_way_miss_ratio=count_misses_two_way(trace, amap) / max(n, 1),
        accesses=n,
        trace=trace,
        amap=amap,
    )


def adversarial_trace(
    n_accesses: int,
    params: ChipParams = DEFAULT_PARAMS,
) -> np.ndarray:
    """A same-set ping-pong trace reproducing the paper's >85 % thrashing.

    Two *sequential* streams (the i-cluster stream and the candidate
    stream) laid out exactly one cache apart in memory: every consecutive
    access pair maps to the same set with different tags, so a direct map
    evicts on every access, while a second way keeps both streams resident
    and misses only at line boundaries (~2 misses per line of 8 packages,
    i.e. ~12 %).
    """
    amap = AddressMap(params.index_bits, params.offset_bits)
    stride = amap.n_lines << amap.offset_bits  # one full cache of packages
    base = np.arange(n_accesses // 2, dtype=np.int64) % stride
    trace = np.empty(2 * (n_accesses // 2), dtype=np.int64)
    trace[0::2] = base
    trace[1::2] = base + stride
    return trace


def search_kernel_seconds(
    plist: ClusterPairList,
    miss_ratio: float,
    params: ChipParams = DEFAULT_PARAMS,
    expansion: float = 3.0,
    check_cycles: float = 110.0,
) -> float:
    """Modelled CPE-parallel search time given a cache miss ratio.

    Distance checks run SIMD on the CPEs; misses fetch whole lines; the
    per-CPE scratch write-out streams at the package rate.
    """
    if not 0.0 <= miss_ratio <= 1.0:
        raise ValueError(f"miss ratio must be in [0,1]: {miss_ratio}")
    n_checks = plist.n_cluster_pairs * expansion
    compute = n_checks * check_cycles / params.n_cpes * params.cycle_s
    accesses = 2.0 * n_checks
    line_bytes = params.packages_per_line * params.package_bytes
    dma = accesses * miss_ratio * transfer_seconds(line_bytes, params)
    writeout = plist.n_cluster_pairs * 8 / (params.dma_curve[-1][1] * 1e9)
    hidden = params.pipeline_overlap * min(compute, dma)
    return compute + dma - hidden + writeout
