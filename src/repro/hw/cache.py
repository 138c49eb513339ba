"""Software-managed caches for CPE kernels.

The SW26010 CPE has no hardware data cache — kernels build their own in
LDM.  The paper uses three:

* a direct-mapped *read cache* over particle packages (Fig. 3) for the
  short-range kernel;
* a direct-mapped *write-back cache* for deferred force updates (Fig. 4,
  implemented in `repro.core.deferred` on top of the tag machinery here);
* a *two-way set-associative* cache for pair-list generation (§3.5), where
  the access pattern thrashes a direct map (>85 % misses) but behaves with
  two ways (<10 %).

Addresses are particle-package indices, decomposed exactly as in the
figures: ``| tag (24 b) | line index (5 b) | offset (3 b) |``.

Two implementations of miss counting exist: the exact sequential cache
classes below, and :func:`count_misses_direct_mapped`, a vectorised
counter using the observation that per-set miss count equals the number of
tag *changes* in that set's access sequence.  Property tests assert they
agree on arbitrary traces.  The per-CPE traces of a whole pair list are
counted in one segmented pass (:func:`segment_misses_direct_mapped`,
:func:`segment_distinct_lines`) whose counts equal one call per CPE.
Set keys sort as uint16 when they fit, where numpy's stable sort is a
radix sort: the permutation, and so every count, is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AddressMap:
    """Bit-field decomposition of a package index (Figs. 3-4, Algorithm 3).

    ``offset_bits`` select the package within a cache line, ``index_bits``
    select the cache line slot, and the remaining high bits are the tag.
    """

    index_bits: int = 5
    offset_bits: int = 3

    @property
    def n_lines(self) -> int:
        return 1 << self.index_bits

    @property
    def packages_per_line(self) -> int:
        return 1 << self.offset_bits

    def decompose(self, package_index: int) -> tuple[int, int, int]:
        """Return ``(tag, line, offset)`` for one package index."""
        if package_index < 0:
            raise ValueError(f"package index must be non-negative: {package_index}")
        offset = package_index & ((1 << self.offset_bits) - 1)
        line = (package_index >> self.offset_bits) & ((1 << self.index_bits) - 1)
        tag = package_index >> (self.index_bits + self.offset_bits)
        return tag, line, offset

    def line_address(self, package_index: int) -> int:
        """Global line number (``Cache_Begin`` in Algorithm 3)."""
        return package_index >> self.offset_bits

    def compose(self, tag: int, line: int, offset: int = 0) -> int:
        """Inverse of :meth:`decompose` (Algorithm 3 line 12)."""
        return (
            (tag << (self.index_bits + self.offset_bits))
            | (line << self.offset_bits)
            | offset
        )


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.writebacks += other.writebacks


class DirectMappedReadCache:
    """Tag store of the Fig. 3 read cache.

    The cache tracks only *which* lines are resident — kernels read the
    actual package data straight from the (numpy) main-memory arrays and
    charge DMA time on each miss, which is behaviourally identical because
    a hit returns the same bytes the earlier DMA brought in.
    """

    def __init__(self, amap: AddressMap | None = None) -> None:
        self.amap = amap or AddressMap()
        self.tags = np.full(self.amap.n_lines, -1, dtype=np.int64)
        self.stats = CacheStats()

    def access(self, package_index: int) -> bool:
        """Touch one package; return True on hit, False on miss (line filled)."""
        tag, line, _ = self.amap.decompose(package_index)
        if self.tags[line] == tag:
            self.stats.hits += 1
            return True
        if self.tags[line] != -1:
            self.stats.evictions += 1
        self.tags[line] = tag
        self.stats.misses += 1
        return False

    def access_line(self, line_address: int) -> bool:
        """Touch a whole line by its global line number."""
        return self.access(line_address << self.amap.offset_bits)

    def reset(self) -> None:
        self.tags.fill(-1)
        self.stats = CacheStats()


class TwoWaySetAssociativeCache:
    """Two-way set-associative read cache with per-set LRU (§3.5).

    Same tag-only design as the direct-mapped cache; one extra way per set
    eliminates the pair-list generation thrashing the paper describes.
    """

    WAYS = 2

    def __init__(self, amap: AddressMap | None = None) -> None:
        # With the same total capacity, two ways halve the set count.
        base = amap or AddressMap()
        if base.index_bits < 1:
            raise ValueError("two-way cache needs at least 1 index bit")
        self.amap = AddressMap(base.index_bits - 1, base.offset_bits)
        self.tags = np.full((self.amap.n_lines, self.WAYS), -1, dtype=np.int64)
        self.lru = np.zeros(self.amap.n_lines, dtype=np.int8)  # way to evict next
        self.stats = CacheStats()

    def access(self, package_index: int) -> bool:
        tag, line, _ = self.amap.decompose(package_index)
        ways = self.tags[line]
        for w in range(self.WAYS):
            if ways[w] == tag:
                self.stats.hits += 1
                self.lru[line] = 1 - w  # the other way becomes eviction victim
                return True
        victim = int(self.lru[line])
        if ways[victim] != -1:
            self.stats.evictions += 1
        ways[victim] = tag
        self.lru[line] = 1 - victim
        self.stats.misses += 1
        return False

    def access_line(self, line_address: int) -> bool:
        return self.access(line_address << self.amap.offset_bits)

    def reset(self) -> None:
        self.tags.fill(-1)
        self.lru.fill(0)
        self.stats = CacheStats()


def _checked(package_indices: np.ndarray) -> np.ndarray:
    idx = np.asarray(package_indices, dtype=np.int64)
    if (idx < 0).any():
        raise ValueError("package indices must be non-negative")
    return idx


def _stable_order(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, n_keys)``,
    sorted as uint16 (a radix sort) when they fit."""
    if n_keys <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _segment_ids(lengths) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def segment_misses_direct_mapped(
    package_indices: np.ndarray,
    lengths,
    amap: AddressMap | None = None,
) -> np.ndarray:
    """Direct-mapped miss count of each segment of a trace: segment
    ``s`` is the next ``lengths[s]`` accesses, run through a cold cache
    of its own (one CPE's trace of a whole-list trace).

    For each set, the cache holds exactly one tag, so the miss count is
    the number of positions in that set's access sequence where the tag
    differs from the previous access (plus one for the cold first
    access).  One stable sort by ``segment * n_sets + set`` orders every
    segment's sets by position at once, segment after segment.  A line
    (``index >> offset_bits``) fixes both set and tag, so a miss is a
    segment's first access or an access whose line differs from its
    predecessor's — the numpy idiom replacing a per-access Python loop
    (guide: vectorise the inner loop, not the algorithm).  Returns int64
    counts, each equal to :func:`count_misses_direct_mapped` of its
    segment.
    """
    amap = amap or AddressMap()
    idx = _checked(package_indices)
    lengths = np.asarray(lengths, dtype=np.int64)
    if idx.size == 0:
        return np.zeros(len(lengths), dtype=np.int64)
    lines = idx >> amap.offset_bits
    key = _segment_ids(lengths) << amap.index_bits
    key |= lines & (amap.n_lines - 1)
    lines = lines[_stable_order(key, len(lengths) << amap.index_bits)]
    miss = np.empty(idx.size + 1, dtype=np.int64)
    miss[0] = 0
    np.not_equal(lines[1:], lines[:-1], out=miss[2:])
    ends = np.cumsum(lengths)
    starts = ends - lengths
    miss[1 + starts[lengths > 0]] = 1
    np.cumsum(miss, out=miss)
    return miss[ends] - miss[starts]


def segment_distinct_lines(
    package_indices: np.ndarray,
    lengths,
    amap: AddressMap | None = None,
) -> np.ndarray:
    """Distinct cache lines (``index >> offset_bits``) each segment of a
    trace touches: one presence count over ``segment * span + line``
    (``span`` past the largest line), equal per segment to
    ``len(np.unique(segment >> offset_bits))``."""
    amap = amap or AddressMap()
    idx = _checked(package_indices)
    n_seg = len(lengths)
    if idx.size == 0:
        return np.zeros(n_seg, dtype=np.int64)
    lines = idx >> amap.offset_bits
    span = int(lines.max()) + 1
    seen = np.zeros(n_seg * span, dtype=bool)
    seen[_segment_ids(lengths) * span + lines] = True
    return np.count_nonzero(seen.reshape(n_seg, span), axis=1)


def count_misses_direct_mapped(
    package_indices: np.ndarray, amap: AddressMap | None = None
) -> int:
    """Vectorised miss count for a direct-mapped cache over a full trace
    (the one-segment :func:`segment_misses_direct_mapped`)."""
    idx = np.asarray(package_indices, dtype=np.int64)
    return int(segment_misses_direct_mapped(idx, [idx.size], amap)[0])


def count_misses_two_way(
    package_indices: np.ndarray, amap: AddressMap | None = None
) -> int:
    """Vectorised miss count for the two-way LRU cache over a full trace.

    ``amap`` is the *base* (direct-mapped) geometry; like
    :class:`TwoWaySetAssociativeCache` itself, the two-way layout halves
    the set count at equal capacity.

    The vectorisation rests on a run-collapse identity.  Collapse each
    set's access sequence into runs of equal tags (every non-head access
    of a run trivially hits).  After processing run ``p`` the set's two
    ways always hold ``{tag[p] (MRU), tag[p-1] (LRU)}`` — by induction: a
    hit promotes ``tag[p]`` and demotes ``tag[p-1]``; a miss evicts the
    old LRU and installs ``tag[p]``, demoting ``tag[p-1]`` likewise.  So
    the head of run ``p`` hits iff its tag equals the tag two runs back
    in the same set, and the miss count is the number of run heads where
    it does not (the first two runs of every set are cold misses).
    Property tests assert agreement with the sequential class on
    arbitrary traces.
    """
    base = amap or AddressMap()
    two = AddressMap(base.index_bits - 1, base.offset_bits)
    idx = _checked(package_indices)
    if idx.size == 0:
        return 0
    # Sorted by set, stable; a line fixes both set and tag, so runs and
    # their heads follow from line changes alone.
    lines = idx >> two.offset_bits
    lines = lines[_stable_order(lines & (two.n_lines - 1), two.n_lines)]
    head = np.empty(idx.size, dtype=bool)
    head[0] = True
    np.not_equal(lines[1:], lines[:-1], out=head[1:])
    runs = lines[head]
    return min(runs.size, 2) + int(np.count_nonzero(runs[2:] != runs[:-2]))


def simulate_trace(
    cache: DirectMappedReadCache | TwoWaySetAssociativeCache,
    package_indices: np.ndarray,
) -> CacheStats:
    """Run a whole access trace through ``cache`` and return its stats."""
    for p in np.asarray(package_indices, dtype=np.int64):
        cache.access(int(p))
    return cache.stats
