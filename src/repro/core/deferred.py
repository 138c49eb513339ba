"""Deferred update: the write-back force cache of §3.2 / Fig. 4 and the
mark-aware variant of Algorithm 3.

Force contributions accumulate in an LDM-resident direct-mapped cache of
force lines; the main-memory copy is touched only when a line is evicted
(put back) or first needed (fetched).  With the Bit-Map of §3.3, a line
this CPE has never touched is known-zero, so the first miss skips the
fetch and zero-fills locally — killing both the initialisation pass and
the useless fetch.

Two implementations again: the exact sequential :class:`DeferredUpdateCache`
(which really buffers and flushes float32 force lines — the fidelity path
and the unit-test subject), and :func:`analyze_write_trace`, the
vectorised accounting the fast kernels use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.bitmap import LineMarkBitmap
from repro.hw.cache import AddressMap, count_misses_direct_mapped
from repro.hw.dma import transfer_seconds
from repro.hw.params import ChipParams, DEFAULT_PARAMS
from repro.md.pairlist import CLUSTER_SIZE


@dataclass
class WriteTraceStats:
    """DMA accounting for one CPE's force-update trace."""

    accesses: int
    misses: int
    first_touches: int  # unique lines (mark bits set)
    puts: int  # line writebacks (evictions + final flush)
    gets: int  # line fetches from the MPE copy
    line_bytes: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def bytes_moved(self) -> int:
        return (self.puts + self.gets) * self.line_bytes

    def seconds(self, params: ChipParams = DEFAULT_PARAMS) -> float:
        return (self.puts + self.gets) * transfer_seconds(self.line_bytes, params)

    @classmethod
    def from_counts(
        cls,
        accesses: int,
        misses: int,
        lines: int,
        params: ChipParams = DEFAULT_PARAMS,
        use_mark: bool = True,
    ) -> "WriteTraceStats":
        """The accounting of a trace with ``accesses`` accesses,
        ``misses`` direct-mapped misses and ``lines`` distinct lines
        (the identities of :func:`analyze_write_trace`)."""
        return cls(
            accesses=accesses,
            misses=misses,
            first_touches=lines if use_mark else 0,
            puts=misses,
            gets=misses - lines if use_mark else misses,
            line_bytes=params.particles_per_line * params.force_bytes_per_particle,
        )


class DeferredUpdateCache:
    """Write-back force cache for one CPE (Fig. 4 / Algorithm 3).

    ``copy`` is this CPE's force-copy array in simulated main memory,
    shape (n_slots, 3) float32.  ``use_mark=True`` enables the §3.3
    Bit-Map behaviour; ``use_mark=False`` models the plain RMA write cache
    whose copies were zero-initialised up front (so every miss fetches).
    """

    def __init__(
        self,
        copy: np.ndarray,
        params: ChipParams = DEFAULT_PARAMS,
        use_mark: bool = True,
    ) -> None:
        if copy.ndim != 2 or copy.shape[1] != 3:
            raise ValueError(f"force copy must be (n_slots, 3), got {copy.shape}")
        if copy.shape[0] % (params.packages_per_line * CLUSTER_SIZE):
            raise ValueError(
                "n_slots must be a multiple of particles_per_line "
                f"({params.particles_per_line}); got {copy.shape[0]}"
            )
        self.copy = copy
        self.params = params
        self.use_mark = use_mark
        self.amap = AddressMap(params.index_bits, params.offset_bits)
        n_lines_global = copy.shape[0] // params.particles_per_line
        self.mark = LineMarkBitmap(max(n_lines_global, 1))
        # LDM-resident line buffers: (n_cache_lines, particles_per_line, 3).
        self._lines = np.zeros(
            (self.amap.n_lines, params.particles_per_line, 3), dtype=np.float32
        )
        self._tags = np.full(self.amap.n_lines, -1, dtype=np.int64)
        self.stats = WriteTraceStats(
            accesses=0,
            misses=0,
            first_touches=0,
            puts=0,
            gets=0,
            line_bytes=params.packages_per_line
            * CLUSTER_SIZE
            * params.force_bytes_per_particle,
        )

    def _line_slice(self, global_line: int) -> slice:
        ppl = self.params.particles_per_line
        return slice(global_line * ppl, (global_line + 1) * ppl)

    def accumulate(self, particle_slot: int, force: np.ndarray) -> None:
        """Add one particle's force contribution (Algorithm 3)."""
        package = particle_slot // CLUSTER_SIZE
        offset_in_pkg = particle_slot % CLUSTER_SIZE
        tag, line, offset = self.amap.decompose(package)
        global_line = self.amap.line_address(package)
        self.stats.accesses += 1
        if self._tags[line] != tag:
            self.stats.misses += 1
            self._miss(line, tag, global_line)
        idx = offset * CLUSTER_SIZE + offset_in_pkg
        self._lines[line, idx] += np.asarray(force, dtype=np.float32)

    def accumulate_package(self, package: int, forces4: np.ndarray) -> None:
        """Add a whole package's four force vectors in one cache access —
        how the vectorised kernel updates after the Fig. 7 transpose."""
        tag, line, offset = self.amap.decompose(package)
        global_line = self.amap.line_address(package)
        self.stats.accesses += 1
        if self._tags[line] != tag:
            self.stats.misses += 1
            self._miss(line, tag, global_line)
        base = offset * CLUSTER_SIZE
        self._lines[line, base : base + CLUSTER_SIZE] += np.asarray(
            forces4, dtype=np.float32
        )

    def _miss(self, line: int, tag: int, global_line: int) -> None:
        # Evict the current occupant (always dirty: lines are only filled
        # by writes).
        old_tag = self._tags[line]
        if old_tag >= 0:
            old_global = int(self.amap.compose(int(old_tag), line)) >> 0
            old_global_line = self.amap.line_address(old_global)
            self.copy[self._line_slice(old_global_line)] += self._lines[line]
            self.stats.puts += 1
        if self.use_mark and not self.mark.is_marked(global_line):
            # First touch: the copy line is known-zero; zero-fill locally.
            self._lines[line] = 0.0
            self.mark.mark(global_line)
            self.stats.first_touches += 1
        else:
            if self.use_mark:
                # Touched before: our partial sum lives in the copy; fetch
                # it so later accumulation continues from it.
                self._lines[line] = self.copy[self._line_slice(global_line)]
                self.copy[self._line_slice(global_line)] = 0.0
            else:
                # RMA mode: copies were zero-initialised in main memory;
                # the fetch still happens (that is the waste Bit-Map cuts).
                self._lines[line] = self.copy[self._line_slice(global_line)]
                self.copy[self._line_slice(global_line)] = 0.0
                self.stats.first_touches += 0
            self.stats.gets += 1
        self._tags[line] = tag

    def flush(self) -> None:
        """Write every resident line back to the copy (end of kernel)."""
        for line in range(self.amap.n_lines):
            tag = self._tags[line]
            if tag < 0:
                continue
            global_pkg = self.amap.compose(int(tag), line)
            global_line = self.amap.line_address(global_pkg)
            self.copy[self._line_slice(global_line)] += self._lines[line]
            self.stats.puts += 1
            self._tags[line] = -1
            self._lines[line] = 0.0


def replay_write_trace(
    package_trace: np.ndarray,
    contributions: np.ndarray,
    copy: np.ndarray,
    params: ChipParams = DEFAULT_PARAMS,
    use_mark: bool = True,
) -> tuple[LineMarkBitmap, WriteTraceStats]:
    """Reconstruct a :class:`DeferredUpdateCache` run from its write trace.

    ``package_trace[k]`` is the k-th ``accumulate_package`` target and
    ``contributions[k]`` its (4, 3) float32 argument; ``copy`` is filled
    in place with what the sequential cache would leave behind after
    ``flush()``, and the returned bitmap/stats match its ``mark`` and
    counters exactly.

    Bit-identity argument (DESIGN.md §13): every eviction adds the LDM
    line into a copy range that was zeroed when the line was fetched (or
    never touched), so the round trip through the cache preserves each
    partial sum exactly — the final copy value of every element is the
    strict left-to-right float32 sum of its contributions in trace
    order.  ``np.add.at`` is unbuffered and applies updates in index
    order, which is that same sequence; the counters come from
    :func:`analyze_write_trace`, whose identities are property-tested
    against the sequential class.
    """
    trace = np.asarray(package_trace, dtype=np.int64)
    n_lines_global = copy.shape[0] // params.particles_per_line
    mark = LineMarkBitmap(max(n_lines_global, 1))
    if len(trace):
        packages = copy.reshape(-1, CLUSTER_SIZE, 3)
        np.add.at(packages, trace, contributions)
        amap = AddressMap(params.index_bits, params.offset_bits)
        if use_mark:
            for line in np.unique(trace >> amap.offset_bits):
                mark.mark(int(line))
    stats = analyze_write_trace(trace, params, use_mark=use_mark)
    return mark, stats


def analyze_write_trace(
    package_trace: np.ndarray,
    params: ChipParams = DEFAULT_PARAMS,
    use_mark: bool = True,
) -> WriteTraceStats:
    """Vectorised accounting equivalent of the sequential cache.

    Identities (proven by property tests against the class above):

    * ``misses``        — direct-mapped miss count over the line trace;
    * ``first_touches`` — number of distinct lines (mark mode);
    * ``puts = misses`` — every miss eventually writes back exactly one
      dirty line (cold misses write back at the final flush instead);
    * ``gets = misses - first_touches`` with marks, ``misses`` without.
    """
    trace = np.asarray(package_trace, dtype=np.int64)
    amap = AddressMap(params.index_bits, params.offset_bits)
    misses = count_misses_direct_mapped(trace, amap)
    lines = len(np.unique(trace >> amap.offset_bits))
    return WriteTraceStats.from_counts(len(trace), misses, lines, params, use_mark)
