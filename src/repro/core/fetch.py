"""Fetch strategy: the read cache of the paper's §3.1 / Fig. 3.

CPEs fetch particle packages through a direct-mapped software cache whose
lines hold ``packages_per_line`` (8) packages (~900 B), so each miss runs
a near-peak-bandwidth DMA instead of a 112 B transfer.

Two interchangeable implementations:

* :class:`ReadCachedFetcher` — exact sequential semantics over the
  `repro.hw.cache.DirectMappedReadCache` tag store (fidelity path);
* :func:`analyze_read_trace` — vectorised whole-trace analysis used by
  the fast kernel path; property tests pin it to the sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.cache import AddressMap, DirectMappedReadCache, count_misses_direct_mapped
from repro.hw.dma import transfer_seconds
from repro.hw.params import ChipParams, DEFAULT_PARAMS
from repro.core.packing import PackedParticles


@dataclass
class ReadTraceStats:
    """Outcome of pushing one CPE's package-access trace through the cache."""

    accesses: int
    misses: int
    bytes_fetched: int
    seconds: float

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class ReadCachedFetcher:
    """Sequential read-cache front-end for one CPE's kernel loop."""

    def __init__(
        self,
        packed: PackedParticles,
        params: ChipParams = DEFAULT_PARAMS,
    ) -> None:
        self.packed = packed
        self.params = params
        self.amap = AddressMap(params.index_bits, params.offset_bits)
        self.cache = DirectMappedReadCache(self.amap)
        self.bytes_fetched = 0
        self.seconds = 0.0

    def fetch_package(self, package: int) -> dict[str, np.ndarray]:
        """Fetch one package (through the cache); returns its field views."""
        hit = self.cache.access(package)
        if not hit:
            line_bytes = self.packed.data_line_bytes
            self.bytes_fetched += line_bytes
            self.seconds += transfer_seconds(line_bytes, self.params)
        return self.packed.package_view(package)

    def stats(self) -> ReadTraceStats:
        return ReadTraceStats(
            accesses=self.cache.stats.accesses,
            misses=self.cache.stats.misses,
            bytes_fetched=self.bytes_fetched,
            seconds=self.seconds,
        )


def analyze_read_trace(
    package_trace: np.ndarray,
    packed: PackedParticles,
    params: ChipParams = DEFAULT_PARAMS,
) -> ReadTraceStats:
    """Vectorised equivalent of running the trace through the fetcher.

    Per-set miss counting via the sorted-trace tag-change trick (see
    `repro.hw.cache.count_misses_direct_mapped`).
    """
    trace = np.asarray(package_trace, dtype=np.int64)
    amap = AddressMap(params.index_bits, params.offset_bits)
    misses = count_misses_direct_mapped(trace, amap)
    line_bytes = packed.data_line_bytes
    return ReadTraceStats(
        accesses=len(trace),
        misses=misses,
        bytes_fetched=misses * line_bytes,
        seconds=misses * transfer_seconds(line_bytes, params),
    )


def sequential_stream_lines(lo: int, hi: int, packages_per_line: int) -> int:
    """Aligned cache lines covered by one CPE streaming packages
    ``[lo, hi)`` sequentially.

    A CPE's i-package stream starts wherever its cluster range starts, so
    it fetches every line its range *overlaps* — up to one extra line at
    each end versus the global ceil ``⌈N/ppl⌉`` (which undercounts by up
    to ``n_cpes - 1`` lines when summed over partitions).  Matches the
    distinct-line count :func:`analyze_read_trace` reports for the
    sequential trace ``arange(lo, hi)``.
    """
    if packages_per_line < 1:
        raise ValueError(f"packages_per_line must be >= 1: {packages_per_line}")
    if hi <= lo:
        return 0
    return (hi - 1) // packages_per_line - lo // packages_per_line + 1


def uncached_read_seconds(
    n_accesses: int,
    access_bytes: int,
    params: ChipParams = DEFAULT_PARAMS,
) -> float:
    """Modelled time for ``n_accesses`` direct (uncached) DMA reads —
    the Pkg rung (one package per access) or the original fine-grained
    4 B path, depending on ``access_bytes``."""
    if n_accesses < 0:
        raise ValueError(f"n_accesses must be non-negative: {n_accesses}")
    return n_accesses * transfer_seconds(access_bytes, params)
