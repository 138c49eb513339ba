"""Software caches: tag arithmetic, sequential vs vectorised equivalence,
two-way behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import (
    AddressMap,
    DirectMappedReadCache,
    TwoWaySetAssociativeCache,
    count_misses_direct_mapped,
    count_misses_two_way,
    segment_distinct_lines,
    segment_misses_direct_mapped,
    simulate_trace,
)


class TestAddressMap:
    def test_decompose_compose_roundtrip(self):
        amap = AddressMap(5, 3)
        for idx in (0, 1, 7, 8, 255, 256, 123456, (1 << 30) + 12345):
            tag, line, off = amap.decompose(idx)
            assert amap.compose(tag, line, off) == idx

    def test_field_widths(self):
        amap = AddressMap(5, 3)
        assert amap.n_lines == 32
        assert amap.packages_per_line == 8
        tag, line, off = amap.decompose(0b110_10101_011)
        assert off == 0b011
        assert line == 0b10101
        assert tag == 0b110

    def test_line_address(self):
        amap = AddressMap(5, 3)
        assert amap.line_address(0) == 0
        assert amap.line_address(7) == 0
        assert amap.line_address(8) == 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            AddressMap().decompose(-1)


class TestDirectMapped:
    def test_cold_miss_then_hit(self):
        c = DirectMappedReadCache()
        assert c.access(5) is False
        assert c.access(5) is True
        assert c.access(6) is True  # same line (offset differs)
        assert c.stats.hits == 2 and c.stats.misses == 1

    def test_conflict_eviction(self):
        c = DirectMappedReadCache()
        stride = c.amap.n_lines * c.amap.packages_per_line
        assert c.access(0) is False
        assert c.access(stride) is False  # same set, different tag
        assert c.access(0) is False  # evicted
        assert c.stats.evictions == 2

    def test_reset(self):
        c = DirectMappedReadCache()
        c.access(3)
        c.reset()
        assert c.access(3) is False

    def test_access_line(self):
        c = DirectMappedReadCache()
        c.access_line(4)
        assert c.access(4 * c.amap.packages_per_line) is True


@settings(max_examples=60, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=4095), min_size=0, max_size=400)
)
def test_vectorised_miss_count_matches_sequential(trace):
    """The np.diff trick must equal the exact cache on arbitrary traces."""
    arr = np.array(trace, dtype=np.int64)
    cache = DirectMappedReadCache()
    stats = simulate_trace(cache, arr)
    assert count_misses_direct_mapped(arr) == stats.misses


def test_vectorised_miss_count_empty():
    assert count_misses_direct_mapped(np.empty(0, dtype=np.int64)) == 0


def test_vectorised_rejects_negative():
    with pytest.raises(ValueError):
        count_misses_direct_mapped(np.array([-1]))


class TestTwoWay:
    def test_halved_sets(self):
        c = TwoWaySetAssociativeCache(AddressMap(5, 3))
        assert c.amap.n_lines == 16

    def test_two_tags_coexist(self):
        c = TwoWaySetAssociativeCache()
        stride = c.amap.n_lines * c.amap.packages_per_line
        c.access(0)
        c.access(stride)
        # Both resident: ping-pong now hits.
        assert c.access(0) is True
        assert c.access(stride) is True

    def test_lru_evicts_older(self):
        c = TwoWaySetAssociativeCache()
        stride = c.amap.n_lines * c.amap.packages_per_line
        c.access(0)          # way 0
        c.access(stride)     # way 1
        c.access(0)          # touch 0 -> victim is stride
        c.access(2 * stride) # evicts stride
        assert c.access(0) is True
        assert c.access(stride) is False

    def test_ping_pong_fixed_by_second_way(self):
        """The §3.5 thrashing scenario: >85 % direct, ~10 % two-way.

        Two sequential streams one cache apart: a direct map evicts on
        every access; the two-way cache keeps both streams resident and
        misses only at line boundaries.
        """
        amap = AddressMap(5, 3)
        stride = amap.n_lines * amap.packages_per_line
        base = np.arange(2000, dtype=np.int64) % stride
        trace = np.empty(4000, dtype=np.int64)
        trace[0::2] = base
        trace[1::2] = base + stride
        direct = count_misses_direct_mapped(trace, amap) / len(trace)
        two_way = TwoWaySetAssociativeCache(amap)
        simulate_trace(two_way, trace)
        assert direct > 0.85
        assert two_way.stats.miss_ratio < 0.15

    @settings(max_examples=30, deadline=None)
    @given(
        trace=st.lists(
            st.integers(min_value=0, max_value=2047), min_size=1, max_size=300
        )
    )
    def test_two_way_never_misses_more_plus_capacity(self, trace):
        """Sanity: a two-way cache's misses are bounded by trace length and
        at least the compulsory (unique-line) misses."""
        arr = np.array(trace, dtype=np.int64)
        c = TwoWaySetAssociativeCache()
        simulate_trace(c, arr)
        unique_lines = len(np.unique(arr >> c.amap.offset_bits))
        assert unique_lines <= c.stats.misses <= len(arr)


@settings(max_examples=60, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=4095), min_size=0, max_size=400)
)
def test_two_way_vectorised_miss_count_matches_sequential(trace):
    """The run-collapse identity must equal the exact LRU cache on
    arbitrary traces (the promise in ``count_misses_two_way``'s docs)."""
    arr = np.array(trace, dtype=np.int64)
    cache = TwoWaySetAssociativeCache()
    stats = simulate_trace(cache, arr)
    assert count_misses_two_way(arr) == stats.misses


@settings(max_examples=30, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=4095), min_size=0, max_size=300)
)
def test_two_way_vectorised_custom_geometry(trace):
    """Same agreement under a non-default base AddressMap."""
    amap = AddressMap(5, 3)
    arr = np.array(trace, dtype=np.int64)
    cache = TwoWaySetAssociativeCache(amap)
    stats = simulate_trace(cache, arr)
    assert count_misses_two_way(arr, amap) == stats.misses


def test_two_way_vectorised_empty():
    assert count_misses_two_way(np.empty(0, dtype=np.int64)) == 0


def test_two_way_vectorised_rejects_negative():
    with pytest.raises(ValueError):
        count_misses_two_way(np.array([-1]))


def _int64_direct(idx, amap):
    """The direct-mapped count over an int64 stable argsort of the set
    keys (the sort the uint16 keys replace)."""
    if idx.size == 0:
        return 0
    lines = (idx >> amap.offset_bits) & (amap.n_lines - 1)
    tags = idx >> (amap.index_bits + amap.offset_bits)
    order = np.argsort(lines.astype(np.int64), kind="stable")
    sl, st_ = lines[order], tags[order]
    miss = np.ones(idx.size, dtype=bool)
    miss[1:] = (sl[1:] != sl[:-1]) | (st_[1:] != st_[:-1])
    return int(np.count_nonzero(miss))


def _int64_two_way(idx, amap):
    two = AddressMap(amap.index_bits - 1, amap.offset_bits)
    if idx.size == 0:
        return 0
    sets = (idx >> two.offset_bits) & (two.n_lines - 1)
    tags = idx >> (two.index_bits + two.offset_bits)
    order = np.argsort(sets.astype(np.int64), kind="stable")
    s_, t_ = sets[order], tags[order]
    head = np.ones(idx.size, dtype=bool)
    head[1:] = (s_[1:] != s_[:-1]) | (t_[1:] != t_[:-1])
    rs, rt = s_[head], t_[head]
    miss = np.ones(rs.size, dtype=bool)
    miss[2:] = (rs[2:] != rs[:-2]) | (rt[2:] != rt[:-2])
    return int(np.count_nonzero(miss))


@pytest.mark.parametrize("index_bits", [0, 1, 5, 9, 15, 16])
def test_narrow_keys_count_as_int64_keys(index_bits):
    """uint16 set keys (a radix sort) give the counts of int64 keys, on
    random traces over caches of 1 to 65,536 lines."""
    amap = AddressMap(index_bits, 3)
    rng = np.random.default_rng(index_bits)
    for n, high in ((1, 10), (5000, 1 << 12), (20000, 1 << 24)):
        idx = rng.integers(0, high, n, dtype=np.int64)
        assert count_misses_direct_mapped(idx, amap) == _int64_direct(idx, amap)
        if index_bits:
            assert count_misses_two_way(idx, amap) == _int64_two_way(idx, amap)


@pytest.mark.parametrize("index_bits", [5, 12])
def test_segments_count_as_separate_traces(index_bits):
    """Each segment of a trace counts as a cold trace of its own, empty
    segments included, with keys narrow (5 index bits, 64 segments) or
    wide (12 bits: 2**18 keys)."""
    amap = AddressMap(index_bits, 3)
    rng = np.random.default_rng(7)
    lengths = rng.integers(0, 400, 64)
    lengths[[0, 5, 63]] = 0
    idx = rng.integers(0, 1 << 14, int(lengths.sum()), dtype=np.int64)
    misses = segment_misses_direct_mapped(idx, lengths, amap)
    lines = segment_distinct_lines(idx, lengths, amap)
    ends = np.cumsum(lengths)
    for k, (a, z) in enumerate(zip(ends - lengths, ends)):
        part = idx[a:z]
        assert misses[k] == _int64_direct(part, amap)
        assert lines[k] == len(np.unique(part >> amap.offset_bits))
    empty = np.empty(0, dtype=np.int64)
    assert not segment_misses_direct_mapped(empty, [0, 0], amap).any()
    assert not segment_distinct_lines(empty, [0, 0], amap).any()
    with pytest.raises(ValueError):
        segment_misses_direct_mapped(np.array([-1]), [1], amap)
