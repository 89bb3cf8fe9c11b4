"""Unit tests for a single Cache level: fills, evictions, s-bit arrays."""

import numpy as np
import pytest

from repro.common.config import CacheConfig
from repro.common.errors import SimulationError
from repro.memsys.cache import Cache


@pytest.fixture
def cache():
    # 4 sets x 2 ways, two hardware contexts (0 and 1)
    return Cache(CacheConfig("T", 4 * 2 * 64, ways=2), [0, 1], hit_latency=2)


def test_geometry(cache):
    assert cache.num_sets == 4
    assert cache.ways == 2


def test_fill_sets_requester_sbit_only(cache):
    cache.fill(0x10, ctx=0, tc_now=5)
    pos = cache.lookup(0x10)
    assert pos is not None
    s, w = pos
    assert cache.sbit_is_set(s, w, ctx=0)
    assert not cache.sbit_is_set(s, w, ctx=1)
    assert cache.tc[s, w] == 5


def test_fill_evicts_lru_and_clears_sbits(cache):
    # Three lines to the same set (stride = num_sets)
    for i, line in enumerate([0x00, 0x04, 0x08]):
        cache.fill(line, ctx=0, tc_now=i)
    assert not cache.resident(0x00)  # oldest evicted
    assert cache.resident(0x04) and cache.resident(0x08)
    assert cache.stats.get("evictions") == 1


def test_eviction_resets_slot_sbits(cache):
    cache.fill(0x00, ctx=1, tc_now=0)
    s, w = cache.lookup(0x00)
    cache.fill(0x04, ctx=0, tc_now=1)
    cache.fill(0x08, ctx=0, tc_now=2)  # evicts 0x00
    # slot of the evicted line was refilled by ctx 0 only
    pos08 = cache.lookup(0x08)
    assert pos08 == (s, w)
    assert not cache.sbit_is_set(s, w, ctx=1)


def test_invalidate_clears_sbits_and_returns_line(cache):
    cache.fill(0x10, ctx=0, tc_now=1)
    s, w = cache.lookup(0x10)
    line = cache.invalidate(0x10)
    assert line is not None and line.tag == 0x10
    assert cache.sbits[s, w] == 0
    assert cache.invalidate(0x10) is None  # second time: not resident


def test_set_and_check_sbit(cache):
    cache.fill(0x10, ctx=0, tc_now=1)
    s, w = cache.lookup(0x10)
    cache.set_sbit(s, w, ctx=1)
    assert cache.sbit_is_set(s, w, ctx=1)
    assert cache.sbit_is_set(s, w, ctx=0)


def test_unknown_context_rejected(cache):
    with pytest.raises(SimulationError):
        cache.ctx_column(5)


def test_save_restore_roundtrip(cache):
    cache.fill(0x10, ctx=0, tc_now=1)
    cache.fill(0x21, ctx=0, tc_now=2)
    saved = cache.save_sbits(ctx=0)
    assert saved.sum() == 2
    cache.restore_sbits(ctx=0, saved=None)  # wipe
    assert cache.save_sbits(ctx=0).sum() == 0
    cache.restore_sbits(ctx=0, saved=saved)
    assert np.array_equal(cache.save_sbits(ctx=0), saved)


def test_restore_does_not_touch_other_context(cache):
    cache.fill(0x10, ctx=1, tc_now=1)
    before = cache.save_sbits(ctx=1)
    cache.restore_sbits(ctx=0, saved=None)
    assert np.array_equal(cache.save_sbits(ctx=1), before)


def test_restore_shape_mismatch_rejected(cache):
    with pytest.raises(SimulationError):
        cache.restore_sbits(ctx=0, saved=np.zeros((1, 1), dtype=bool))


def test_clear_sbits_where(cache):
    cache.fill(0x10, ctx=0, tc_now=1)
    cache.fill(0x21, ctx=0, tc_now=9)
    mask = cache.tc > 5
    cleared = cache.clear_sbits_where(ctx=0, mask=mask)
    assert cleared == 1
    s, w = cache.lookup(0x10)
    assert cache.sbit_is_set(s, w, ctx=0)  # tc=1 <= 5 kept
    s, w = cache.lookup(0x21)
    assert not cache.sbit_is_set(s, w, ctx=0)  # tc=9 > 5 cleared


def test_clear_all_sbits(cache):
    cache.fill(0x10, ctx=0, tc_now=1)
    cache.fill(0x11, ctx=1, tc_now=1)
    cache.clear_all_sbits(ctx=0)
    assert cache.save_sbits(ctx=0).sum() == 0
    assert cache.save_sbits(ctx=1).sum() == 1


def test_sbit_save_arithmetic_matches_paper():
    # Section VI-D: a 64KB cache (1024 lines) -> 128 bytes -> 2 transfers;
    # an 8MB cache (131072 lines) -> 16KB -> 256 transfers.
    small = Cache(CacheConfig("S", 64 * 1024, ways=4), [0], hit_latency=2)
    assert small.sbit_save_bytes() == 128
    assert small.sbit_save_transfers() == 2
    big = Cache(CacheConfig("B", 8 * 1024 * 1024, ways=16), [0], hit_latency=20)
    assert big.sbit_save_transfers() == 256


def test_cold_miss_counted_once_per_line(cache):
    cache.fill(0x10, ctx=0, tc_now=1)
    cache.invalidate(0x10)
    cache.fill(0x10, ctx=0, tc_now=2)
    assert cache.stats.get("cold_misses") == 1
    assert cache.stats.get("fills") == 2


def test_occupancy_and_resident_addrs(cache):
    cache.fill(0x10, ctx=0, tc_now=1)
    cache.fill(0x21, ctx=0, tc_now=1)
    assert cache.occupancy == 2
    assert sorted(cache.resident_line_addrs()) == [0x10, 0x21]
