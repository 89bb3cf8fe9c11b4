"""Limited-pointer s-bit tracking (the Section VI-C scaling option).

A limited-pointer directory keeps O(k log n) bits per line instead of n.
Overflow must *remove* a sharer's visibility (costing it an extra first
access later) — it must never grant visibility, so the security argument
is untouched.
"""

import pytest

from repro.common.config import CacheConfig
from repro.core.timecache import TimeCacheSystem
from repro.memsys.cache import Cache

from tests.conftest import tiny_config


class TestCacheLevel:
    def make(self, max_sharers):
        return Cache(
            CacheConfig("T", 4 * 2 * 64, ways=2),
            [0, 1, 2, 3],
            hit_latency=2,
            max_sharers=max_sharers,
        )

    def test_unlimited_by_default(self):
        cache = self.make(0)
        cache.fill(0x10, ctx=0, tc_now=1)
        s, w = cache.lookup(0x10)
        for ctx in (1, 2, 3):
            cache.set_sbit(s, w, ctx)
        assert all(cache.sbit_is_set(s, w, c) for c in range(4))

    def test_overflow_evicts_oldest_sharer(self):
        cache = self.make(2)
        cache.fill(0x10, ctx=0, tc_now=1)
        s, w = cache.lookup(0x10)
        cache.set_sbit(s, w, 1)  # sharers: {0, 1} == cap
        cache.set_sbit(s, w, 2)  # overflow: ctx 0 loses visibility
        assert not cache.sbit_is_set(s, w, 0)
        assert cache.sbit_is_set(s, w, 1)
        assert cache.sbit_is_set(s, w, 2)
        assert cache.stats.get("sharer_evictions") == 1

    def test_resetting_existing_sharer_never_overflows(self):
        cache = self.make(2)
        cache.fill(0x10, ctx=0, tc_now=1)
        s, w = cache.lookup(0x10)
        cache.set_sbit(s, w, 1)
        cache.set_sbit(s, w, 1)  # idempotent
        assert cache.sbit_is_set(s, w, 0)
        assert cache.stats.get("sharer_evictions") == 0

    def test_cap_one_means_single_owner(self):
        cache = self.make(1)
        cache.fill(0x10, ctx=0, tc_now=1)
        s, w = cache.lookup(0x10)
        cache.set_sbit(s, w, 3)
        assert not cache.sbit_is_set(s, w, 0)
        assert cache.sbit_is_set(s, w, 3)

    def test_negative_cap_rejected(self):
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            self.make(-1)


def smt_limited_config(max_sharers):
    """Two hyperthreads sharing one L1, with the sharer cap applied."""
    from repro.common.config import (
        CacheConfig,
        HierarchyConfig,
        SimConfig,
        TimeCacheConfig,
    )
    from repro.common.units import KIB

    cfg = SimConfig(
        hierarchy=HierarchyConfig(
            num_cores=1,
            threads_per_core=2,
            l1i=CacheConfig("L1I", 1 * KIB, ways=4),
            l1d=CacheConfig("L1D", 1 * KIB, ways=4),
            llc=CacheConfig("LLC", 16 * KIB, ways=8),
        ),
        timecache=TimeCacheConfig(max_sharers=max_sharers, sbit_dma_cycles=20),
    )
    cfg.validate()
    return cfg


class TestSystemLevel:
    def test_evicted_sharer_pays_first_access_again(self):
        # Hyperthreads share the L1, so a single-pointer cap ping-pongs
        # visibility between them on every alternation.
        system = TimeCacheSystem(smt_limited_config(max_sharers=1))
        system.load(0, 0x1000, now=0)  # ctx0 fills: sole sharer
        r = system.load(1, 0x1000, now=300)  # ctx1 first access...
        assert r.first_access  # ...and takes over the single pointer
        r = system.load(0, 0x1000, now=600)
        # ctx0's visibility was evicted by the overflow: pays again.
        assert r.first_access

    def test_never_grants_unpaid_hits(self):
        """The cap only ever clears bits: cross-context accesses still
        always pay at least once."""
        system = TimeCacheSystem(tiny_config(num_cores=2, max_sharers=1))
        system.load(0, 0x1000, now=0)
        r = system.load(1, 0x1000, now=300)
        assert r.first_access
        assert r.latency >= system.config.hierarchy.latency.dram

    def test_full_bitmap_config_unaffected(self):
        system = TimeCacheSystem(tiny_config(num_cores=2, max_sharers=0))
        system.load(0, 0x1000, now=0)
        system.load(1, 0x1000, now=300)
        r = system.load(0, 0x1000, now=600)
        assert not r.first_access  # both sharers coexist
