"""The comparison baseline: CAT-style way partitioning + flush-on-switch.

Section VIII-B positions TimeCache against Catalyst/Apparition-style
partitioning, here the registered ``partition_flush`` defense.  The
baseline must be *secure* against the reuse attack (otherwise the
comparison is meaningless) while paying its cost in reduced effective
cache and per-switch flushes.
"""

import pytest

from repro.attacks.flush_reload import run_microbenchmark_attack
from repro.common.errors import SimulationError
from repro.core.timecache import TimeCacheSystem

from tests.conftest import tiny_config


def partition_config():
    return tiny_config(num_cores=1).with_defense("partition_flush")


class TestConfig:
    def test_partitioning_disables_timecache(self):
        cfg = partition_config()
        assert cfg.defense == "partition_flush"
        assert not cfg.timecache.enabled

    def test_cannot_enable_both(self):
        """A configuration names one defense: reshaping a TimeCache
        machine into the partitioned one turns TimeCache off."""
        cfg = tiny_config().with_defense("timecache")
        assert cfg.timecache.enabled
        assert not cfg.with_defense("partition_flush").timecache.enabled

    def test_domains_bounded_by_ways(self):
        hierarchy = TimeCacheSystem(tiny_config().baseline()).hierarchy
        with pytest.raises(SimulationError, match="into 100 domains"):
            hierarchy.enable_partitioning(100)

    def test_attach_splits_the_llc_in_two(self):
        hierarchy = TimeCacheSystem(partition_config()).hierarchy
        assert list(hierarchy.domain_ways(0)) == [0, 1, 2, 3]
        assert list(hierarchy.domain_ways(1)) == [4, 5, 6, 7]


class TestMechanics:
    def test_fills_stay_in_domain_ways(self):
        system = TimeCacheSystem(partition_config())
        hier = system.hierarchy
        system.context_switch(None, incoming_task=1, ctx=0, now=0)  # domain 0
        for i in range(32):
            system.load(0, 0x100000 + i * 64 * hier.llc.num_sets, now=i * 300)
        allowed = hier.domain_ways(0)
        for cset in hier.llc.sets:
            for way, line in enumerate(cset.lines):
                if line is not None:
                    assert way in allowed

    def test_domain_flush_empties_ways(self):
        system = TimeCacheSystem(partition_config())
        hier = system.hierarchy
        system.context_switch(None, 1, ctx=0, now=0)
        for i in range(8):
            system.load(0, 0x100000 + i * 64, now=i * 300)
        flushed = hier.flush_domain_ways(0)
        assert flushed > 0
        for cset in hier.llc.sets:
            for way in hier.domain_ways(0):
                assert cset.lines[way] is None

    def test_switch_between_domains_flushes(self):
        system = TimeCacheSystem(partition_config())
        system.context_switch(None, 1, ctx=0, now=0)
        system.load(0, 0x100000, now=100)
        cost = system.context_switch(1, 2, ctx=0, now=1000)  # other domain
        assert cost.dma_cycles > 0  # flush cost charged
        # task 1's data is gone: reload misses to DRAM
        system.context_switch(2, 1, ctx=0, now=2000)
        r = system.load(0, 0x100000, now=2100)
        assert r.level == "DRAM"

    def test_same_domain_switch_does_not_flush(self):
        system = TimeCacheSystem(partition_config())
        system.context_switch(None, 1, ctx=0, now=0)  # domain 0
        system.context_switch(1, 3, ctx=0, now=100)  # task 3 -> domain 1
        cost = system.context_switch(3, 3, ctx=0, now=200)
        assert cost.dma_cycles == 0


class TestSecurity:
    def test_partitioning_blocks_the_microbenchmark(self):
        outcome = run_microbenchmark_attack(
            partition_config(), shared_lines=32, sleep_cycles=50_000
        )
        assert outcome.probe_hits == 0

    def test_without_flush_partitioning_would_leak(self):
        """Sanity: plain fill-partitioning without the switch flush (the
        naked Intel CAT semantics) leaves the reuse channel open, which
        is exactly why Apparition adds the flush."""
        system = TimeCacheSystem(partition_config())
        hier = system.hierarchy
        system.context_switch(None, 1, ctx=0, now=0)
        system.load(0, 0x100000, now=100)  # victim (domain 0) caches line
        # attacker (domain 1) reads WITHOUT an intervening domain flush:
        hier.set_domain(0, 1)
        r = system.load(0, 0x100000, now=500)
        assert r.level in ("L1", "LLC")  # lookup is global -> fast hit
