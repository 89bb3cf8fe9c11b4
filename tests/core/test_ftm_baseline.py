"""FTM (First Time Miss) — the related-work comparison (§II-C, §VIII-B2).

FTM detects first accesses with per-core directory presence bits at the
LLC only, with no context-switch handling; here it is the registered
``ftm`` defense.  The paper's threat-model argument: FTM blocks the
cross-core reuse channel but "assumes that the victim and attacker …
must otherwise run on isolated hardware" — it cannot separate processes
time-sliced on one core, nor SMT siblings.  These tests reproduce that
comparison point for point.
"""

import pytest

from repro.attacks.flush_reload import run_microbenchmark_attack
from repro.common.config import (
    CacheConfig,
    HierarchyConfig,
    SimConfig,
)
from repro.common.errors import SimulationError
from repro.common.units import KIB
from repro.core.timecache import TimeCacheSystem

from tests.conftest import tiny_config


def ftm_config(num_cores=2, threads_per_core=1):
    cfg = SimConfig(
        hierarchy=HierarchyConfig(
            num_cores=num_cores,
            threads_per_core=threads_per_core,
            l1i=CacheConfig("L1I", 1 * KIB, ways=4),
            l1d=CacheConfig("L1D", 1 * KIB, ways=4),
            llc=CacheConfig("LLC", 16 * KIB, ways=8),
        ),
        quantum_cycles=5_000,
        context_switch_cycles=50,
    ).with_defense("ftm")
    cfg.validate()
    return cfg


def test_ftm_and_timecache_mutually_exclusive():
    """FTM is a machine of its own: the plugin turns TimeCache off, so
    no configuration runs both."""
    cfg = tiny_config().with_defense("ftm")
    assert cfg.defense == "ftm"
    assert not cfg.timecache.enabled


def test_ftm_keys_the_llc_by_core():
    system = TimeCacheSystem(ftm_config(num_cores=2, threads_per_core=2))
    hierarchy = system.hierarchy
    assert hierarchy._llc_sbit_ctx == [0, 0, 2, 2]
    assert hierarchy._llc_first_access_guard
    # ports bind with the table they find, so it cannot change later
    hierarchy.ports(0)
    with pytest.raises(SimulationError, match="before any port"):
        hierarchy.enable_ftm()


class TestFtmBlocksCrossCore:
    def test_cross_core_first_access_delayed(self):
        system = TimeCacheSystem(ftm_config(num_cores=2))
        system.load(0, 0x1000, now=0)  # core 0 fills
        r = system.load(1, 0x1000, now=300)  # core 1: first time miss
        assert r.first_access
        assert r.latency >= system.config.hierarchy.latency.dram

    def test_second_cross_core_access_hits(self):
        system = TimeCacheSystem(ftm_config(num_cores=2))
        system.load(0, 0x1000, now=0)
        system.load(1, 0x1000, now=300)
        r = system.load(1, 0x1000, now=900)
        assert not r.first_access


class TestFtmGaps:
    """The paper's criticism, reproduced: FTM's presence bits are per
    core and survive context switches, so same-core attacks go through."""

    def test_same_core_time_sliced_attack_succeeds_under_ftm(self):
        outcome = run_microbenchmark_attack(
            ftm_config(num_cores=1), shared_lines=32, sleep_cycles=50_000
        )
        assert outcome.probe_hits == outcome.probe_total  # FTM leaks

    def test_same_attack_blocked_by_timecache(self):
        outcome = run_microbenchmark_attack(
            tiny_config(num_cores=1), shared_lines=32, sleep_cycles=50_000
        )
        assert outcome.probe_hits == 0

    def test_smt_sibling_leaks_under_ftm(self):
        """Hyperthreads share the core, hence the presence bit: the
        sibling's reload reads as already-present."""
        system = TimeCacheSystem(ftm_config(num_cores=1, threads_per_core=2))
        system.flush(0, 0x1000, now=0)
        system.load(1, 0x1000, now=100)  # victim sibling refills
        r = system.load(0, 0x1000, now=400)  # attacker sibling reloads
        # L1 is shared and FTM does not guard it: fast hit -> leak
        assert r.level == "L1"
        assert not r.first_access

    def test_smt_sibling_blocked_by_timecache(self):
        cfg = ftm_config(num_cores=1, threads_per_core=2)
        system = TimeCacheSystem(cfg.with_defense("timecache"))
        system.flush(0, 0x1000, now=0)
        system.load(1, 0x1000, now=100)
        r = system.load(0, 0x1000, now=400)
        assert r.first_access

    def test_ftm_ignores_context_switches(self):
        """Presence bits persist across switches: a new process inherits
        the previous one's visibility on the same core — the reuse hole."""
        system = TimeCacheSystem(ftm_config(num_cores=1))
        system.context_switch(None, 1, ctx=0, now=0)
        system.load(0, 0x1000, now=100)  # process 1 loads
        cost = system.context_switch(1, 2, ctx=0, now=1000)
        assert cost.total == 0  # FTM has no switch bookkeeping
        # evict from L1 so the access is answered at the LLC, where the
        # FTM presence bit (per core, not per process) still claims it
        for i in range(1, 6):
            system.load(0, 0x1000 + i * 256, now=1000 + i * 300)
        r = system.load(0, 0x1000, now=5000)
        assert not r.first_access  # process 2 rides process 1's bit
        assert r.level == "LLC"
