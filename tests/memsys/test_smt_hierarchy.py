"""Hierarchy semantics with SMT (two hardware contexts per L1).

On a hyperthreaded core the L1 itself is shared between contexts, so the
first-access discipline applies at the innermost level — the paper's
"same core, another hyperthread" threat vector.
"""

import pytest

from repro.common.config import (
    CacheConfig,
    HierarchyConfig,
    SimConfig,
    TimeCacheConfig,
)
from repro.common.units import KIB
from repro.core.timecache import TimeCacheSystem


def smt_system(enabled=True, cores=1):
    cfg = SimConfig(
        hierarchy=HierarchyConfig(
            num_cores=cores,
            threads_per_core=2,
            l1i=CacheConfig("L1I", 1 * KIB, ways=4),
            l1d=CacheConfig("L1D", 1 * KIB, ways=4),
            llc=CacheConfig("LLC", 16 * KIB, ways=8),
        ),
        timecache=TimeCacheConfig(sbit_dma_cycles=20),
    )
    return TimeCacheSystem(cfg if enabled else cfg.baseline())


def test_sibling_contexts_share_l1():
    system = smt_system(enabled=False)
    system.load(0, 0x1000, now=0)
    r = system.load(1, 0x1000, now=300)  # sibling hyperthread
    assert r.level == "L1"  # baseline: L1-fast reuse across contexts


def test_sibling_first_access_delayed_at_l1():
    system = smt_system(enabled=True)
    system.load(0, 0x1000, now=0)
    r = system.load(1, 0x1000, now=300)
    assert r.first_access
    assert r.latency >= system.config.hierarchy.latency.dram
    # L1 recorded the first access (the line was resident there)
    assert system.hierarchy.l1d[0].stats.get("first_access_misses") == 1


def test_sibling_pays_once_then_hits():
    system = smt_system(enabled=True)
    system.load(0, 0x1000, now=0)
    system.load(1, 0x1000, now=300)
    r = system.load(1, 0x1000, now=900)
    assert r.level == "L1" and not r.first_access


def test_four_contexts_across_two_smt_cores():
    system = smt_system(enabled=True, cores=2)
    system.load(0, 0x1000, now=0)  # core0/thread0 fills everywhere
    # core0/thread1: line resident in shared L1 -> L1 first access
    r1 = system.load(1, 0x1000, now=300)
    assert r1.first_access
    # core1/thread0: L1 miss, LLC first access
    r2 = system.load(2, 0x1000, now=600)
    assert r2.first_access
    # core1/thread1: L1 *hit* (thread 2 filled core1's L1) but own s-bit
    # clear -> first access at L1; LLC s-bit also clear -> DRAM probe
    r3 = system.load(3, 0x1000, now=900)
    assert r3.first_access
    assert r3.latency >= system.config.hierarchy.latency.dram
    # everyone has paid: all four now hit
    for ctx in range(4):
        r = system.load(ctx, 0x1000, now=2000 + ctx)
        assert not r.first_access


def test_ctx_mapping():
    system = smt_system(cores=2)
    hier = system.hierarchy
    assert hier.core_of_ctx(0) == 0
    assert hier.core_of_ctx(1) == 0
    assert hier.core_of_ctx(2) == 1
    assert hier.core_of_ctx(3) == 1
    with pytest.raises(Exception):
        hier.core_of_ctx(4)


def test_l1_sbit_columns_independent_per_sibling():
    system = smt_system(enabled=True)
    l1d = system.hierarchy.l1d[0]
    system.load(0, 0x1000, now=0)
    pos = l1d.lookup(system.hierarchy.line_addr(0x1000))
    assert l1d.sbit_is_set(*pos, ctx=0)
    assert not l1d.sbit_is_set(*pos, ctx=1)
