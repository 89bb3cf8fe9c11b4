"""Coherence between private caches, with no directory.

The caches' residency names the holders of a line and an L1D's dirty
bit its one modified copy.  A store leaves its L1D the only private
copy; a later fetch by another cache pulls the dirty copy out (a remote
transfer that leaves it clean and the LLC copy dirty); an evicted or
flushed dirty copy is written back.  ``check_inclusion`` holds the
caches to that: every private line is in the LLC, and a dirty private
line sits in an L1D and in no other private cache.

Each test runs on a two-core baseline machine, once per engine.
"""

import dataclasses

import pytest

from repro.common.errors import SimulationError
from repro.core.timecache import TimeCacheSystem

from tests.conftest import tiny_config

ENGINES = ["object", "fast"]
ADDR = 0x1000
OTHER_ADDR = 0x3040  # another L1 set and another LLC set


def _system(engine):
    config = tiny_config(num_cores=2, enabled=False)
    config = dataclasses.replace(
        config, hierarchy=dataclasses.replace(config.hierarchy, engine=engine)
    )
    return TimeCacheSystem(config)


def _holders(hierarchy, line):
    """Each private cache holding ``line``, by name, with its dirty bit."""
    return {
        cache.name: cache.is_dirty(*cache.lookup(line))
        for cache in hierarchy.private_caches()
        if cache.resident(line)
    }


def _llc_dirty(hierarchy, line):
    return hierarchy.llc.is_dirty(*hierarchy.llc.lookup(line))


def _evict_from_l1d(system, core, addr, now):
    """Load as many lines of ``addr``'s L1D set as it has ways, in other
    LLC sets, so ``addr``'s line leaves the core's L1D and stays in the
    LLC.  Returns the cycle after the last load."""
    l1d = system.hierarchy.l1d[core]
    stride = l1d.num_sets * system.hierarchy.config.line_bytes
    for k in range(1, l1d.ways + 1):
        system.load(core, addr + k * stride, now)
        now += 300
    return now


def test_owner_lifecycle():
    """A store takes the only dirty copy, a store by the other core takes
    it over, and a load pulls it out of the writer's L1D."""
    for engine in ENGINES:
        system = _system(engine)
        hierarchy = system.hierarchy
        lat = hierarchy.latency
        line = hierarchy.line_addr(ADDR)
        system.store(0, ADDR, now=0)
        assert _holders(hierarchy, line) == {"L1D0": True}, engine
        system.store(1, ADDR, now=300)
        assert _holders(hierarchy, line) == {"L1D1": True}, engine
        result = system.load(0, ADDR, now=600)
        assert result.level == "remote", engine
        assert result.latency == lat.l1_hit + lat.l2_hit + lat.remote_transfer
        assert _holders(hierarchy, line) == {"L1D0": False, "L1D1": False}, engine
        assert _llc_dirty(hierarchy, line), engine
        hierarchy.check_inclusion()


def test_remove_last_sharer_forgets_line():
    """Two readers' copies evicted: no private cache holds the line, the
    LLC still does."""
    for engine in ENGINES:
        system = _system(engine)
        hierarchy = system.hierarchy
        line = hierarchy.line_addr(ADDR)
        system.load(0, ADDR, now=0)
        system.load(1, ADDR, now=300)
        assert _holders(hierarchy, line) == {"L1D0": False, "L1D1": False}, engine
        now = _evict_from_l1d(system, 0, ADDR, now=600)
        _evict_from_l1d(system, 1, ADDR, now)
        assert _holders(hierarchy, line) == {}, engine
        assert hierarchy.llc.resident(line), engine
        hierarchy.check_inclusion()


def test_removing_owner_sharer_clears_ownership():
    """The writer's dirty copy evicted: it is written back to the LLC,
    and the other core's load is no remote transfer."""
    for engine in ENGINES:
        system = _system(engine)
        hierarchy = system.hierarchy
        line = hierarchy.line_addr(ADDR)
        system.store(0, ADDR, now=0)
        now = _evict_from_l1d(system, 0, ADDR, now=300)
        assert hierarchy.l1d[0].stats.get("writebacks") == 1, engine
        assert _holders(hierarchy, line) == {}, engine
        assert _llc_dirty(hierarchy, line), engine
        assert system.load(1, ADDR, now).level == "LLC", engine
        hierarchy.check_inclusion()


def test_drop_line_clears_the_owner():
    """clflush of a dirty line writes it back to DRAM and leaves no
    private copy; another core's dirty line keeps its copy."""
    for engine in ENGINES:
        system = _system(engine)
        hierarchy = system.hierarchy
        line = hierarchy.line_addr(ADDR)
        other_line = hierarchy.line_addr(OTHER_ADDR)
        system.store(0, ADDR, now=0)
        system.store(1, OTHER_ADDR, now=300)
        writebacks = hierarchy.dram.stats.get("writebacks")
        system.flush(1, ADDR, now=600)
        assert hierarchy.dram.stats.get("writebacks") == writebacks + 1, engine
        assert _holders(hierarchy, line) == {}, engine
        assert not hierarchy.llc.resident(line), engine
        assert _holders(hierarchy, other_line) == {"L1D1": True}, engine
        hierarchy.check_inclusion()


def _drop_from_llc(system, line):
    system.hierarchy.llc.invalidate(line)


def _dirty_in_both_l1ds(system, line):
    for cache in system.hierarchy.l1d:
        cache.mark_dirty(*cache.lookup(line))


def _dirty_in_an_l1i(system, line):
    system.ifetch(0, ADDR, now=900)
    l1i = system.hierarchy.l1i[0]
    l1i.mark_dirty(*l1i.lookup(line))


#: each corruption, with the message of the clause that must reject it
CORRUPTIONS = {
    "line_missing_from_llc": (_drop_from_llc, "L1D0 holds 0x40 but LLC does not"),
    "two_dirty_l1ds": (_dirty_in_both_l1ds, "L1D0 holds 0x40 dirty but L1D1"),
    "dirty_l1i": (_dirty_in_an_l1i, "L1I0 holds 0x40 dirty but is not an L1D"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("engine", ENGINES)
def test_check_inclusion_rejects_a_corrupted_hierarchy(engine, corruption):
    corrupt, message = CORRUPTIONS[corruption]
    system = _system(engine)
    hierarchy = system.hierarchy
    line = hierarchy.line_addr(ADDR)
    system.load(0, ADDR, now=0)
    system.load(1, ADDR, now=300)
    hierarchy.check_inclusion()
    corrupt(system, line)
    with pytest.raises(SimulationError, match=message):
        hierarchy.check_inclusion()
