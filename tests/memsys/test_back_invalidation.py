"""clflush and LLC eviction invalidate every private copy of a line, in
one fixed cache order.

Both go through ``MemoryHierarchy._invalidate_holders``: it invalidates
the line in each private cache that holds it, in ``private_caches()``
order.  The caches' own residency names the holders; no directory keeps
a table of them.  So a flush touches only the caches that hold the
line, and the back-invalidation events of an LLC eviction do not depend
on how the process hashes cache names.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.timecache import TimeCacheSystem
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer

from tests.conftest import tiny_config

ENGINES = ["object", "fast"]


def _system(engine, num_cores):
    config = tiny_config(num_cores=num_cores)
    config = dataclasses.replace(
        config, hierarchy=dataclasses.replace(config.hierarchy, engine=engine)
    )
    return TimeCacheSystem(config)


def evict_line_zero_from_the_llc(system, now):
    """Load lines that share line 0's LLC set from core 0 until the LLC
    evicts line 0.

    Core 0 reloads line 0 before each conflicting load, so it stays in
    L1D0; L1 hits leave the LLC's recency alone, so line 0 is the LLC
    set's least recently used line when the set overflows."""
    hierarchy = system.hierarchy
    llc = hierarchy.llc
    stride = llc.num_sets * hierarchy.config.line_bytes  # same LLC set
    for k in range(1, llc.ways + 1):
        system.load(0, 0, now)
        system.load(0, k * stride, now + 5)
        now += 10
    assert not llc.resident(0)


def llc_eviction_events(engine):
    """The trace of a two-core run whose last load evicts line 0 from the
    LLC while both cores' L1I and L1D hold it."""
    system = _system(engine, num_cores=2)
    ring = RingBufferSink()
    Tracer(ring).attach(system)
    now = 0
    for ctx in (0, 1):
        system.load(ctx, 0, now)
        system.ifetch(ctx, 0, now + 5)
        now += 10
    evict_line_zero_from_the_llc(system, now)
    return [
        [event.kind, event.src, event.ctx, event.ts, sorted(event.args.items())]
        for event in ring.events
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_llc_eviction_events_do_not_depend_on_string_hashing(engine):
    """One two-core LLC eviction back-invalidates four L1 copies; two
    processes with different hash seeds must trace it identically, with
    the copies invalidated in ``private_caches()`` order."""
    repo = Path(__file__).resolve().parents[2]
    src_dir = Path(repro.__file__).resolve().parents[1]
    script = (
        "import json, sys;"
        "from tests.memsys.test_back_invalidation import llc_eviction_events;"
        "print(json.dumps(llc_eviction_events(sys.argv[1])))"
    )
    streams = []
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", script, engine],
            capture_output=True,
            text=True,
            check=True,
            cwd=repo,
            env={
                "PYTHONHASHSEED": hash_seed,
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                "PYTHONPATH": os.pathsep.join([str(src_dir), str(repo)]),
            },
        ).stdout
        streams.append(json.loads(out))
    assert streams[0] == streams[1]
    invalidated = [
        src for kind, src, *_ in streams[0] if kind == "cache.invalidate"
    ]
    assert invalidated == ["L1I0", "L1I1", "L1D0", "L1D1"]


@pytest.mark.parametrize("engine", ENGINES)
def test_flush_invalidates_only_the_caches_holding_the_line(engine, monkeypatch):
    """A line that only L1D0 holds: clflush asks L1D0 and the LLC to
    invalidate it, and no other private cache."""
    system = _system(engine, num_cores=2)
    calls = []
    cache_type = type(system.hierarchy.llc)
    invalidate = cache_type.invalidate

    def recorded(cache, line_addr):
        calls.append((cache.name, line_addr))
        return invalidate(cache, line_addr)

    monkeypatch.setattr(cache_type, "invalidate", recorded)
    system.load(0, 0x4000, now=10)
    result = system.flush(1, 0x4000, now=100)
    line = system.hierarchy.line_addr(0x4000)
    assert calls == [("L1D0", line), ("LLC", line)]
    assert result.latency == system.hierarchy.latency.flush_cached
    assert not system.hierarchy.llc.resident(line)
    assert not system.hierarchy.l1d[0].resident(line)
    system.hierarchy.check_inclusion()


@pytest.mark.parametrize("engine", ENGINES)
def test_two_readers_are_both_back_invalidated(engine):
    """Loads of line 0 from both cores leave each L1D a clean copy.  The
    LLC eviction of the line then invalidates both L1D copies, each
    once."""
    system = _system(engine, num_cores=2)
    hierarchy = system.hierarchy
    system.load(0, 0, now=0)
    system.load(1, 0, now=10)
    assert [cache.resident(0) for cache in hierarchy.l1d] == [True, True]
    assert not any(cache.is_dirty(*cache.lookup(0)) for cache in hierarchy.l1d)
    evict_line_zero_from_the_llc(system, now=20)
    assert [cache.stats.get("invalidations") for cache in hierarchy.l1d] == [1, 1]
    assert not any(cache.resident(0) for cache in hierarchy.private_caches())
    hierarchy.check_inclusion()
