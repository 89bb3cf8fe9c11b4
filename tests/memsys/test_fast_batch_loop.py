"""The fast engine's batch loop against one ``access`` per address.

A single-kind load or ifetch batch on the fast engine serves each plain
L1 hit inline and calls the port for everything else; the object
engine calls the port per access.  Each test here runs a batch on a
fresh system and the same accesses through ``access`` on another, on
both engines with TimeCache on and off, and compares everything a batch
may touch: results, s-bits, Tc, valid bits and resident lines, every
LRU stamp, the counters and the clock.

The systems use 16-bit timestamps, as the replay cells do, and issue
past the first rollover (or across it), so a fill's truncated stamp
and a hit's full-cycle stamp differ.  Every test compares after a
batch that ends in plain hits, so a loop that stamped hits with the
truncated time, or left the clock behind its last hit, fails each one.
"""

import dataclasses
from array import array

import numpy as np
import pytest

from repro.common.config import scaled_experiment_config
from repro.common.errors import SimulationError
from repro.core import TimeCacheSystem
from repro.memsys import AccessKind
from repro.memsys.fastengine import FastCache
from repro.memsys.hierarchy import AccessPorts

LINE = 64
LOAD = AccessKind.LOAD
STORE = AccessKind.STORE
ENGINES = ("object", "fast")
#: an issue time past the first 16-bit rollover
T0 = 70_000


def _config(engine, tc_on, threads_per_core=1):
    cfg = scaled_experiment_config(seed=3, engine=engine).with_timecache(
        enabled=tc_on, timestamp_bits=16
    )
    return dataclasses.replace(
        cfg,
        hierarchy=dataclasses.replace(
            cfg.hierarchy, threads_per_core=threads_per_core
        ),
    )


def _pair(engine, tc_on, **kw):
    """Two fresh, identical systems: one for batches, one for ``access``."""
    return [TimeCacheSystem(_config(engine, tc_on, **kw)) for _ in range(2)]


def _lru_stamps(cache):
    """Each slot's LRU stamp, ``None`` for an empty way, on either engine."""
    if isinstance(cache, FastCache):
        return [
            stamp if tag >= 0 else None
            for tag, stamp in zip(cache._tags, cache._last_used)
        ]
    return [
        None if line is None else line.last_used
        for cset in cache.sets
        for line in cset.lines
    ]


def _state(system):
    """Everything a batch must leave as its accesses one by one leave it."""
    hierarchy = system.hierarchy
    return (
        {
            cache.name: (
                cache.sbits.tolist(),
                cache.tc.tolist(),
                cache.valid.tolist(),
                cache.resident_line_addrs(),
                _lru_stamps(cache),
            )
            for cache in hierarchy.all_caches()
        },
        system.stats_snapshot(),
        hierarchy.clock.now,
    )


def _observe(results):
    return [(r.latency, r.level, r.first_access) for r in results]


def _one_by_one(system, ctx, addrs, kind, now, results=None):
    """One ``access`` per address under the batch time rule (advance 1).
    Appends to ``results`` as it goes, so a raise leaves the results of
    the accesses before it there; returns the results and the cursor."""
    results = [] if results is None else results
    for addr in addrs:
        result = system.access(ctx, int(addr), kind, now)
        results.append(result)
        now += 1 + result.latency
    return results, now


def _batch_matches(batched, single, ctx, addrs, now, kind=LOAD):
    """Run ``addrs`` as one batch and one by one; assert they agree and
    return the batch's results and cursor."""
    out = batched.access_batch(ctx, addrs, kind, now=now, advance=1)
    expected, cursor = _one_by_one(single, ctx, addrs, kind, now)
    assert _observe(out.results) == _observe(expected)
    assert out.now == cursor
    assert _state(batched) == _state(single)
    return out


def _is_plain_hit(result):
    return result.level == "L1" and not result.first_access


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tc_on", [True, False])
def test_a_line_another_context_filled_takes_the_port(engine, tc_on):
    """An SMT sibling fills lines in the shared L1, so this context's
    s-bit there is clear: under TimeCache its first access to each is a
    first access that goes down (and sets its L1 and LLC s-bits); the
    next is a plain hit.  With TimeCache off every one is a plain hit."""
    batched, single = _pair(engine, tc_on, threads_per_core=2)
    own = [i * LINE for i in range(12)]
    shared = [(64 + i) * LINE for i in range(4)]
    for system in (batched, single):
        _one_by_one(system, 1, shared, LOAD, T0)
    warm = _batch_matches(batched, single, 0, own * 2, T0 + 2_000)
    out = _batch_matches(
        batched, single, 0, own + shared + shared + own, warm.now
    )
    first, second = out.results[12:16], out.results[16:20]
    assert all(map(_is_plain_hit, second))
    hierarchy = batched.hierarchy
    l1d, llc = hierarchy.l1d[0], hierarchy.llc
    for addr in shared:
        line = addr >> hierarchy.line_shift
        l1_bits = l1d.sbits[l1d.lookup(line)]
        llc_bits = llc.sbits[llc.lookup(line)]
        if tc_on:
            # both siblings see the line at both levels now
            assert l1_bits == 0b11 and llc_bits == 0b11
        else:
            assert l1_bits == 0b10  # fill rule only: the filler's bit
    if tc_on:
        assert all(r.first_access and r.level == "DRAM" for r in first)
    else:
        assert all(map(_is_plain_hit, first))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tc_on", [True, False])
def test_listeners_attached_between_batches_see_every_access(engine, tc_on):
    """A pre- and a post-access listener attached after a batch see
    every access of the next batch, in order, with the issue times and
    results that one ``access`` per address shows them."""
    batched, single = _pair(engine, tc_on)
    first = [(i % 10) * LINE for i in range(40)]
    second = [(i * 7 % 30) * LINE for i in range(90)]
    warm = _batch_matches(batched, single, 0, first, T0)
    seen = {}
    for name, system in (("batch", batched), ("access", single)):
        log = seen[name] = []
        hierarchy = system.hierarchy
        hierarchy.pre_access_listeners.append(
            lambda ctx, line, kind, now, log=log: log.append(
                ("pre", ctx, line, kind, now)
            )
        )
        hierarchy.post_access_listeners.append(
            lambda ctx, line, kind, now, r, log=log: log.append(
                ("post", ctx, line, kind, now, r.latency, r.level)
            )
        )
    _batch_matches(batched, single, 0, second, warm.now)
    assert seen["batch"] == seen["access"]
    assert [event[2] for event in seen["batch"][::2]] == [
        addr // LINE for addr in second
    ]
    assert [event[0] for event in seen["batch"]] == ["pre", "post"] * 90


def _inclusion_fault(system, victim):
    """Drop ``victim`` from the LLC behind its L1 copy and clear the
    L1D's s-bits: the next access to it probes down and raises."""
    hierarchy = system.hierarchy
    hierarchy.llc.invalidate(victim >> hierarchy.line_shift)
    hierarchy.l1d[0].sbits[:] = 0


def _writeback_fault(system, victim):
    """Drop the dirty ``victim`` from the LLC behind its L1 copy: the
    fill that evicts it from the L1 raises at the writeback."""
    hierarchy = system.hierarchy
    hierarchy.llc.invalidate(victim >> hierarchy.line_shift)


#: (TimeCache on, fault): the first-access probe raises only under TimeCache
RAISING = [(True, "probe"), (True, "writeback"), (False, "writeback")]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tc_on,fault", RAISING)
def test_a_port_raising_mid_batch_leaves_what_access_leaves(
    engine, tc_on, fault
):
    """A port that raises after some accesses of the batch ran — plain
    hits served by the loop among them — leaves the results so far, the
    counters, the LRU stamps and the clock as one ``access`` per
    address does when the same access raises.  A raising batch returns
    nothing, so this drives the loop with a results list it can read."""
    batched, single = _pair(engine, tc_on)
    # L1D set 4 holds only the victim line; the others sit in other sets
    victim = (4 + 16 * 6) * LINE
    warm = [i * LINE for i in (0, 1, 2, 3, 5, 6, 7, 8)]
    for system in (batched, single):
        system.access(0, victim, STORE, T0)
    out = _batch_matches(batched, single, 0, warm * 2, T0 + 500)
    if fault == "probe":
        addrs = warm + warm + [victim] + warm
        match = "inclusion violated"
        make_fault = _inclusion_fault
    else:
        # the fourth new line of the victim's set evicts it
        addrs = warm + [(4 + 16 * k) * LINE for k in range(7, 13)] + warm
        match = "writeback of line"
        make_fault = _writeback_fault
    for system in (batched, single):
        make_fault(system, victim)
    results, expected = [], []
    with pytest.raises(SimulationError, match=match):
        batched.hierarchy._batch_loop(0, addrs, LOAD, out.now, 1, None, results)
    with pytest.raises(SimulationError, match=match):
        _one_by_one(single, 0, addrs, LOAD, out.now, expected)
    assert _observe(results) == _observe(expected)
    assert sum(map(_is_plain_hit, results)) >= len(warm)
    assert _state(batched) == _state(single)
    stats = batched.stats_snapshot()
    assert stats["hierarchy.accesses"] == stats["L1D0.accesses"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tc_on", [True, False])
def test_a_rollover_mid_batch_keeps_the_lru_victims(engine, tc_on):
    """Six lines of one L1D set share its four ways while the 16-bit
    timestamps roll over mid-batch: fills after the rollover stamp small
    truncated times, hits stamp the full cycle, and LRU picks among the
    mix.  The L1D evicts the same lines in the same order as with one
    ``access`` per address."""
    batched, single = _pair(engine, tc_on)
    lines = [(3 + 16 * k) * LINE for k in range(6)]
    pattern = [(i * 5 + i // 7) % 6 for i in range(400)]
    addrs = [lines[k] for k in pattern] + [lines[pattern[-1]]] * 3
    evicted = {}
    for name, system in (("batch", batched), ("access", single)):
        log = evicted[name] = []
        system.hierarchy.l1d[0].add_event_listener(
            lambda event, set_idx, way, ctx, log=log: log.append(
                (event, set_idx, way)
            )
        )
    start = (1 << 16) - 1_500
    out = _batch_matches(batched, single, 0, addrs, start)
    assert start < 1 << 16 < out.now
    assert evicted["batch"] == evicted["access"]
    assert sum(event[0] == "evict" for event in evicted["batch"]) > 100
    stamps = [s for s in _lru_stamps(batched.hierarchy.l1d[0]) if s is not None]
    assert any(s >= 1 << 16 for s in stamps)  # a full-cycle hit stamp


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tc_on", [True, False])
@pytest.mark.parametrize("container", ["list", "array", "numpy"])
def test_address_containers_and_the_batches_that_take_the_port(
    engine, tc_on, container
):
    """A list, an ``array('q')`` and a NumPy int64 array of addresses
    batch alike.  The fast engine calls the port only for what is not a
    plain L1 hit; a per-address ``kinds`` batch and a ``nows`` batch
    call it at every access, on either engine."""
    wrap = {
        "list": list,
        "array": lambda a: array("q", a),
        "numpy": lambda a: np.array(a, dtype=np.int64),
    }[container]
    batched, single = _pair(engine, tc_on)
    addrs = [(i * 7 % 40) * LINE for i in range(200)] + [0] * 3
    n = len(addrs)
    hierarchy = batched.hierarchy
    calls = []

    def counted(port):
        def call(addr, now):
            calls.append(addr)
            return port(addr, now)

        return call

    hierarchy._ports[0] = AccessPorts(*map(counted, hierarchy.ports(0)))
    out = _batch_matches(batched, single, 0, wrap(addrs), T0)
    plain = sum(map(_is_plain_hit, out.results))
    assert plain > n // 2
    assert len(calls) == (n - plain if engine == "fast" else n)
    assert all(type(addr) is int for addr in calls)  # not NumPy scalars

    calls.clear()
    kinds = batched.access_batch(0, wrap(addrs), [LOAD] * n, now=out.now)
    expected, cursor = _one_by_one(single, 0, addrs, LOAD, out.now)
    assert (_observe(kinds.results), kinds.now) == (_observe(expected), cursor)
    assert len(calls) == n

    calls.clear()
    nows = [cursor + 300 * i for i in range(n)]
    pinned = batched.access_batch(0, wrap(addrs), LOAD, nows=nows)
    expected = [single.access(0, a, LOAD, t) for a, t in zip(addrs, nows)]
    assert _observe(pinned.results) == _observe(expected)
    assert len(calls) == n
    assert _state(batched) == _state(single)
