"""Differential fuzz: the fast engine must be bit-identical to the object one.

Each scenario replays the same seeded random trace through both engines and
asserts that every ``AccessResult`` (latency, level, first_access), every
context-switch cost, the full stats snapshot, and the final architectural
state (s-bits, Tc, valid bits, resident tags per cache, and the
directory's non-empty sharer sets and owners) agree exactly.

Nine scenarios x twenty seeds = 180 random traces, covering the defense on
and off, context switches, multi-core stores and coherence, SMT sibling
contexts, the FTM defense, limited-pointer sharer eviction, the
DRAM-latency-on-first-access hardening, and narrow-timestamp rollover.
Every registered defense (the FTM and CAT partition+flush arms among
them) is fuzzed the same way on a two-core machine.
Each trace also runs through every context's ports, on each engine, and
must match its ``access`` run.  The batched arm cuts a trace into
same-context, single-kind chunks issued under the blocking CPU's rule,
each through one ``access_batch``, and holds them to a scalar twin that
sends the identical (ctx, addr, kind, issue time) stream through
``access``; on the fast engine the batches' plain L1 hits are served by
its batch loop without a port call.
Every trace ends with the inclusion check: each private line is in the
LLC and listed among the line's directory sharers.  On the fast engine
it ends with the slot-state check too: each cache's line-to-slot map
names exactly its occupied slots, and its per-set occupancy counts them.
The resident lines of each cache must agree in order, not only as sets.
A reset arm zeroes every cache's, the hierarchy's and DRAM's counters
mid-trace, in both orders, and the snapshots must still agree.  An
access that raises below its L1 counts alike on both engines, through
``access``, a tape walk and a batch.
"""

import dataclasses

import pytest

from repro.common.config import CacheConfig, scaled_experiment_config
from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRng
from repro.common.units import KIB
from repro.core import TimeCacheSystem
from repro.memsys import AccessKind, BatchResult
from repro.memsys.cache import Cache
from repro.memsys.fastengine import FastCache
from repro.memsys.hierarchy import AccessPorts

SEEDS = range(20)

KINDS = (
    AccessKind.LOAD,
    AccessKind.LOAD,
    AccessKind.LOAD,
    AccessKind.STORE,
    AccessKind.IFETCH,
)


def _replace_hierarchy(cfg, **changes):
    return dataclasses.replace(
        cfg, hierarchy=dataclasses.replace(cfg.hierarchy, **changes)
    )


# name -> (config factory taking engine + seed, contexts, switches?)
def _base(engine, seed):
    return scaled_experiment_config(engine=engine)


SCENARIOS = {
    "baseline_off": (lambda e, s: _base(e, s).baseline(), 1, False),
    "tc_on": (_base, 1, False),
    "tc_on_switches": (_base, 1, True),
    "two_cores_stores": (
        lambda e, s: scaled_experiment_config(num_cores=2, engine=e),
        2,
        True,
    ),
    "smt_siblings": (
        lambda e, s: _replace_hierarchy(_base(e, s), threads_per_core=2),
        2,
        True,
    ),
    "ftm": (
        lambda e, s: scaled_experiment_config(
            num_cores=2, engine=e
        ).with_defense("ftm"),
        2,
        True,
    ),
    "max_sharers": (
        lambda e, s: scaled_experiment_config(
            num_cores=2, engine=e
        ).with_timecache(max_sharers=1),
        2,
        True,
    ),
    "dram_first_access": (
        lambda e, s: _base(e, s).with_timecache(
            dram_latency_on_first_access=True
        ),
        1,
        False,
    ),
    "narrow_timestamp_rollover": (
        lambda e, s: _base(e, s).with_timecache(timestamp_bits=8),
        1,
        True,
    ),
}


def _check_slots(cache):
    """A fast cache's slot state is self-consistent: ``_slot_of[line] ==
    idx`` exactly when ``_tags[idx] == line``, each slot in its line's
    set; ``_occ`` counts each set's occupied ways; valid bits mirror
    the occupied slots."""
    ways = cache.ways
    tags = cache._tags
    occupied = {tag: idx for idx, tag in enumerate(tags) if tag >= 0}
    assert cache._slot_of == occupied, cache.name
    for line, idx in occupied.items():
        assert idx // ways == line & cache._set_mask, cache.name
    assert cache._occ == [
        sum(tag >= 0 for tag in tags[base : base + ways])
        for base in range(0, len(tags), ways)
    ], cache.name
    assert sum(cache._occ) == len(occupied), f"{cache.name}: duplicate tags"
    assert cache.valid.reshape(-1).tolist() == [tag >= 0 for tag in tags]


def _run_trace(
    config,
    seed,
    contexts,
    switches,
    n=500,
    pool=192,
    traced=False,
    chunks=None,
    kinds=KINDS,
    stride=1,
    ported=False,
    resets=(),
):
    """Drive one system with a seeded random trace; return observables.

    With ``traced`` an obs Tracer is attached for the whole trace and the
    emitted event stream comes back as the fourth observable — on the fast
    engine the listener forces every access through the event-emitting
    slow routes, so this also fuzzes those against the object model.

    With ``chunks`` the same draws are cut into same-context,
    single-kind chunks of random size — drawn from a separate rng, so
    the draws are unchanged — ended early by a context switch or a
    counter reset.  A chunk's first access issues its drawn gap after
    the previous chunk's cursor, each next one a cycle plus the latency
    after the one before, as the blocking CPU issues them.
    ``chunks="batch"`` issues each chunk through one ``access_batch``;
    ``chunks="access"`` is its scalar twin, the identical (ctx, addr,
    kind, issue time) stream through ``access``.  A batch run counts
    the context ports' calls, and returns as a fifth observable the
    accesses its batches served without one (``None`` otherwise).

    With ``ported`` each scalar access calls the port of its kind from
    the context's ports (``TimeCacheSystem.access_ports``, fetched once
    per context) instead of ``access``.

    At each access index in ``resets`` every cache's, the hierarchy's
    and DRAM's ``stats.reset()`` runs just before the access: the
    hierarchy last at the first index, first at the next, and so on.
    """
    system = TimeCacheSystem(config)
    hierarchy = system.hierarchy
    ports_of = {}
    tracer = ring = None
    if traced:
        from repro.obs import RingBufferSink, Tracer

        ring = RingBufferSink()
        tracer = Tracer(ring)
        tracer.attach(system)
    port_calls = []
    if chunks == "batch":

        def counted(port):
            def call(addr, now):
                port_calls.append(addr)
                return port(addr, now)

            return call

        for ctx in range(contexts):
            hierarchy._ports[ctx] = AccessPorts(*map(counted, hierarchy.ports(ctx)))
    rng = DeterministicRng(seed * 7919 + 13)
    events = []
    now = 0
    task_of_ctx = {ctx: ctx for ctx in range(contexts)}
    next_task = contexts
    split_rng = DeterministicRng(seed * 104_729 + 7)
    pending = []  # one chunk's addresses, not yet issued
    pending_ctx = pending_kind = start = None
    limit = split_rng.randint(1, 120)
    batched = 0  # results the batches returned

    def flush_pending():
        nonlocal limit, now, batched
        if not pending:
            return
        if chunks == "batch":
            outcome = system.access_batch(pending_ctx, pending, pending_kind, start)
            results, now = outcome.results, outcome.now
            batched += len(results)
        else:
            results, now = [], start
            for addr in pending:
                result = system.access(pending_ctx, addr, pending_kind, now)
                results.append(result)
                now += 1 + result.latency
        for result in results:
            events.append((result.latency, result.level, result.first_access))
        pending.clear()
        limit = split_rng.randint(1, 120)

    groups = [c.stats for c in hierarchy.all_caches()] + [hierarchy.stats]
    for i in range(n):
        if i in resets:
            flush_pending()
            for group in groups:
                group.reset()
            hierarchy.dram.stats.reset()
            groups.reverse()
        gap = rng.randint(1, 50)
        ctx = rng.randint(0, contexts - 1) if contexts > 1 else 0
        addr = (rng.randint(0, pool - 1) * stride) << 6
        kind = kinds[rng.randint(0, len(kinds) - 1)]
        if chunks:
            if pending and (
                (ctx, kind) != (pending_ctx, pending_kind) or len(pending) >= limit
            ):
                flush_pending()
            if not pending:
                pending_ctx, pending_kind, start = ctx, kind, now + gap
            pending.append(addr)
        else:
            now += gap
            if ported:
                if ctx not in ports_of:
                    ports_of[ctx] = system.access_ports(ctx)
                result = ports_of[ctx].of(kind)(addr, now)
            else:
                result = system.access(ctx, addr, kind, now)
            events.append((result.latency, result.level, result.first_access))
        if switches and i % 97 == 96:
            flush_pending()
            ctx = rng.randint(0, contexts - 1) if contexts > 1 else 0
            if rng.randint(0, 2) == 0:
                next_task += 1
            incoming = rng.randint(0, next_task - 1)
            cost = system.context_switch(task_of_ctx[ctx], incoming, ctx, now)
            task_of_ctx[ctx] = incoming
            events.append(
                (
                    "switch",
                    cost.dma_cycles,
                    cost.comparator_cycles,
                    cost.rollover_reset,
                )
            )
    flush_pending()
    hierarchy.check_inclusion()
    final = {}
    for cache in system.hierarchy.all_caches():
        if isinstance(cache, FastCache):
            _check_slots(cache)
        final[cache.name] = (
            cache.sbits.tolist(),
            cache.tc.tolist(),
            cache.valid.tolist(),
            cache.resident_line_addrs(),
        )
    # A fast port leaves a line's emptied sharer set in place, where the
    # reference deletes it; every reader treats the two alike.
    directory = hierarchy.directory
    final["directory"] = (
        {line: held for line, held in directory._sharers.items() if held},
        dict(directory._owner),
    )
    trace = None
    if traced:
        tracer.detach()
        trace = [
            (e.kind, e.src, e.ctx, e.ts, tuple(sorted(e.args.items())))
            for e in ring.events
        ]
        assert ring.dropped == 0
    inline = batched - len(port_calls) if chunks == "batch" else None
    return events, system.stats_snapshot(), final, trace, inline


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree(scenario, seed):
    make_config, contexts, switches = SCENARIOS[scenario]
    obj = _run_trace(
        make_config("object", seed), seed, contexts, switches
    )
    fast = _run_trace(
        make_config("fast", seed), seed, contexts, switches
    )
    assert obj[0] == fast[0], f"{scenario}: access/switch streams diverge"
    assert obj[1] == fast[1], f"{scenario}: stats snapshots diverge"
    assert obj[2] == fast[2], f"{scenario}: final cache state diverges"
    for engine, accessed in (("object", obj), ("fast", fast)):
        ported = _run_trace(
            make_config(engine, seed), seed, contexts, switches, ported=True
        )
        assert ported[:3] == accessed[:3], f"{scenario}: {engine} ports diverge"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(5))
def test_engines_agree_after_stats_reset(scenario, seed):
    """Counters reset mid-trace — then more accesses and context
    switches — read the same on both engines: a zeroed counter is
    reported by neither, and a reset cache leaves the hierarchy's
    access count alone whichever is reset first."""
    make_config, contexts, switches = SCENARIOS[scenario]
    resets = (150, 330)
    obj = _run_trace(
        make_config("object", seed), seed, contexts, switches, resets=resets
    )
    fast = _run_trace(
        make_config("fast", seed), seed, contexts, switches, resets=resets
    )
    plain = _run_trace(make_config("fast", seed), seed, contexts, switches)
    assert obj[0] == fast[0] == plain[0], f"{scenario}: streams diverge"
    assert obj[1] == fast[1], f"{scenario}: stats snapshots diverge"
    assert obj[2] == fast[2], f"{scenario}: final cache state diverges"
    assert fast[1] != plain[1], f"{scenario}: the resets zeroed nothing"


#: a TimeCache-on and a TimeCache-off scenario whose batches must give
#: the fast engine's batch loop plain L1 hits to serve without a port
INLINE_SCENARIOS = ("tc_on", "baseline_off")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(10))
def test_batched_path_matches_scalar(scenario, seed):
    """``access_batch`` must be bit-identical to the scalar loop — access
    results, switch costs, stats, and final s-bits/Tc — on both engines,
    with single-kind batches split at random sizes and every context
    switch.  The fast engine's batch loop serves plain L1 hits without a
    port call; the object engine's calls a port per access."""
    make_config, contexts, switches = SCENARIOS[scenario]
    scalar = _run_trace(
        make_config("fast", seed), seed, contexts, switches, chunks="access"
    )
    batched = _run_trace(
        make_config("fast", seed), seed, contexts, switches, chunks="batch"
    )
    obj_batched = _run_trace(
        make_config("object", seed), seed, contexts, switches, chunks="batch"
    )
    assert batched[0] == scalar[0], f"{scenario}: batched results diverge"
    assert batched[1] == scalar[1], f"{scenario}: batched stats diverge"
    assert batched[2] == scalar[2], f"{scenario}: batched final state diverges"
    assert obj_batched[0] == scalar[0], f"{scenario}: object batch diverges"
    assert obj_batched[1] == scalar[1], f"{scenario}: object batch stats"
    assert obj_batched[2] == scalar[2], f"{scenario}: object batch state"
    assert obj_batched[4] == 0, f"{scenario}: object batch skipped a port"
    if scenario in INLINE_SCENARIOS:
        assert batched[4] > 0, f"{scenario}: no plain hit served inline"


#: adversarial stream shapes: every entry is deliberately dominated by
#: fills, evictions, or stores —
#: name -> (config factory, contexts, switches, _run_trace overrides)
STRESS_SCENARIOS = {
    # pool far beyond LLC capacity: nearly every access misses and
    # fills/evictions run back to back through every level
    "eviction_heavy": (_base, 1, True, {"pool": 1500}),
    # every line lands in the same set (stride covers any power-of-two
    # set count up to 64): chained same-set victim selection
    "conflict_heavy": (_base, 1, False, {"pool": 48, "stride": 64}),
    # mostly stores, two cores with switches: the store/dirty path plus
    # store-probes on shared lines
    "store_heavy": (
        lambda e, s: scaled_experiment_config(num_cores=2, engine=e),
        2,
        True,
        {
            "pool": 96,
            "kinds": (
                AccessKind.STORE,
                AccessKind.STORE,
                AccessKind.STORE,
                AccessKind.LOAD,
                AccessKind.IFETCH,
            ),
        },
    ),
}


@pytest.mark.parametrize("scenario", sorted(STRESS_SCENARIOS))
@pytest.mark.parametrize("seed", range(8))
def test_kernel_stress_streams(scenario, seed):
    """Eviction-heavy, conflict-heavy, and store-heavy streams through
    the batch API must stay bit-identical to the scalar loop and to the
    object engine."""
    make_config, contexts, switches, kw = STRESS_SCENARIOS[scenario]
    scalar = _run_trace(
        make_config("fast", seed), seed, contexts, switches, chunks="access", **kw
    )
    batched = _run_trace(
        make_config("fast", seed), seed, contexts, switches, chunks="batch", **kw
    )
    obj_batched = _run_trace(
        make_config("object", seed),
        seed,
        contexts,
        switches,
        chunks="batch",
        **kw,
    )
    assert batched[0] == scalar[0], f"{scenario}: batched results diverge"
    assert batched[1] == scalar[1], f"{scenario}: batched stats diverge"
    assert batched[2] == scalar[2], f"{scenario}: batched final state diverges"
    assert obj_batched[0] == scalar[0], f"{scenario}: object batch diverges"
    assert obj_batched[1] == scalar[1], f"{scenario}: object batch stats"
    assert obj_batched[2] == scalar[2], f"{scenario}: object batch state"


#: scenarios re-fuzzed with a tracer attached (subset: traced runs take the
#: fast engine's slow routes, so the cheap scenarios cover the event paths)
TRACED_SCENARIOS = (
    "baseline_off",
    "tc_on_switches",
    "two_cores_stores",
    "max_sharers",
    "narrow_timestamp_rollover",
)


@pytest.mark.parametrize("scenario", TRACED_SCENARIOS)
@pytest.mark.parametrize("seed", range(5))
def test_engines_emit_identical_event_streams(scenario, seed):
    """Both engines must produce the *same trace*, event for event —
    kind, source cache, context, timestamp, and payload, in order."""
    make_config, contexts, switches = SCENARIOS[scenario]
    obj = _run_trace(
        make_config("object", seed), seed, contexts, switches, traced=True
    )
    fast = _run_trace(
        make_config("fast", seed), seed, contexts, switches, traced=True
    )
    assert obj[3] == fast[3], f"{scenario}: trace event streams diverge"
    assert obj[0] == fast[0], f"{scenario}: access/switch streams diverge"
    assert obj[1] == fast[1], f"{scenario}: stats snapshots diverge"
    assert obj[2] == fast[2], f"{scenario}: final cache state diverges"
    for engine, accessed in (("object", obj), ("fast", fast)):
        ported = _run_trace(
            make_config(engine, seed),
            seed,
            contexts,
            switches,
            traced=True,
            ported=True,
        )
        assert ported == accessed, f"{scenario}: {engine} traced ports diverge"


@pytest.mark.parametrize("scenario", TRACED_SCENARIOS)
@pytest.mark.parametrize("seed", range(3))
def test_batched_traced_event_streams(scenario, seed):
    """With a tracer attached the batched path must emit the identical
    event stream."""
    make_config, contexts, switches = SCENARIOS[scenario]
    scalar = _run_trace(
        make_config("fast", seed),
        seed,
        contexts,
        switches,
        traced=True,
        chunks="access",
    )
    batched = _run_trace(
        make_config("fast", seed),
        seed,
        contexts,
        switches,
        traced=True,
        chunks="batch",
    )
    assert batched[3] == scalar[3], f"{scenario}: traced streams diverge"
    assert batched[0] == scalar[0], f"{scenario}: batched results diverge"
    assert batched[1] == scalar[1], f"{scenario}: batched stats diverge"
    assert batched[2] == scalar[2], f"{scenario}: batched state diverges"


# ---------------------------------------------------------------------------
# the defense zoo: every registered defense fuzzed reference-vs-fast
# ---------------------------------------------------------------------------
from repro.defenses import defense_names  # noqa: E402


def _defense_config(name, engine, seed):
    """Each defense on the same two-core machine, via its own
    ``configure`` transform — exactly how a tournament cell builds it."""
    from repro.defenses import get_defense

    return get_defense(name).configure(
        scaled_experiment_config(num_cores=2, engine=engine)
    )


@pytest.mark.parametrize("defense", defense_names())
@pytest.mark.parametrize("seed", range(8))
def test_defense_engines_agree(defense, seed):
    """Under every registered defense the fast engine must stay
    bit-identical to the object one — access results, switch costs
    (including the defense's own contribution), stats, final state."""
    obj = _run_trace(
        _defense_config(defense, "object", seed), seed, 2, True
    )
    fast = _run_trace(
        _defense_config(defense, "fast", seed), seed, 2, True
    )
    assert obj[0] == fast[0], f"{defense}: access/switch streams diverge"
    assert obj[1] == fast[1], f"{defense}: stats snapshots diverge"
    assert obj[2] == fast[2], f"{defense}: final cache state diverges"
    for engine, accessed in (("object", obj), ("fast", fast)):
        ported = _run_trace(
            _defense_config(defense, engine, seed), seed, 2, True, ported=True
        )
        assert ported[:3] == accessed[:3], f"{defense}: {engine} ports diverge"


@pytest.mark.parametrize("defense", defense_names())
@pytest.mark.parametrize("seed", range(4))
def test_defense_batched_matches_scalar(defense, seed):
    """``access_batch`` under each defense — with or without per-access
    listeners (selective_flush) or an address remap (copy_on_access) —
    must match the scalar loop on both engines."""
    scalar = _run_trace(
        _defense_config(defense, "fast", seed), seed, 2, True, chunks="access"
    )
    batched = _run_trace(
        _defense_config(defense, "fast", seed), seed, 2, True, chunks="batch"
    )
    obj_batched = _run_trace(
        _defense_config(defense, "object", seed), seed, 2, True, chunks="batch"
    )
    assert batched[0] == scalar[0], f"{defense}: batched results diverge"
    assert batched[1] == scalar[1], f"{defense}: batched stats diverge"
    assert batched[2] == scalar[2], f"{defense}: batched final state diverges"
    assert obj_batched[0] == scalar[0], f"{defense}: object batch diverges"
    assert obj_batched[1] == scalar[1], f"{defense}: object batch stats"
    assert obj_batched[2] == scalar[2], f"{defense}: object batch state"


@pytest.mark.parametrize("defense", defense_names())
@pytest.mark.parametrize("seed", range(3))
def test_defense_traced_event_streams(defense, seed):
    """Both engines must emit the identical trace under each defense —
    including the flush events a flushing defense issues at switches."""
    obj = _run_trace(
        _defense_config(defense, "object", seed), seed, 2, True, traced=True
    )
    fast = _run_trace(
        _defense_config(defense, "fast", seed), seed, 2, True, traced=True
    )
    assert obj[3] == fast[3], f"{defense}: trace event streams diverge"
    assert obj[0] == fast[0], f"{defense}: access/switch streams diverge"
    assert obj[1] == fast[1], f"{defense}: stats snapshots diverge"
    assert obj[2] == fast[2], f"{defense}: final cache state diverges"


# ---------------------------------------------------------------------------
# resident-line order and LRU ties, cache by cache
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_resident_line_order_agrees_through_churn(seed):
    """Both engines list a cache's resident lines in one order — sets
    ascending, each set's lines in fill order — through a seeded churn
    of fills (evicting once a set is full), LRU touches and
    invalidations: the order a private-cache flush invalidates in, and
    its listeners see.  Each step's displaced line agrees too."""
    config = CacheConfig("L1D", 1 * KIB, ways=4)
    obj = Cache(config, [0], 1)
    fast = FastCache(config, [0], 1)
    rng = DeterministicRng(seed)
    for now in range(1, 600):
        line = rng.randint(0, 47)
        action = rng.randint(0, 3)
        if action == 0:
            out = [cache.invalidate(line) for cache in (obj, fast)]
        elif obj.resident(line):
            for cache in (obj, fast):
                cache.touch(*cache.lookup(line), now)
            out = [None, None]
        else:
            dirty = action == 1
            out = [cache.fill(line, 0, now & 0xFF, dirty) for cache in (obj, fast)]
        old, new = out
        assert (old is None) == (new is None), now
        if old is not None:
            assert (old.tag, old.dirty) == (new.tag, new.dirty), now
        assert obj.resident_line_addrs() == fast.resident_line_addrs(), now
    _check_slots(fast)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_tied_lru_stamps_evict_the_lowest_way(engine):
    """An 8-bit Tc truncates fill stamps, so fills 256 cycles apart
    stamp alike.  A full set whose two oldest ways tie evicts the lower
    of them, then the other: the strictly-less, lowest-way rule."""
    system = TimeCacheSystem(_base(engine, 0).with_timecache(timestamp_bits=8))
    hierarchy = system.hierarchy
    l1d = hierarchy.l1d[0]
    lines = [k * l1d.num_sets for k in range(6)]  # all in set 0

    def load(line, now):
        system.access(0, line << hierarchy.line_shift, AccessKind.LOAD, now)

    # truncated fill stamps 200, 150, 100, 100 in ways 0..3
    for line, now in zip(lines, (200, 256 + 150, 512 + 100, 768 + 100)):
        load(line, now)
    assert [l1d.lookup(line) for line in lines[:4]] == [(0, w) for w in range(4)]
    load(lines[4], 1024 + 250)
    assert l1d.lookup(lines[4]) == (0, 2) and not l1d.resident(lines[2])
    load(lines[5], 1280 + 250)
    assert l1d.lookup(lines[5]) == (0, 3) and not l1d.resident(lines[3])
    assert [l1d.resident(line) for line in lines[:2]] == [True, True]


# ---------------------------------------------------------------------------
# contexts out of range: the same error from every entry point
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["object", "fast"])
def test_out_of_range_contexts_raise_from_every_entry_point(engine):
    """Context -1 and context N (one past the last) raise the same
    :class:`SimulationError` from ``access``, ``ports`` and
    ``access_batch``, at the hierarchy and at the facade, and change
    nothing; -1 never wraps around to the last context's ports, even
    once those are bound.  An empty batch issues nothing, so it checks
    no context, as it never did."""
    config = scaled_experiment_config(num_cores=2, engine=engine)
    system = TimeCacheSystem(config)
    hierarchy = system.hierarchy
    last = config.hierarchy.num_cores * config.hierarchy.threads_per_core - 1
    assert hierarchy.ports(last) is system.access_ports(last)
    before = system.stats_snapshot()
    for ctx in (-1, last + 1):
        calls = (
            lambda: hierarchy.access(ctx, 0x1000, AccessKind.LOAD, 0),
            lambda: hierarchy.ports(ctx),
            lambda: hierarchy.access_batch(ctx, [0x1000]),
            lambda: system.access(ctx, 0x1000, AccessKind.STORE, 0),
            lambda: system.access_ports(ctx),
            lambda: system.access_batch(ctx, [0x1000], AccessKind.IFETCH, now=0),
        )
        for call in calls:
            with pytest.raises(SimulationError) as raised:
                call()
            assert str(raised.value) == f"hardware context {ctx} out of range"
        assert hierarchy.access_batch(ctx, [], now=7) == BatchResult([], 7)
        assert system.access_batch(ctx, [], AccessKind.STORE, 7) == BatchResult([], 7)
    assert system.stats_snapshot() == before


# ---------------------------------------------------------------------------
# an access that raises below its L1: counted alike through every path
# ---------------------------------------------------------------------------
def _walk_one_load(system, addr, now):
    """Context 0 walks a one-load op tape from local time ``now``."""
    from array import array

    from repro.cpu.cpu import HardwareContext
    from repro.cpu.program import TAPE_EXIT, TAPE_LOAD, OpTape

    hw = HardwareContext(0, system)
    hw.install(
        OpTape(bytearray([TAPE_LOAD, TAPE_EXIT]), array("q", [addr, 0])),
        lambda vaddr: vaddr,
    )
    hw.local_time = now
    hw.step()


DRIVERS = {
    "access": lambda system, addr, now: system.hierarchy.access(
        0, addr, AccessKind.LOAD, now
    ),
    "tape": _walk_one_load,
    "batch": lambda system, addr, now: system.access_batch(
        0, [addr], AccessKind.LOAD, now=now
    ),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_a_raising_access_counts_alike_on_both_engines(driver):
    """A line's LLC copy is invalidated behind its L1 copy and the L1's
    s-bits are cleared, so the next access is a first access whose probe
    raises "inclusion violated".  It reached its L1, so both engines
    count it in ``hierarchy.accesses`` as the L1 does — through
    ``access``, a tape walk or a batch — and leave the same counters and
    clock."""
    seen = {}
    for engine in ("object", "fast"):
        system = TimeCacheSystem(scaled_experiment_config(engine=engine))
        hierarchy = system.hierarchy
        hierarchy.access(0, 0x1000, AccessKind.LOAD, 0)
        hierarchy.llc.invalidate(0x1000 >> hierarchy.line_shift)
        hierarchy.l1d[0].sbits[:] = 0
        with pytest.raises(SimulationError, match="inclusion violated"):
            DRIVERS[driver](system, 0x1000, 100)
        stats = system.stats_snapshot()
        assert stats["hierarchy.accesses"] == stats["L1D0.accesses"] == 2
        seen[engine] = stats, hierarchy.clock.now
    assert seen["object"] == seen["fast"]
    assert seen["fast"][1] == 100
