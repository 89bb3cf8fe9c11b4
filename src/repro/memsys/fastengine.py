"""Struct-of-arrays fast engine for the memory hierarchy hot path.

The reference model (:mod:`repro.memsys.cache`, :mod:`.hierarchy`) spends
most of every access allocating and chasing Python objects: a
:class:`~repro.memsys.line.CacheLine` per way, a ``CacheSet`` per set, a
counter method call per bump, and a frozen dataclass per result.  This
module provides a second, **semantics-identical** engine that keeps the
same per-slot state in struct-of-arrays form:

* ``_tags`` / ``_dirty`` / ``_last_used`` — flat Python lists indexed
  ``set * ways + way`` (a list element read or write is the cheapest
  indexed access the interpreter has), and one ``_slot_of`` dict from
  each resident line to its slot, so finding a line is one dict probe
  with no set arithmetic;
* ``tc`` / ``sbits`` / ``valid`` — the canonical numpy arrays of the
  shared :class:`~repro.memsys.cache.CacheBase`, because the
  context-switch comparator, the fault injector, and the invariant
  checker all read and mutate them in place (``cache.tc[s, w] = ...``
  must keep working against either engine); the access path reads and
  writes them through flat memoryviews;
* per-slot s-bits packed as per-way int64 context bitmasks — one bit per
  hardware context column, the same convention as the object engine;
* the object engine's ``c_*`` counters in a ``StatGroup``, bumped inline
  as ``cache.c_hits.value += 1``; only the ``accesses`` counters are
  derived on read (:class:`AccessCount`).

Only the access path is the fast engine's own: the ports of
:meth:`FastHierarchy._bind`, the LLC probe they call, the batch loop
that serves plain L1 hits without a port call, and the cache methods
over the arrays.  Everything else — the counters, the listener chain,
the context-switch array operations, ``access_batch``'s ``now`` check,
and every cold path of the hierarchy — is the reference code,
inherited.

Equivalence is not aspirational: ``tests/memsys/test_engine_equivalence``
differentially fuzzes both engines over random traces (TimeCache on/off,
context switches, multi-core stores, fault hooks, counter resets) and
asserts identical ``AccessResult`` streams, stat snapshots, and final
s-bit/Tc state.  The contract requires mirroring some subtle reference
behaviors exactly:

* ``fill`` stamps ``last_used = tc_now`` with the *truncated*
  timestamp while ``touch`` uses the full cycle count — LRU order mixes
  the two, so the fast engine stores exactly the same mixed values;
* LRU victim selection picks the lowest way among the oldest stamps
  (the reference's strictly-less scan: ``stamps.index(min(stamps))``),
  and a free way (first empty index) always wins;
* ``resident_line_addrs`` lists sets in ascending order and each set's
  lines in fill order, as the reference's per-set tag maps do.
"""

from __future__ import annotations

import weakref
from operator import index
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.config import CacheConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatGroup
from repro.memsys.cache import CacheBase
from repro.memsys.hierarchy import (
    AccessKind,
    AccessResult,
    BatchResult,
    MemoryHierarchy,
    Port,
)

_IFETCH = AccessKind.IFETCH
_STORE = AccessKind.STORE

#: the outcome counters: each access records exactly one of them at its
#: L1, and at the LLC when it gets there (bar one probe outcome)
_OUTCOMES = ("hits", "misses", "first_access_misses")


class AccessCount(StatGroup):
    """A ``StatGroup`` whose ``accesses`` counter also counts every
    outcome — hit, miss or first-access miss — recorded in this group or
    in one of ``parts``.

    The fast ports bump no ``accesses`` counter: a fast cache's group
    counts its own outcomes, and the fast hierarchy's counts its private
    caches' groups'.  A bump of ``accesses`` itself still counts; the
    one LLC probe outcome that records no outcome counter makes one.

    The outcomes are folded into the counter whenever the group is read,
    so it reports and resets like any bound counter.  A group's
    :meth:`reset` retires its outcomes rather than dropping them, so
    resetting a cache leaves its hierarchy's count alone.  A group holds
    only counters and its ``parts``, never a cache, so a cache and its
    group form no reference cycle.
    """

    def __init__(self, name: str, parts: Sequence["AccessCount"] = ()) -> None:
        super().__init__(name)
        self._parts = tuple(parts)
        self._accesses = self.bound_counter("accesses")
        self._outcome_counters = tuple(self.bound_counter(n) for n in _OUTCOMES)
        #: the outcomes already folded into ``accesses``
        self._folded = 0
        #: this group's own outcome counts that reset() zeroed
        self._retired = 0

    def _own_outcomes(self) -> int:
        """Every outcome this group recorded since it was built."""
        return self._retired + sum(c.value for c in self._outcome_counters)

    def _outcomes(self) -> int:
        return self._own_outcomes() + sum(p._own_outcomes() for p in self._parts)

    def _fold(self) -> None:
        outcomes = self._outcomes()
        self._accesses.value += outcomes - self._folded
        self._folded = outcomes

    def get(self, name: str) -> int:
        self._fold()
        return super().get(name)

    def snapshot(self) -> Dict[str, int]:
        self._fold()
        return super().snapshot()

    def reset(self) -> None:
        self._retired += sum(c.value for c in self._outcome_counters)
        super().reset()
        self._folded = self._outcomes()


class EvictedLine(NamedTuple):
    """What the fast engine returns for a displaced line.

    Duck-compatible with the ``.tag`` / ``.dirty`` reads the hierarchy's
    eviction, writeback, and flush paths perform on a ``CacheLine``.
    """

    tag: int
    dirty: bool


class FastCache(CacheBase):
    """Struct-of-arrays drop-in for :class:`repro.memsys.cache.Cache`.

    Stores its lines in flat lists and implements the line-level half
    of the cache surface over them — lookup, fill/evict/invalidate, the
    slot accessors — with identical observable behavior; the rest is
    the shared :class:`~repro.memsys.cache.CacheBase`.  ``fill`` and
    ``invalidate`` hand back an :class:`EvictedLine`, since there are no
    CacheLine objects.  ``stats`` is an :class:`AccessCount`.
    """

    __slots__ = (
        "tc_mv",
        "sbits_mv",
        "valid_mv",
        "_tags",
        "_dirty",
        "_last_used",
        "_slot_of",
        "_occ",
    )

    def __init__(
        self,
        config: CacheConfig,
        hw_contexts: Sequence[int],
        hit_latency: int,
        max_sharers: int = 0,
    ) -> None:
        super().__init__(
            config, hw_contexts, hit_latency, max_sharers, AccessCount(config.name)
        )
        size = self.num_sets * self.ways
        # Memoryviews over flat views of the canonical Tc/s-bit/valid
        # arrays: scalar reads/writes through a memoryview cost roughly
        # half a numpy scalar index, and every external in-place numpy
        # mutation (comparator, fault models) remains visible through
        # them.
        self.tc_mv = memoryview(self.tc.reshape(-1))
        self.sbits_mv = memoryview(self.sbits.reshape(-1))
        self.valid_mv = memoryview(self.valid.reshape(-1))
        # Architectural slot state, in set * ways + way order: the same
        # tag, dirty bit and LRU stamp a CacheLine holds.  A tag of -1
        # marks an empty way.
        self._tags: List[int] = [-1] * size
        self._dirty: List[bool] = [False] * size
        self._last_used: List[int] = [0] * size
        #: each resident line's slot, in fill order
        self._slot_of: Dict[int, int] = {}
        self._occ: List[int] = [0] * self.num_sets

    # ------------------------------------------------------------------
    # Lookup / fill / evict
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[Tuple[int, int]]:
        idx = self._slot_of.get(line_addr)
        if idx is None:
            return None
        return divmod(idx, self.ways)

    def touch(self, set_idx: int, way: int, now: int) -> None:
        self._last_used[set_idx * self.ways + way] = now

    def _victim_way(self, set_idx: int) -> int:
        """Full set: the LRU way, the lowest of the oldest stamps (the
        reference's strictly-less scan)."""
        base = set_idx * self.ways
        stamps = self._last_used[base : base + self.ways]
        return stamps.index(min(stamps))

    def _victim_way_in(self, set_idx: int, allowed_ways) -> int:
        """CAT-masked victim: free allowed way, else LRU within the mask
        (like ``choose_victim_in``)."""
        base = set_idx * self.ways
        tags = self._tags
        for way in allowed_ways:
            if tags[base + way] < 0:
                return way
        best_way = -1
        best = None
        stamps = self._last_used
        for way in allowed_ways:
            stamp = stamps[base + way]
            if best is None or stamp < best:
                best = stamp
                best_way = way
        if best_way < 0:
            raise SimulationError("empty allowed-way mask")
        return best_way

    def fill(
        self,
        line_addr: int,
        ctx: int,
        tc_now: int,
        dirty: bool = False,
        allowed_ways=None,
    ) -> Optional[EvictedLine]:
        """Install ``line_addr``; returns the displaced line or None.

        Same semantics as the object engine's fill (fill rule, Tc stamp,
        victim choice).
        """
        set_idx = line_addr & self._set_mask
        ways = self.ways
        base = set_idx * ways
        tags = self._tags
        victim: Optional[EvictedLine] = None
        if allowed_ways is None:
            if self._occ[set_idx] < ways:
                way = tags.index(-1, base, base + ways) - base
            else:
                way = self._victim_way(set_idx)
                victim = self._evict(set_idx, way)
        else:
            way = self._victim_way_in(set_idx, allowed_ways)
            if tags[base + way] >= 0:
                victim = self._evict(set_idx, way)
        if line_addr in self._slot_of:
            raise SimulationError(
                f"duplicate tag {line_addr:#x} in set {set_idx}"
            )
        idx = base + way
        tags[idx] = line_addr
        self._dirty[idx] = dirty
        # CacheLine.__init__ stamps the recency field with the
        # (truncated) fill time; touch() later overwrites with full time.
        self._last_used[idx] = tc_now
        self._slot_of[line_addr] = idx
        self._occ[set_idx] += 1
        self.tc_mv[idx] = tc_now
        self.sbits_mv[idx] = 1 << self._ctx_to_col[ctx]
        self.valid_mv[idx] = True
        if self.event_listener is not None:
            self.event_listener("fill", set_idx, way, ctx)
        self.c_fills.value += 1
        if line_addr not in self._ever_filled:
            self._ever_filled.add(line_addr)
            self.c_cold_misses.value += 1
        return victim

    def _evict(self, set_idx: int, way: int) -> EvictedLine:
        idx = set_idx * self.ways + way
        tag = self._tags[idx]
        if tag < 0:
            raise SimulationError(f"remove from empty way {way}")
        was_dirty = self._dirty[idx]
        self._tags[idx] = -1
        del self._slot_of[tag]
        self._occ[set_idx] -= 1
        self.sbits_mv[idx] = 0
        self.valid_mv[idx] = False
        if self.event_listener is not None:
            self.event_listener("evict", set_idx, way, -1)
        self.c_evictions.value += 1
        if was_dirty:
            self.c_dirty_evictions.value += 1
        return EvictedLine(tag, was_dirty)

    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        idx = self._slot_of.pop(line_addr, None)
        if idx is None:
            return None
        set_idx, way = divmod(idx, self.ways)
        was_dirty = self._dirty[idx]
        self._tags[idx] = -1
        self._occ[set_idx] -= 1
        self.sbits_mv[idx] = 0
        self.valid_mv[idx] = False
        if self.event_listener is not None:
            self.event_listener("invalidate", set_idx, way, -1)
        self.c_invalidations.value += 1
        return EvictedLine(line_addr, was_dirty)

    def resident(self, line_addr: int) -> bool:
        return line_addr in self._slot_of

    def resident_line_addrs(self) -> List[int]:
        # _slot_of is in fill order: a stable sort by set keeps it
        # within each set, as the reference's per-set tag maps do
        set_mask = self._set_mask
        return sorted(self._slot_of, key=lambda line: line & set_mask)

    @property
    def occupancy(self) -> int:
        return len(self._slot_of)

    # ------------------------------------------------------------------
    # Engine-generic slot accessors (see Cache for the contract)
    # ------------------------------------------------------------------
    def mark_dirty(self, set_idx: int, way: int) -> None:
        idx = set_idx * self.ways + way
        if self._tags[idx] < 0:
            raise SimulationError(f"{self.name}: mark_dirty on empty slot")
        self._dirty[idx] = True

    def is_dirty(self, set_idx: int, way: int) -> bool:
        idx = set_idx * self.ways + way
        return self._tags[idx] >= 0 and self._dirty[idx]

    def downgrade(self, set_idx: int, way: int) -> None:
        idx = set_idx * self.ways + way
        if self._tags[idx] < 0:
            raise SimulationError(f"{self.name}: downgrade on empty slot")
        self._dirty[idx] = False

    def resident_tags_in_ways(self, ways: Sequence[int]) -> List[int]:
        tags_out: List[int] = []
        tags = self._tags
        for set_idx in range(self.num_sets):
            base = set_idx * self.ways
            for way in ways:
                tag = tags[base + way]
                if tag >= 0:
                    tags_out.append(tag)
        return tags_out


class FastHierarchy(MemoryHierarchy):
    """The memory hierarchy driven through :class:`FastCache` levels.

    Reuses the reference topology construction, the ``access``
    dispatcher, ``access_batch`` with its ``now`` check, and every
    cold path — fills while a listener is attached, LLC misses and
    evictions, coherence, partitioning flushes, clflush, inclusion
    checks — which run unchanged against the engine-generic cache
    surface.  It overrides only :meth:`_bind`, which builds each
    context's per-kind port with the reference semantics inlined over
    struct-of-arrays state, :meth:`_probe_llc`, the other path its ports
    take on every first access, and :meth:`_batch_loop`, which serves a
    batch's plain L1 hits without calling a port.  A tape walk calls
    the ports directly: every op tape is translated to physical
    addresses when it is installed, so each of its memory ops is one
    port call.
    """

    def __init__(self, config, timecache=None, clock=None) -> None:
        super().__init__(config, timecache=timecache, clock=clock)
        self._dram_first = self.tc_config.dram_latency_on_first_access
        #: interned AccessResult instances keyed by (latency, level,
        #: first) — the value set is tiny and the dataclass is frozen, so
        #: sharing instances is safe and skips ~0.5us of construction.
        self._results: Dict[Tuple[int, str, bool], AccessResult] = {}
        self.stats = AccessCount(
            "hierarchy", [cache.stats for cache in self.private_caches()]
        )
        self.c_accesses = self.stats.bound_counter("accesses")

    def _make_cache(
        self, config, hw_contexts, hit_latency, max_sharers=0
    ) -> FastCache:
        return FastCache(config, hw_contexts, hit_latency, max_sharers=max_sharers)

    def _intern_result(
        self, latency: int, level: str, first: bool = False
    ) -> AccessResult:
        key = (latency, level, first)
        result = self._results.get(key)
        if result is None:
            result = AccessResult(latency, level, first)
            self._results[key] = result
        return result

    # ------------------------------------------------------------------
    # The access protocol, inlined into one port per context and kind
    # ------------------------------------------------------------------
    def _bind(self, ctx: int, kind: AccessKind) -> Port:
        """The fast engine's port for ``(ctx, kind)``: the reference
        access path inlined over struct-of-arrays state.

        Everything an access reads that is fixed for the pair — the L1
        (the L1I for an ifetch) and the LLC, with their masks, slot
        maps, slot lists and memoryviews and this context's s-bit in
        each, the directory maps, the clock, the listener lists, the
        interned results of a pure L1 hit and a clean LLC hit — is
        resolved here, once, into closure cells.
        Each is set once and mutated only in place (see
        :meth:`MemoryHierarchy.ports`); a cache's ``event_listener`` is
        the exception and is read per access, because attaching a
        listener rebinds it.  Counters are bumped through their cache
        (``l1.c_hits.value += 1``), not bound as cells of their own:
        CPython copies every free variable into the frame on each call.
        The hierarchy's own methods — the LLC miss and probe, fills
        while a listener is attached, invalidations, owner transfers —
        are reached through a weak proxy, never bound: the hierarchy
        keeps its ports, so a port holding the hierarchy would make a
        reference cycle and leave a finished run to the cyclic
        collector.  A port serves one kind, so only a store port walks
        the other private caches, and it looks the line up in each
        one's slot map before invalidating it there.
        """
        l1 = (self.l1i if kind is _IFETCH else self.l1d)[
            ctx // self.config.threads_per_core
        ]
        llc = self.llc
        hier = weakref.proxy(self)
        is_write = kind is _STORE
        line_shift = self.line_shift
        tc_mask = self._tc_mask
        clock = self.clock
        pre_listeners = self.pre_access_listeners
        post_listeners = self.post_access_listeners
        results = self._results
        owners = self.directory._owner
        all_sharers = self.directory._sharers
        dram = self.dram
        tc_enabled = self.tc_config.enabled
        llc_guard = self._llc_first_access_guard
        sctx = self._llc_sbit_ctx[ctx]
        l1name = l1.name
        set_mask = l1._set_mask
        slot_of = l1._slot_of
        ways = l1.ways
        hit_latency = l1.hit_latency
        bit = l1.ctx_bit(ctx)
        sbits_mv = l1.sbits_mv
        tc_mv = l1.tc_mv
        valid_mv = l1.valid_mv
        tags = l1._tags
        dirty = l1._dirty
        last_used = l1._last_used
        occ = l1._occ
        ever_filled = l1._ever_filled
        hit_result = self._intern_result(hit_latency, "L1")
        llc_hit_result = self._intern_result(
            hit_latency + llc.hit_latency, "LLC"
        )
        llc_slot_of = llc._slot_of
        llc_hit_lat = llc.hit_latency
        llc_sbits_mv = llc.sbits_mv
        llc_last_used = llc._last_used
        llc_dirty = llc._dirty
        lbit = llc.ctx_bit(sctx)
        # a store's other private caches, with their slot maps
        others = [
            (cache, cache._slot_of)
            for cache in self.private_caches()
            if is_write and cache is not l1
        ]

        def port(addr: int, now: int) -> AccessResult:
            line = addr >> line_shift
            if now > clock._now:
                clock._now = now
            if pre_listeners:
                for listener in pre_listeners:
                    listener(ctx, line, kind, now)
            idx = slot_of.get(line)
            if idx is not None:
                if tc_enabled and not (sbits_mv[idx] & bit):
                    l1.c_first_access_misses.value += 1
                    below, level = hier._probe_llc(line, ctx, now)
                    if l1.event_listener is None and l1.max_sharers == 0:
                        sbits_mv[idx] |= bit
                    else:
                        l1.set_sbit(*divmod(idx, ways), ctx)
                    latency = hit_latency + below
                    key = (latency, level, True)
                    result = results.get(key)
                    if result is None:
                        result = results[key] = AccessResult(latency, level, True)
                else:
                    l1.c_hits.value += 1
                    result = hit_result
                last_used[idx] = now
                if is_write:
                    # Store upgrade: dirty the slot, invalidate other private
                    # copies, take ownership (the inlined _store_upgrade).
                    dirty[idx] = True
                    for other, other_slots in others:
                        if line in other_slots:
                            hier._invalidate_private(other, line)
                    owners[line] = l1name
                    sharers = all_sharers.get(line)
                    if sharers is None:
                        sharers = all_sharers[line] = set()
                    sharers.add(l1name)
            else:
                l1.c_misses.value += 1
                first = False
                result = None
                # -------- LLC (the inlined _access_llc) --------
                lidx = llc_slot_of.get(line)
                if lidx is not None:
                    owner = owners.get(line) if owners else None
                    if owner is not None and owner != l1name:
                        extra, level = hier._remote_owner_transfer(line, owner)
                    else:
                        extra = 0
                        level = ""
                    if is_write:
                        for other, other_slots in others:
                            if line in other_slots:
                                hier._invalidate_private(other, line)
                    if llc_guard and not (llc_sbits_mv[lidx] & lbit):
                        first = True
                        llc.c_first_access_misses.value += 1
                        dram_latency = dram.access(line)
                        below = llc_hit_lat + (
                            dram_latency if dram_latency > extra else extra
                        )
                        level = "DRAM"
                        if llc.event_listener is None and llc.max_sharers == 0:
                            llc_sbits_mv[lidx] |= lbit
                        else:
                            llc.set_sbit(*divmod(lidx, llc.ways), sctx)
                    else:
                        llc.c_hits.value += 1
                        below = llc_hit_lat + extra
                        if level == "":
                            level = "LLC"
                            if not extra:
                                result = llc_hit_result
                    llc_last_used[lidx] = now
                    if is_write:
                        owners[line] = l1name
                    sharers = all_sharers.get(line)
                    if sharers is None:
                        sharers = all_sharers[line] = set()
                    sharers.add(l1name)
                else:
                    below, level = hier._llc_miss(l1, line, ctx, sctx, is_write, now)
                # -------- L1 fill (the inlined _fill_private) --------
                if l1.event_listener is not None:
                    hier._fill_private(l1, line, ctx, is_write, now)
                else:
                    set_idx = line & set_mask
                    base = set_idx * ways
                    vtag = -1
                    if occ[set_idx] < ways:
                        idx = tags.index(-1, base, base + ways)
                        occ[set_idx] += 1
                        valid_mv[idx] = True
                    else:
                        stamps = last_used[base : base + ways]
                        idx = base + stamps.index(min(stamps))
                        vtag = tags[idx]
                        vdirty = dirty[idx]
                        del slot_of[vtag]
                        l1.c_evictions.value += 1
                        if vdirty:
                            l1.c_dirty_evictions.value += 1
                        # No s-bit/valid clears here: the slot is refilled
                        # just below, which overwrites sbits and leaves valid
                        # True — the same final state the evict-then-install
                        # pair of the reference engine produces.
                    tnow = now & tc_mask
                    tags[idx] = line
                    dirty[idx] = is_write
                    last_used[idx] = tnow
                    slot_of[line] = idx
                    tc_mv[idx] = tnow
                    sbits_mv[idx] = bit
                    l1.c_fills.value += 1
                    if line not in ever_filled:
                        ever_filled.add(line)
                        l1.c_cold_misses.value += 1
                    if is_write:
                        for other, other_slots in others:
                            if line in other_slots:
                                hier._invalidate_private(other, line)
                        owners[line] = l1name
                        sharers = all_sharers.get(line)
                        if sharers is None:
                            sharers = all_sharers[line] = set()
                        sharers.add(l1name)
                    if vtag >= 0:
                        if vdirty:
                            # the inlined _writeback_to_llc
                            vidx = llc_slot_of.get(vtag)
                            if vidx is None:
                                raise SimulationError(
                                    f"writeback of line {vtag:#x} but LLC "
                                    "does not hold it"
                                )
                            llc_dirty[vidx] = True
                            l1.c_writebacks.value += 1
                        sharers = all_sharers.get(vtag)
                        if sharers is not None:
                            # Unlike Directory.remove_sharer, leave the emptied
                            # set in place: every reader treats empty and
                            # absent identically, and the next fill of this line
                            # reuses the set instead of reallocating one.
                            sharers.discard(l1name)
                        if owners and owners.get(vtag) == l1name:
                            del owners[vtag]
                if result is None:
                    latency = hit_latency + below
                    key = (latency, level, first)
                    result = results.get(key)
                    if result is None:
                        result = results[key] = AccessResult(latency, level, first)
            if post_listeners:
                for listener in post_listeners:
                    listener(ctx, line, kind, now, result)
            return result

        return port

    def _batch_loop(
        self,
        ctx: int,
        addrs: Sequence[int],
        kind: AccessKind,
        now: int,
        results: List[AccessResult],
    ) -> BatchResult:
        """The batch loop, with plain L1 hits served inline.

        In a load or ifetch batch with no pre- or post-access listener
        attached, an access whose line sits in the context's L1 with its
        s-bit set (any resident line while TimeCache is off) takes the
        port's hit branch here: stamp the slot with the full issue cycle,
        count the hit, append the interned L1-hit result, move the cursor
        by one cycle plus the hit latency.  Every other access — a miss,
        a first access — calls the port as the reference loop does, and
        so does every access of a store batch.

        The hits are counted, and the clock moved to the last issue
        time, once on the way out, a raising port included: the port
        sets the clock to its own, later issue time first, and nothing
        it does reads the hit count.  So at every exit the counters, the
        LRU stamps, the clock and ``results`` read what one ``access``
        per address leaves.
        """
        if (
            kind is _STORE
            or self.pre_access_listeners
            or self.post_access_listeners
        ):
            return super()._batch_loop(ctx, addrs, kind, now, results)
        port = self.ports(ctx).of(kind)
        l1 = (self.l1i if kind is _IFETCH else self.l1d)[
            ctx // self.config.threads_per_core
        ]
        slot_of = l1._slot_of
        last_used = l1._last_used
        sbits_mv = l1.sbits_mv
        bit = l1.ctx_bit(ctx)
        any_hit = not self.tc_config.enabled  # no s-bit to check
        line_shift = self.line_shift
        hit_result = self._intern_result(l1.hit_latency, "L1")
        hit_step = 1 + l1.hit_latency
        append = results.append
        cursor = now
        ported = 0  # results that a port call returned
        try:
            for addr in map(index, addrs):
                idx = slot_of.get(addr >> line_shift)
                if idx is not None and (any_hit or sbits_mv[idx] & bit):
                    last_used[idx] = cursor
                    append(hit_result)
                    cursor += hit_step
                else:
                    result = port(addr, cursor)
                    append(result)
                    ported += 1
                    cursor += 1 + result.latency
        finally:
            # every other result is a plain hit this loop served
            l1.c_hits.value += len(results) - ported
            if results:
                last_issue = cursor - 1 - results[-1].latency
                clock = self.clock
                if last_issue > clock._now:
                    clock._now = last_issue
        return BatchResult(results, cursor)

    def _probe_llc(self, line: int, ctx: int, now: int) -> Tuple[int, str]:
        llc = self.llc
        idx = llc._slot_of.get(line)
        if idx is None:
            raise SimulationError(
                f"inclusion violated: line {line:#x} in an L1 but not in LLC"
            )
        llc._last_used[idx] = now
        sctx = self._llc_sbit_ctx[ctx]
        bit = 1 << llc._ctx_to_col[sctx]
        if llc.sbits_mv[idx] & bit:
            if not self._dram_first:
                llc.c_hits.value += 1
                return llc.hit_latency, "LLC"
            # Hidden-latency probe: the one outcome that records no
            # outcome counter, so it counts its access itself.
            llc.c_accesses.value += 1
        else:
            llc.c_first_access_misses.value += 1
            if llc.event_listener is None and llc.max_sharers == 0:
                llc.sbits_mv[idx] |= bit
            else:
                llc.set_sbit(*divmod(idx, llc.ways), sctx)
        return llc.hit_latency + self.dram.access(line), "DRAM"
