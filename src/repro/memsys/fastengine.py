"""Struct-of-arrays fast engine for the memory hierarchy hot path.

The reference model (:mod:`repro.memsys.cache`, :mod:`.hierarchy`) spends
most of every access allocating and chasing Python objects: a
:class:`~repro.memsys.line.CacheLine` per way, a ``CacheSet`` per set, a
counter method call per bump, and a frozen dataclass per result.  This
module provides a second, **semantics-identical** engine that keeps the
same per-slot state in struct-of-arrays form:

* ``tags`` / ``dirty`` / ``last_used`` — flat numpy arrays indexed
  ``set * ways + way``, wrapped in memoryviews for the scalar paths (a
  memoryview scalar read costs about half a numpy scalar index);
* ``tc`` / ``sbits`` / ``valid`` — the canonical numpy arrays of the
  shared :class:`~repro.memsys.cache.CacheBase`, because the
  context-switch comparator, the fault injector, and the invariant
  checker all read and mutate them in place (``cache.tc[s, w] = ...``
  must keep working against either engine);
* per-slot s-bits packed as per-way int64 context bitmasks — one bit per
  hardware context column, the same convention as the object engine;
* the object engine's ``c_*`` counters in a ``StatGroup``, bumped inline
  as ``cache.c_hits.value += 1``; only the ``accesses`` counters are
  derived on read (:class:`AccessCount`).

Only the access path is the fast engine's own: the ports of
:meth:`FastHierarchy._bind`, the LLC probe they call, and the cache
methods over the arrays.  Everything else — the counters, the listener
chain, the context-switch array operations, and every cold path of the
hierarchy — is the reference code, inherited.

Equivalence is not aspirational: ``tests/memsys/test_engine_equivalence``
differentially fuzzes both engines over random traces (TimeCache on/off,
context switches, multi-core stores, fault hooks, counter resets) and
asserts identical ``AccessResult`` streams, stat snapshots, and final
s-bit/Tc state.  The contract requires mirroring some subtle reference
behaviors exactly:

* ``fill`` stamps ``last_used = tc_now`` with the *truncated*
  timestamp while ``touch`` uses the full cycle count — LRU order mixes
  the two, so the fast engine stores exactly the same mixed values;
* LRU victim selection tie-breaks on the lowest way index via a
  strictly-less scan, and a free way (first empty index) always wins.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import CacheConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatGroup
from repro.memsys.cache import CacheBase
from repro.memsys.hierarchy import (
    AccessKind,
    AccessResult,
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
    outcome — hit, miss or first-access miss — of ``caches``.

    The fast ports bump no ``accesses`` counter: a fast cache's group
    counts its own outcomes, and the fast hierarchy's counts its private
    caches'.  A bump of ``accesses`` itself still counts; the one LLC
    probe outcome that records no outcome counter makes one.

    The outcomes are folded into the counter whenever the group is read,
    so it reports and resets like any bound counter.  A cache's
    :meth:`reset` retires its outcomes rather than dropping them, so
    resetting a cache leaves its hierarchy's count alone.
    """

    def __init__(self, name: str, caches: Sequence[CacheBase]) -> None:
        super().__init__(name)
        self._caches = caches
        self._accesses = self.bound_counter("accesses")
        #: the caches' outcomes already folded into ``accesses``
        self._folded = 0
        #: this group's own outcome counts that reset() zeroed
        self._retired = 0

    def _outcomes(self) -> int:
        """Every outcome ``caches`` recorded since they were built."""
        return sum(
            c.stats._retired
            + c.c_hits.value
            + c.c_misses.value
            + c.c_first_access_misses.value
            for c in self._caches
        )

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
        self._retired += sum(StatGroup.get(self, n) for n in _OUTCOMES)
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

    Stores its lines in flat arrays and implements the line-level half
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
        "tags_flat",
        "dirty_flat",
        "last_flat",
        "_tags",
        "_dirty",
        "_last_used",
        "_tag_to_way",
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
            config,
            hw_contexts,
            hit_latency,
            max_sharers,
            AccessCount(config.name, [self]),
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
        # Architectural slot state: flat numpy arrays (set * ways + way
        # order) with memoryview aliases for the scalar paths, the same
        # tag, dirty bit and LRU stamp a CacheLine holds.  A tag of -1
        # marks an empty way.
        self.tags_flat = np.full(size, -1, dtype=np.int64)
        self._tags: memoryview = memoryview(self.tags_flat)
        self.dirty_flat = np.zeros(size, dtype=bool)
        self._dirty: memoryview = memoryview(self.dirty_flat)
        self.last_flat = np.zeros(size, dtype=np.int64)
        self._last_used: memoryview = memoryview(self.last_flat)
        self._tag_to_way: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self._occ: List[int] = [0] * self.num_sets

    # ------------------------------------------------------------------
    # Lookup / fill / evict
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[Tuple[int, int]]:
        set_idx = line_addr & self._set_mask
        way = self._tag_to_way[set_idx].get(line_addr)
        if way is None:
            return None
        return set_idx, way

    def touch(self, set_idx: int, way: int, now: int) -> None:
        self._last_used[set_idx * self.ways + way] = now

    def _victim_way(self, set_idx: int) -> int:
        """Full set: the LRU way, by the reference's strictly-less /
        lowest-way tie-break scan."""
        base = set_idx * self.ways
        stamps = self._last_used
        best_way = 0
        best = stamps[base]
        for way in range(1, self.ways):
            stamp = stamps[base + way]
            if stamp < best:
                best = stamp
                best_way = way
        return best_way

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
                way = 0
                while tags[base + way] >= 0:
                    way += 1
            else:
                way = self._victim_way(set_idx)
                victim = self._evict(set_idx, way)
        else:
            way = self._victim_way_in(set_idx, allowed_ways)
            if tags[base + way] >= 0:
                victim = self._evict(set_idx, way)
        if line_addr in self._tag_to_way[set_idx]:
            raise SimulationError(
                f"duplicate tag {line_addr:#x} in set {set_idx}"
            )
        idx = base + way
        tags[idx] = line_addr
        self._dirty[idx] = dirty
        # CacheLine.__init__ stamps the recency field with the
        # (truncated) fill time; touch() later overwrites with full time.
        self._last_used[idx] = tc_now
        self._tag_to_way[set_idx][line_addr] = way
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
        del self._tag_to_way[set_idx][tag]
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
        set_idx = line_addr & self._set_mask
        way = self._tag_to_way[set_idx].get(line_addr)
        if way is None:
            return None
        idx = set_idx * self.ways + way
        was_dirty = self._dirty[idx]
        self._tags[idx] = -1
        del self._tag_to_way[set_idx][line_addr]
        self._occ[set_idx] -= 1
        self.sbits_mv[idx] = 0
        self.valid_mv[idx] = False
        if self.event_listener is not None:
            self.event_listener("invalidate", set_idx, way, -1)
        self.c_invalidations.value += 1
        return EvictedLine(line_addr, was_dirty)

    def resident(self, line_addr: int) -> bool:
        return (
            self._tag_to_way[line_addr & self._set_mask].get(line_addr)
            is not None
        )

    def resident_line_addrs(self) -> List[int]:
        addrs: List[int] = []
        for mapping in self._tag_to_way:
            addrs.extend(mapping)
        return addrs

    @property
    def occupancy(self) -> int:
        return sum(self._occ)

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
    dispatcher, the ``access_batch`` loop and every cold path — fills
    while a listener is attached, LLC misses and evictions, coherence,
    partitioning flushes, clflush, inclusion checks — which run
    unchanged against the engine-generic cache surface.  It overrides
    only :meth:`_bind`, which builds each context's per-kind port with
    the reference semantics inlined over struct-of-arrays state, and
    :meth:`_probe_llc`, the other path its ports take on every first
    access.  A tape walk calls those ports directly: every op tape is
    translated to physical addresses when it is installed, so each of
    its memory ops is one port call.
    """

    def __init__(self, config, timecache=None, clock=None) -> None:
        super().__init__(config, timecache=timecache, clock=clock)
        contexts = range(config.num_cores * config.threads_per_core)
        self._sctx_of = [self._llc_sbit_ctx(ctx) for ctx in contexts]
        self._dram_first = self.tc_config.dram_latency_on_first_access
        #: interned AccessResult instances keyed by (latency, level,
        #: first) — the value set is tiny and the dataclass is frozen, so
        #: sharing instances is safe and skips ~0.5us of construction.
        self._results: Dict[Tuple[int, str, bool], AccessResult] = {}
        self.stats = AccessCount("hierarchy", self.private_caches())
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
        arrays and memoryviews and this context's s-bit in each, the
        directory maps, the clock, the listener lists, the interned
        results of a pure L1 hit and a clean LLC hit — is resolved here,
        once, into closure cells.
        Each is set once and mutated only in place (see
        :meth:`MemoryHierarchy.ports`); a cache's ``event_listener`` is
        the exception and is read per access, because attaching a
        listener rebinds it.  Counters are bumped through their cache
        (``l1.c_hits.value += 1``), not bound as cells of their own:
        CPython copies every free variable into the frame on each call.
        A port serves one kind, so only a store port walks the other
        private caches, and it looks the line up in each one's tag map
        before invalidating it there.
        """
        l1 = (self.l1i if kind is _IFETCH else self.l1d)[
            ctx // self.config.threads_per_core
        ]
        llc = self.llc
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
        sctx = self._sctx_of[ctx]
        l1name = l1.name
        set_mask = l1._set_mask
        t2w_of_set = l1._tag_to_way
        ways = l1.ways
        upper_ways = range(1, ways)
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
        llc_set_mask = llc._set_mask
        llc_t2w_of_set = llc._tag_to_way
        llc_ways = llc.ways
        llc_hit_lat = llc.hit_latency
        llc_sbits_mv = llc.sbits_mv
        llc_last_used = llc._last_used
        llc_dirty = llc._dirty
        lbit = llc.ctx_bit(sctx)
        # a store's other private caches, with their tag maps and set masks
        others = [
            (cache, cache._tag_to_way, cache._set_mask)
            for cache in self.private_caches()
            if is_write and cache is not l1
        ]
        invalidate_private = self._invalidate_private
        probe_llc = self._probe_llc
        remote_owner_transfer = self._remote_owner_transfer
        llc_miss = self._llc_miss
        fill_private = self._fill_private

        def port(addr: int, now: int) -> AccessResult:
            line = addr >> line_shift
            if now > clock._now:
                clock._now = now
            if pre_listeners:
                for listener in pre_listeners:
                    listener(ctx, line, kind, now)
            set_idx = line & set_mask
            t2w = t2w_of_set[set_idx]
            if line in t2w:
                way = t2w[line]
                idx = set_idx * ways + way
                if tc_enabled and not (sbits_mv[idx] & bit):
                    l1.c_first_access_misses.value += 1
                    below, level = probe_llc(line, ctx, now)
                    if l1.event_listener is None and l1.max_sharers == 0:
                        sbits_mv[idx] |= bit
                    else:
                        l1.set_sbit(set_idx, way, ctx)
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
                    for other, other_sets, other_mask in others:
                        if line in other_sets[line & other_mask]:
                            invalidate_private(other, line)
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
                lset = line & llc_set_mask
                lway = llc_t2w_of_set[lset].get(line)
                if lway is not None:
                    lidx = lset * llc_ways + lway
                    owner = owners.get(line) if owners else None
                    if owner is not None and owner != l1name:
                        extra, level = remote_owner_transfer(line, owner)
                    else:
                        extra = 0
                        level = ""
                    if is_write:
                        for other, other_sets, other_mask in others:
                            if line in other_sets[line & other_mask]:
                                invalidate_private(other, line)
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
                            llc.set_sbit(lset, lway, sctx)
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
                    below, level = llc_miss(l1, line, ctx, sctx, is_write, now)
                # -------- L1 fill (the inlined _fill_private) --------
                if l1.event_listener is not None:
                    fill_private(l1, line, ctx, is_write, now)
                else:
                    base = set_idx * ways
                    vtag = -1
                    if occ[set_idx] < ways:
                        way = 0
                        while tags[base + way] >= 0:
                            way += 1
                        idx = base + way
                        occ[set_idx] += 1
                        valid_mv[idx] = True
                    else:
                        way = 0
                        best = last_used[base]
                        for w in upper_ways:
                            stamp = last_used[base + w]
                            if stamp < best:
                                best = stamp
                                way = w
                        idx = base + way
                        vtag = tags[idx]
                        vdirty = dirty[idx]
                        del t2w[vtag]
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
                    t2w[line] = way
                    tc_mv[idx] = tnow
                    sbits_mv[idx] = bit
                    l1.c_fills.value += 1
                    if line not in ever_filled:
                        ever_filled.add(line)
                        l1.c_cold_misses.value += 1
                    if is_write:
                        for other, other_sets, other_mask in others:
                            if line in other_sets[line & other_mask]:
                                invalidate_private(other, line)
                        owners[line] = l1name
                        sharers = all_sharers.get(line)
                        if sharers is None:
                            sharers = all_sharers[line] = set()
                        sharers.add(l1name)
                    if vtag >= 0:
                        if vdirty:
                            # the inlined _writeback_to_llc
                            vset = vtag & llc_set_mask
                            vway = llc_t2w_of_set[vset].get(vtag)
                            if vway is None:
                                raise SimulationError(
                                    f"writeback of line {vtag:#x} but LLC "
                                    "does not hold it"
                                )
                            llc_dirty[vset * llc_ways + vway] = True
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

    def _probe_llc(self, line: int, ctx: int, now: int) -> Tuple[int, str]:
        llc = self.llc
        set_idx = line & llc._set_mask
        way = llc._tag_to_way[set_idx].get(line)
        if way is None:
            raise SimulationError(
                f"inclusion violated: line {line:#x} in an L1 but not in LLC"
            )
        idx = set_idx * llc.ways + way
        llc._last_used[idx] = now
        sctx = self._sctx_of[ctx]
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
                llc.set_sbit(set_idx, way, sctx)
        return llc.hit_latency + self.dram.access(line), "DRAM"
