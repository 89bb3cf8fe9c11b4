"""A single cache level with TimeCache metadata arrays.

The cache owns, per (set, way) slot:

* the architectural line (:class:`~repro.memsys.line.CacheLine`), and
* two flat numpy arrays mirroring the paper's *separate transposed SRAM
  array* (Figure 3): ``tc`` — the truncated fill timestamp of the slot —
  and ``sbits`` — a bitmask with one security bit per hardware context
  sharing this cache.

Keeping Tc/s-bits in flat arrays matches the hardware design (a distinct
8-T SRAM structure scanned in parallel at context switches) and lets the
context-switch operations (save, restore, compare-and-reset) run as
whole-array operations, exactly like the bit-serial timestamp-parallel
comparator does in hardware.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import CacheConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatGroup
from repro.memsys.cacheset import CacheSet
from repro.memsys.line import CacheLine

#: a cache event listener: ``(event, set_idx, way, ctx)``
EventListener = Callable[[str, int, int, int], None]


class CacheBase:
    """What every cache level has, whichever engine stores its lines.

    ``hw_contexts`` lists the global hardware-context ids that share this
    cache; each gets one s-bit column.  A private L1 of a non-SMT core has
    exactly one context; the shared LLC has one per core thread.

    The base holds the geometry and the context columns, the Tc, s-bit
    and valid arrays with the context-switch operations over them, the
    event-listener chain and the ``c_*`` counters of ``stats``.  A
    subclass stores the lines themselves and implements lookup, fill,
    eviction, invalidation and the slot accessors the hierarchy uses:
    :class:`Cache` with ``CacheLine`` objects, the fast engine's
    :class:`~repro.memsys.fastengine.FastCache` with flat arrays.
    """

    __slots__ = (
        "config",
        "name",
        "hit_latency",
        "line_bytes",
        "num_sets",
        "ways",
        "max_sharers",
        "_set_mask",
        "_ctx_to_col",
        "tc",
        "sbits",
        "valid",
        "stats",
        "c_accesses",
        "c_hits",
        "c_misses",
        "c_first_access_misses",
        "c_fills",
        "c_evictions",
        "c_dirty_evictions",
        "c_cold_misses",
        "c_invalidations",
        "c_writebacks",
        "c_back_invalidations",
        "_ever_filled",
        "event_listener",
        "_event_listeners",
    )

    def __init__(
        self,
        config: CacheConfig,
        hw_contexts: Sequence[int],
        hit_latency: int,
        max_sharers: int,
        stats: StatGroup,
    ) -> None:
        config.validate()
        if not hw_contexts:
            raise SimulationError(f"{config.name}: needs >= 1 hardware context")
        if max_sharers < 0:
            raise SimulationError(f"{config.name}: max_sharers cannot be negative")
        self.config = config
        self.name = config.name
        self.hit_latency = hit_latency
        self.line_bytes = config.line_bytes
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._set_mask = self.num_sets - 1
        self._ctx_to_col: Dict[int, int] = {
            ctx: i for i, ctx in enumerate(hw_contexts)
        }
        if len(self._ctx_to_col) != len(hw_contexts):
            raise SimulationError(f"{config.name}: duplicate hardware contexts")
        #: truncated fill timestamp per slot (TimeCache's Tc array)
        self.tc = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        #: per-slot s-bit bitmask, one bit per context column
        self.sbits = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        #: per-slot valid bit, mirroring the tag array's occupancy; gates
        #: s-bit restores so invalid slots never carry visibility bits
        #: (the structural invariant the robustness checker enforces)
        self.valid = np.zeros((self.num_sets, self.ways), dtype=bool)
        #: Section VI-C scaling option: cap the number of contexts whose
        #: s-bit may be simultaneously set per line (a limited-pointer
        #: directory holds ~max_sharers pointers of log2(n) bits instead
        #: of n presence bits).  0 = full bit-vector (the paper default).
        #: Overflow evicts another sharer's visibility — always safe:
        #: the evicted sharer re-pays a first access, never gains a hit.
        self.max_sharers = max_sharers
        self.stats = stats
        # Hot counters, bound once so the access path never pays a
        # per-record dict lookup (see StatGroup.bound_counter).
        bound = stats.bound_counter
        self.c_accesses = bound("accesses")
        self.c_hits = bound("hits")
        self.c_misses = bound("misses")
        self.c_first_access_misses = bound("first_access_misses")
        self.c_fills = bound("fills")
        self.c_evictions = bound("evictions")
        self.c_dirty_evictions = bound("dirty_evictions")
        self.c_cold_misses = bound("cold_misses")
        self.c_invalidations = bound("invalidations")
        self.c_writebacks = bound("writebacks")
        self.c_back_invalidations = bound("back_invalidations")
        #: line addresses ever filled, to classify cold (compulsory)
        #: misses — reported separately so scaled (short) runs can report
        #: demand MPKI comparably to the paper's 1e9-instruction runs
        self._ever_filled: set = set()
        #: observation hook (repro.robustness, repro.obs): called after
        #: each metadata transition as ``(event, set_idx, way, ctx)`` where
        #: event is one of "fill", "evict", "invalidate", "sbit_set"; ctx
        #: is the global hardware context for fill/sbit_set and -1
        #: otherwise.  The invariant checker mirrors s-bit entitlement
        #: from these events; the obs tracer turns them into its event
        #: stream.  Direct assignment (single observer) still works;
        #: ``add_event_listener`` composes several without clobbering.
        #: Any listener sends the fast engine's ports down the
        #: event-emitting reference routes: tracing is honest but costs.
        self.event_listener: Optional[EventListener] = None
        self._event_listeners: List[EventListener] = []

    def _notify(self, event: str, set_idx: int, way: int, ctx: int = -1) -> None:
        if self.event_listener is not None:
            self.event_listener(event, set_idx, way, ctx)

    def add_event_listener(self, listener: EventListener) -> None:
        """Register a listener without displacing existing observers.

        A single listener is installed directly (the hot paths keep their
        one-slot ``is None`` check); several are fanned out through one
        dispatcher.  A listener installed by direct ``event_listener``
        assignment before the first ``add_event_listener`` call is
        adopted into the chain.
        """
        if self.event_listener is not None and not self._event_listeners:
            self._event_listeners.append(self.event_listener)
        self._event_listeners.append(listener)
        self._rebind_listeners()

    def remove_event_listener(self, listener: EventListener) -> None:
        self._event_listeners.remove(listener)
        self._rebind_listeners()

    def _rebind_listeners(self) -> None:
        listeners = self._event_listeners
        if not listeners:
            self.event_listener = None
        elif len(listeners) == 1:
            self.event_listener = listeners[0]
        else:
            chain = tuple(listeners)

            def fanout(
                event: str, set_idx: int, way: int, ctx: int, _chain=chain
            ) -> None:
                for fn in _chain:
                    fn(event, set_idx, way, ctx)

            self.event_listener = fanout

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def tag(self, line_addr: int) -> int:
        return line_addr  # full line address as tag (simple, unambiguous)

    def ctx_column(self, ctx: int) -> int:
        try:
            return self._ctx_to_col[ctx]
        except KeyError:
            raise SimulationError(
                f"{self.name}: hardware context {ctx} does not share this cache"
            ) from None

    def ctx_bit(self, ctx: int) -> int:
        return 1 << self.ctx_column(ctx)

    @property
    def contexts(self) -> List[int]:
        return list(self._ctx_to_col)

    # ------------------------------------------------------------------
    # S-bits of one slot
    # ------------------------------------------------------------------
    def sbit_is_set(self, set_idx: int, way: int, ctx: int) -> bool:
        return bool(self.sbits[set_idx, way] & self.ctx_bit(ctx))

    def set_sbit(self, set_idx: int, way: int, ctx: int) -> None:
        bit = self.ctx_bit(ctx)
        current = int(self.sbits[set_idx, way])
        if (
            self.max_sharers
            and not current & bit
            and bin(current).count("1") >= self.max_sharers
        ):
            # Limited-pointer overflow: evict the lowest-index sharer's
            # visibility to make room (it will re-pay a first access).
            lowest = current & -current
            current &= ~lowest
            self.stats.counter("sharer_evictions").add()
        self.sbits[set_idx, way] = current | bit
        self._notify("sbit_set", set_idx, way, ctx)

    # ------------------------------------------------------------------
    # Context-switch support (used by repro.core.context)
    # ------------------------------------------------------------------
    def save_sbits(self, ctx: int) -> np.ndarray:
        """Snapshot the s-bit column of ``ctx`` as a (sets, ways) bool array.

        This is the software "save" half of the paper's context-switch
        protocol; it is *positional* (per slot, not per tag), exactly like
        the hardware array it models.
        """
        col = self.ctx_column(ctx)
        return ((self.sbits >> col) & 1).astype(bool)

    def restore_sbits(self, ctx: int, saved: Optional[np.ndarray]) -> None:
        """Load a saved s-bit column for ``ctx`` (or all-zero for ``None``).

        The restored bits are *stale*; the caller must follow up with the
        timestamp comparator to clear bits whose slot was refilled since
        the save (Tc > Ts).
        """
        col = self.ctx_column(ctx)
        bit = np.int64(1) << col
        self.sbits &= ~bit
        if saved is not None:
            if saved.shape != (self.num_sets, self.ways):
                raise SimulationError(
                    f"{self.name}: saved s-bit shape {saved.shape} != "
                    f"{(self.num_sets, self.ways)}"
                )
            # Valid bits gate the restore: a slot whose line was evicted
            # while the task was away gets no s-bit back (it could never
            # grant a hit anyway — the tag is gone — but keeping it out
            # of the array preserves "s-bit set => line valid").
            self.sbits |= (saved & self.valid).astype(np.int64) << col
        self.stats.counter("sbit_restores").add()

    def clear_sbits_where(self, ctx: int, mask: np.ndarray) -> int:
        """Clear ctx's s-bits wherever ``mask`` is True; returns #cleared."""
        col = self.ctx_column(ctx)
        bit = np.int64(1) << col
        before = int(np.count_nonzero(self.sbits & bit))
        self.sbits[mask] &= ~bit
        after = int(np.count_nonzero(self.sbits & bit))
        return before - after

    def clear_all_sbits(self, ctx: int) -> None:
        """Clear every s-bit of ``ctx`` (rollover fallback, new process)."""
        bit = np.int64(1) << self.ctx_column(ctx)
        self.sbits &= ~bit

    def sbit_save_bytes(self) -> int:
        """Bytes needed to save one context's s-bit column (Section VI-D)."""
        return (self.config.num_lines + 7) // 8

    def sbit_save_transfers(self, transfer_bytes: int = 64) -> int:
        """Cache-line-sized transfers for one save or restore."""
        bytes_needed = self.sbit_save_bytes()
        return (bytes_needed + transfer_bytes - 1) // transfer_bytes


class Cache(CacheBase):
    """One level of the hierarchy (L1I, L1D, or LLC): the reference
    engine's, holding a :class:`CacheSet` of ``CacheLine`` objects per
    set and a :class:`~repro.common.stats.StatGroup` whose every counter
    the access path bumps."""

    def __init__(
        self,
        config: CacheConfig,
        hw_contexts: Sequence[int],
        hit_latency: int,
        max_sharers: int = 0,
    ) -> None:
        super().__init__(
            config, hw_contexts, hit_latency, max_sharers, StatGroup(config.name)
        )
        self.sets: List[CacheSet] = [
            CacheSet(i, config.ways) for i in range(self.num_sets)
        ]

    # ------------------------------------------------------------------
    # Lookup / fill / evict
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[Tuple[int, int]]:
        """(set, way) of a resident line, or ``None`` on a miss."""
        set_idx = self.set_index(line_addr)
        way = self.sets[set_idx].lookup(self.tag(line_addr))
        if way is None:
            return None
        return set_idx, way

    def line_at(self, set_idx: int, way: int) -> Optional[CacheLine]:
        return self.sets[set_idx].lines[way]

    def touch(self, set_idx: int, way: int, now: int) -> None:
        self.sets[set_idx].touch(way, now)

    def fill(
        self,
        line_addr: int,
        ctx: int,
        tc_now: int,
        dirty: bool = False,
        allowed_ways: Optional[range] = None,
    ) -> Optional[CacheLine]:
        """Install ``line_addr``, evicting a victim if the set is full.

        On the fill, the slot's Tc is set to the (already truncated)
        ``tc_now`` and the s-bit of the filling context is set while all
        other contexts' s-bits are cleared — the paper's fill rule.

        The victim is the set's LRU line (:meth:`CacheSet.choose_victim`);
        ``allowed_ways`` restricts both free-way selection and victim
        choice (CAT-style way masking for the partitioning baseline).

        Returns the evicted line or ``None``; the caller (the hierarchy)
        is responsible for writeback and back-invalidation of it.
        """
        set_idx = self.set_index(line_addr)
        cset = self.sets[set_idx]
        victim: Optional[CacheLine] = None
        if allowed_ways is None:
            way = cset.choose_victim()
        else:
            way = cset.choose_victim_in(allowed_ways)
        if cset.lines[way] is not None:
            victim = self._evict(set_idx, way)
        line = cset.install(way, self.tag(line_addr), tc_now)
        line.dirty = dirty
        self.tc[set_idx, way] = tc_now
        self.sbits[set_idx, way] = self.ctx_bit(ctx)
        self.valid[set_idx, way] = True
        self._notify("fill", set_idx, way, ctx)
        self.c_fills.add()
        if line_addr not in self._ever_filled:
            self._ever_filled.add(line_addr)
            self.c_cold_misses.add()
        return victim

    def _evict(self, set_idx: int, way: int) -> CacheLine:
        line = self.sets[set_idx].remove(way)
        # Eviction resets all s-bits for the slot (paper Section V-A).
        self.sbits[set_idx, way] = 0
        self.valid[set_idx, way] = False
        self._notify("evict", set_idx, way)
        self.c_evictions.add()
        if line.dirty:
            self.c_dirty_evictions.add()
        return line

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Invalidate ``line_addr`` if resident; s-bits are cleared too."""
        pos = self.lookup(line_addr)
        if pos is None:
            return None
        set_idx, way = pos
        line = self.sets[set_idx].remove(way)
        self.sbits[set_idx, way] = 0
        self.valid[set_idx, way] = False
        self._notify("invalidate", set_idx, way)
        self.c_invalidations.add()
        return line

    def resident(self, line_addr: int) -> bool:
        return self.lookup(line_addr) is not None

    def resident_line_addrs(self) -> List[int]:
        """All resident line addresses (tags double as line addresses)."""
        addrs: List[int] = []
        for cset in self.sets:
            addrs.extend(cset.resident_tags())
        return addrs

    @property
    def occupancy(self) -> int:
        return sum(cset.occupancy for cset in self.sets)

    # ------------------------------------------------------------------
    # Engine-generic slot accessors (the hierarchy's coherence and flush
    # paths use only these, so they run unchanged on the fast engine,
    # which has no CacheLine objects to hand out)
    # ------------------------------------------------------------------
    def mark_dirty(self, set_idx: int, way: int) -> None:
        """Dirty the resident line (store upgrade / private writeback)."""
        line = self.sets[set_idx].lines[way]
        if line is None:
            raise SimulationError(f"{self.name}: mark_dirty on empty slot")
        line.dirty = True

    def is_dirty(self, set_idx: int, way: int) -> bool:
        line = self.sets[set_idx].lines[way]
        return line is not None and line.dirty

    def downgrade(self, set_idx: int, way: int) -> None:
        """Clean the line after a cache-to-cache transfer."""
        line = self.sets[set_idx].lines[way]
        if line is None:
            raise SimulationError(f"{self.name}: downgrade on empty slot")
        line.dirty = False

    def resident_tags_in_ways(self, ways: Sequence[int]) -> List[int]:
        """Resident tags restricted to ``ways``, set-major then way order
        (the iteration the partitioning domain flush performs)."""
        tags: List[int] = []
        for cset in self.sets:
            for way in ways:
                line = cset.lines[way]
                if line is not None:
                    tags.append(line.tag)
        return tags
