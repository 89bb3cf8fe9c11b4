"""Struct-of-arrays fast engine for the memory hierarchy hot path.

The reference model (:mod:`repro.memsys.cache`, :mod:`.hierarchy`) spends
most of every access allocating and chasing Python objects: a
:class:`~repro.memsys.line.CacheLine` per way, a ``CacheSet`` per set, a
``StatGroup`` dict lookup per counter bump, and a frozen dataclass per
result.  This module provides a second, **semantics-identical** engine
that keeps the same per-slot state in struct-of-arrays form:

* ``tags`` / ``dirty`` / ``last_used`` / ``filled_at`` — numpy arrays
  shaped ``(num_sets, ways)`` with flat views, wrapped in memoryviews
  for the scalar paths (a memoryview scalar read costs about half a
  numpy scalar index);
* ``tc`` / ``sbits`` / ``valid`` — **canonical numpy arrays with the
  exact dtype and shape of the object engine's**, because the
  context-switch comparator, the fault injector, and the invariant
  checker all read and mutate them in place (``cache.tc[s, w] = ...``
  must keep working against either engine);
* per-slot s-bits packed as per-way int64 context bitmasks — one bit per
  hardware context column, the same convention as the object engine;
* statistics as bare integer attributes (``n_hits`` etc.) snapshotted on
  demand through a ``StatGroup``-compatible adapter.

Equivalence is not aspirational: ``tests/memsys/test_engine_equivalence``
differentially fuzzes both engines over random traces (TimeCache on/off,
context switches, multi-core stores, fault hooks) and asserts identical
``AccessResult`` streams, stat snapshots, and final s-bit/Tc state.  The
contract requires mirroring some subtle reference behaviors exactly:

* ``fill`` stamps ``last_used = filled_at = tc_now`` with the *truncated*
  timestamp while ``touch`` uses the full cycle count — LRU order mixes
  the two, so the fast engine stores exactly the same mixed values;
* victim selection tie-breaks on the lowest way index via a strictly-less
  scan, and a free way (first empty index) always wins;
* the random policy draws from the same :class:`DeterministicRng` fork in
  the same global order.

Supported replacement policies: ``lru``, ``fifo``, ``random``.  The
``tree-plru`` and ``srrip`` policies keep per-way state inside policy
objects and stay object-engine-only; configuring them with
``engine="fast"`` raises :class:`~repro.common.errors.ConfigError`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import DeterministicRng
from repro.common.stats import Counter, StatGroup
from repro.memsys.hierarchy import (
    AccessKind,
    AccessResult,
    MemoryHierarchy,
    Port,
)
from repro.memsys.line import LineState

_IFETCH = AccessKind.IFETCH
_STORE = AccessKind.STORE
#: counter name -> FastCache attribute.  "accesses" is NOT here: every
#: access outcome bumps exactly one of hits/misses/first_access_misses
#: (plus ``n_accesses`` for the one probe outcome that bumps neither), so
#: the access count is derived on read instead of bumped on every access.
_STAT_FIELDS: Dict[str, str] = {
    "back_invalidations": "n_back_invalidations",
    "cold_misses": "n_cold_misses",
    "dirty_evictions": "n_dirty_evictions",
    "evictions": "n_evictions",
    "fills": "n_fills",
    "first_access_misses": "n_first_access_misses",
    "hits": "n_hits",
    "invalidations": "n_invalidations",
    "misses": "n_misses",
    "prefetches": "n_prefetches",
    "sbit_restores": "n_sbit_restores",
    "sharer_evictions": "n_sharer_evictions",
    "writebacks": "n_writebacks",
}


class EvictedLine(NamedTuple):
    """What the fast engine returns for a displaced line.

    Duck-compatible with the ``.tag`` / ``.dirty`` reads the hierarchy's
    eviction, writeback, and flush paths perform on a ``CacheLine``.
    """

    tag: int
    dirty: bool


class _FieldCounter:
    """A ``Counter``-shaped handle that reads/writes a FastCache field."""

    __slots__ = ("name", "_cache", "_attr")

    def __init__(self, cache: "FastCache", name: str, attr: str) -> None:
        self.name = name
        self._cache = cache
        self._attr = attr

    @property
    def value(self) -> int:
        return getattr(self._cache, self._attr)

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        setattr(
            self._cache, self._attr, getattr(self._cache, self._attr) + amount
        )

    def reset(self) -> None:
        setattr(self._cache, self._attr, 0)


class _AccessesCounter:
    """Counter handle for the derived ``accesses`` total.

    ``value`` sums the outcome counters; ``add`` lands in the
    ``n_accesses`` adjustment slot (also bumped by the one probe outcome
    that records no hit/miss/first counter).
    """

    __slots__ = ("name", "_cache")

    def __init__(self, cache: "FastCache") -> None:
        self.name = "accesses"
        self._cache = cache

    @property
    def value(self) -> int:
        c = self._cache
        return c.n_hits + c.n_misses + c.n_first_access_misses + c.n_accesses

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counter accesses cannot decrease")
        self._cache.n_accesses += amount

    def reset(self) -> None:
        self._cache.n_accesses = 0


class FastStats:
    """``StatGroup``-compatible view over a FastCache's bare counters.

    Counter presence in :meth:`snapshot` mirrors the lazy/bound-counter
    protocol of the object engine: a counter appears once it has been
    incremented.  Unknown counter names are supported through a side
    table so external instrumentation keeps working.
    """

    __slots__ = ("name", "_cache", "_extra")

    def __init__(self, cache: "FastCache") -> None:
        self.name = cache.name
        self._cache = cache
        self._extra: Dict[str, _FieldCounter] = {}

    def counter(self, name: str):
        if name == "accesses":
            return _AccessesCounter(self._cache)
        attr = _STAT_FIELDS.get(name)
        if attr is not None:
            return _FieldCounter(self._cache, name, attr)
        counter = self._extra.get(name)
        if counter is None:
            counter = Counter(name)
            self._extra[name] = counter
        return counter

    def get(self, name: str) -> int:
        cache = self._cache
        if name == "accesses":
            return (
                cache.n_hits
                + cache.n_misses
                + cache.n_first_access_misses
                + cache.n_accesses
            )
        attr = _STAT_FIELDS.get(name)
        if attr is not None:
            return getattr(cache, attr)
        counter = self._extra.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self) -> Dict[str, int]:
        items: Dict[str, int] = {}
        cache = self._cache
        accesses = (
            cache.n_hits
            + cache.n_misses
            + cache.n_first_access_misses
            + cache.n_accesses
        )
        if accesses:
            items["accesses"] = accesses
        for key, attr in _STAT_FIELDS.items():
            value = getattr(cache, attr)
            if value:
                items[key] = value
        for key, counter in self._extra.items():
            items[key] = counter.value
        prefix = self.name
        return {f"{prefix}.{key}": items[key] for key in sorted(items)}

    def reset(self) -> None:
        self._cache.n_accesses = 0
        for attr in _STAT_FIELDS.values():
            setattr(self._cache, attr, 0)
        for counter in self._extra.values():
            counter.reset()


class FastCache:
    """Struct-of-arrays drop-in for :class:`repro.memsys.cache.Cache`.

    Implements the same public surface the hierarchy, the context-switch
    engine, the fault models, and the invariant checker use — lookup,
    fill/evict/invalidate, s-bit save/restore/clear, slot accessors —
    with identical observable behavior.  ``fill`` returns only the
    displaced :class:`EvictedLine` (or None); there is no CacheLine
    object to hand back.
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
        "_ctx_bit_of",
        "tc",
        "sbits",
        "valid",
        "tc_flat",
        "sbits_flat",
        "valid_flat",
        "tc_mv",
        "sbits_mv",
        "valid_mv",
        "tags_np",
        "tags_flat",
        "tags_mv",
        "dirty_np",
        "dirty_flat",
        "last_np",
        "last_flat",
        "filled_np",
        "filled_flat",
        "_tags",
        "_dirty",
        "_last_used",
        "_filled_at",
        "_tag_to_way",
        "_occ",
        "_policy",
        "_victim_stamps",
        "_set_rngs",
        "_ever_filled",
        "event_listener",
        "_event_listeners",
        "stats",
        "n_accesses",
        "n_hits",
        "n_misses",
        "n_first_access_misses",
        "n_fills",
        "n_evictions",
        "n_dirty_evictions",
        "n_cold_misses",
        "n_invalidations",
        "n_writebacks",
        "n_back_invalidations",
        "n_prefetches",
        "n_sharer_evictions",
        "n_sbit_restores",
    )

    def __init__(
        self,
        config: CacheConfig,
        hw_contexts: Sequence[int],
        hit_latency: int,
        rng: Optional[DeterministicRng] = None,
        max_sharers: int = 0,
    ) -> None:
        config.validate()
        if not hw_contexts:
            raise SimulationError(f"{config.name}: needs >= 1 hardware context")
        if max_sharers < 0:
            raise SimulationError(f"{config.name}: max_sharers cannot be negative")
        policy = config.replacement.lower()
        if policy not in ("lru", "fifo", "random"):
            raise ConfigError(
                f"{config.name}: the fast engine supports lru/fifo/random "
                f"replacement, not {config.replacement!r}; use engine='object'"
            )
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
        self._ctx_bit_of: Dict[int, int] = {
            ctx: 1 << col for ctx, col in self._ctx_to_col.items()
        }
        self.max_sharers = max_sharers
        # Canonical TimeCache metadata: same dtype/shape as the object
        # engine, mutated in place by the comparator and the fault models.
        self.tc = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self.sbits = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self.valid = np.zeros((self.num_sets, self.ways), dtype=bool)
        # Flat views share memory with the 2-D arrays; scalar indexing on
        # a 1-D view is the cheapest numpy access the hot path gets.
        self.tc_flat = self.tc.reshape(-1)
        self.sbits_flat = self.sbits.reshape(-1)
        self.valid_flat = self.valid.reshape(-1)
        # Memoryviews over the same buffers: scalar reads/writes through a
        # memoryview cost roughly half a numpy scalar index, and every
        # external in-place numpy mutation (comparator, fault models)
        # remains visible through them.
        self.tc_mv = memoryview(self.tc_flat)
        self.sbits_mv = memoryview(self.sbits_flat)
        self.valid_mv = memoryview(self.valid_flat)
        # Architectural slot state: numpy arrays (set * ways + way flat
        # order) with memoryview aliases for the scalar paths.  MESI-lite
        # keeps line state in lockstep with the dirty flag (MODIFIED iff
        # dirty, else SHARED), so the fast engine stores only the dirty
        # bit; ``state_at`` derives the enum on demand.  ``_tags`` IS
        # ``tags_mv`` — one buffer, no mirror to keep in lockstep.
        self.tags_np = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self.tags_flat = self.tags_np.reshape(-1)
        self.tags_mv = memoryview(self.tags_flat)
        self._tags: memoryview = self.tags_mv
        self.dirty_np = np.zeros((self.num_sets, self.ways), dtype=bool)
        self.dirty_flat = self.dirty_np.reshape(-1)
        self._dirty: memoryview = memoryview(self.dirty_flat)
        self.last_np = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self.last_flat = self.last_np.reshape(-1)
        self._last_used: memoryview = memoryview(self.last_flat)
        self.filled_np = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self.filled_flat = self.filled_np.reshape(-1)
        self._filled_at: memoryview = memoryview(self.filled_flat)
        self._tag_to_way: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self._occ: List[int] = [0] * self.num_sets
        self._policy = policy
        # Victim-scan stamp source, aliasing the recency lists (which are
        # mutated in place, never rebound): last_used for LRU, filled_at
        # for FIFO, None for random.
        if policy == "lru":
            self._victim_stamps: Optional[memoryview] = self._last_used
        elif policy == "fifo":
            self._victim_stamps = self._filled_at
        else:
            self._victim_stamps = None
        # The object engine hands ONE shared rng to every set's random
        # policy (or a per-set default when rng is None); mirror both so
        # the draw sequence is identical.
        if policy == "random":
            if rng is not None:
                self._set_rngs = [rng] * self.num_sets
            else:
                self._set_rngs = [
                    DeterministicRng(self.ways) for _ in range(self.num_sets)
                ]
        else:
            self._set_rngs = []
        self._ever_filled: set = set()
        self.event_listener: Optional[Callable[[str, int, int, int], None]] = None
        self._event_listeners: List[Callable[[str, int, int, int], None]] = []
        self.stats = FastStats(self)
        self.n_accesses = 0
        self.n_hits = 0
        self.n_misses = 0
        self.n_first_access_misses = 0
        self.n_fills = 0
        self.n_evictions = 0
        self.n_dirty_evictions = 0
        self.n_cold_misses = 0
        self.n_invalidations = 0
        self.n_writebacks = 0
        self.n_back_invalidations = 0
        self.n_prefetches = 0
        self.n_sharer_evictions = 0
        self.n_sbit_restores = 0

    # ------------------------------------------------------------------
    # Addressing helpers (object-engine API)
    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def tag(self, line_addr: int) -> int:
        return line_addr

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

    def sbit_is_set(self, set_idx: int, way: int, ctx: int) -> bool:
        return bool(self.sbits_mv[set_idx * self.ways + way] & self.ctx_bit(ctx))

    def set_sbit(self, set_idx: int, way: int, ctx: int) -> None:
        bit = self._ctx_bit_of.get(ctx)
        if bit is None:
            self.ctx_column(ctx)  # raises the object engine's error
        idx = set_idx * self.ways + way
        current = self.sbits_mv[idx]
        if (
            self.max_sharers
            and not current & bit
            and bin(current).count("1") >= self.max_sharers
        ):
            lowest = current & -current
            current &= ~lowest
            self.n_sharer_evictions += 1
        self.sbits_mv[idx] = current | bit
        if self.event_listener is not None:
            self.event_listener("sbit_set", set_idx, way, ctx)

    def add_event_listener(
        self, listener: Callable[[str, int, int, int], None]
    ) -> None:
        """Register a listener without displacing existing observers (the
        same chaining contract as the object engine's Cache).  Note that
        any non-None ``event_listener`` makes the hot paths fall back to
        the event-emitting slow routes — tracing is honest but costs."""
        if self.event_listener is not None and not self._event_listeners:
            self._event_listeners.append(self.event_listener)
        self._event_listeners.append(listener)
        self._rebind_listeners()

    def remove_event_listener(
        self, listener: Callable[[str, int, int, int], None]
    ) -> None:
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

    def _victim_way(self, set_idx: int) -> int:
        """Full set: pick the way to evict, mirroring the policies'
        strictly-less / first-index tie-break scans exactly."""
        base = set_idx * self.ways
        stamps = self._victim_stamps
        if stamps is None:
            return self._set_rngs[set_idx].randint(0, self.ways - 1)
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
        (always LRU regardless of policy, like ``choose_victim_in``)."""
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
        state: LineState,
        dirty: bool = False,
        allowed_ways=None,
    ) -> Optional[EvictedLine]:
        """Install ``line_addr``; returns the displaced line or None.

        Same semantics as the object engine's fill (fill rule, Tc stamp,
        victim choice) — but returns only the victim, since there is no
        CacheLine object to return for the installed slot.
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
        # CacheLine.__init__ stamps both recency fields with the
        # (truncated) fill time; touch() later overwrites with full time.
        self._last_used[idx] = tc_now
        self._filled_at[idx] = tc_now
        self._tag_to_way[set_idx][line_addr] = way
        self._occ[set_idx] += 1
        self.tc_mv[idx] = tc_now
        self.sbits_mv[idx] = self._ctx_bit_of[ctx]
        self.valid_mv[idx] = True
        if self.event_listener is not None:
            self.event_listener("fill", set_idx, way, ctx)
        self.n_fills += 1
        if line_addr not in self._ever_filled:
            self._ever_filled.add(line_addr)
            self.n_cold_misses += 1
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
        self.n_evictions += 1
        if was_dirty:
            self.n_dirty_evictions += 1
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
        self.n_invalidations += 1
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

    # ------------------------------------------------------------------
    # Context-switch support (identical array code to the object engine)
    # ------------------------------------------------------------------
    def save_sbits(self, ctx: int) -> np.ndarray:
        col = self.ctx_column(ctx)
        return ((self.sbits >> col) & 1).astype(bool)

    def restore_sbits(self, ctx: int, saved: Optional[np.ndarray]) -> None:
        col = self.ctx_column(ctx)
        bit = np.int64(1) << col
        self.sbits &= ~bit
        if saved is not None:
            if saved.shape != (self.num_sets, self.ways):
                raise SimulationError(
                    f"{self.name}: saved s-bit shape {saved.shape} != "
                    f"{(self.num_sets, self.ways)}"
                )
            self.sbits |= (saved & self.valid).astype(np.int64) << col
        self.n_sbit_restores += 1

    def clear_sbits_where(self, ctx: int, mask: np.ndarray) -> int:
        col = self.ctx_column(ctx)
        bit = np.int64(1) << col
        before = int(np.count_nonzero(self.sbits & bit))
        self.sbits[mask] &= ~bit
        after = int(np.count_nonzero(self.sbits & bit))
        return before - after

    def clear_all_sbits(self, ctx: int) -> None:
        bit = np.int64(1) << self.ctx_column(ctx)
        self.sbits &= ~bit

    def sbit_save_bytes(self) -> int:
        return (self.config.num_lines + 7) // 8

    def sbit_save_transfers(self, transfer_bytes: int = 64) -> int:
        bytes_needed = self.sbit_save_bytes()
        return (bytes_needed + transfer_bytes - 1) // transfer_bytes


class _FastHierarchyStats(StatGroup):
    """Hierarchy StatGroup whose ``accesses`` counter is derived on read.

    Every hierarchy access bumps exactly one private-cache outcome
    counter (hit, miss, or first-access miss), so the hierarchy access
    total is their sum — no per-access bump needed.  The hierarchy's
    ``n_accesses`` is an adjustment slot for external ``add()`` calls
    (and for rebasing after a reset)."""

    def __init__(self, hier: "FastHierarchy") -> None:
        super().__init__("hierarchy")
        self._hier = hier

    def _sync(self) -> None:
        hier = self._hier
        total = hier.n_accesses
        for cache in hier._private_list:
            total += cache.n_hits + cache.n_misses + cache.n_first_access_misses
        if total or "accesses" in self._counters:
            self.counter("accesses").value = total

    def get(self, name: str) -> int:
        self._sync()
        return super().get(name)

    def snapshot(self) -> Dict[str, int]:
        self._sync()
        return super().snapshot()

    def reset(self) -> None:
        super().reset()
        # Rebase so the derived total reads zero while the (unreset)
        # cache counters keep counting from here.
        hier = self._hier
        hier.n_accesses = -sum(
            c.n_hits + c.n_misses + c.n_first_access_misses
            for c in hier._private_list
        )


class FastHierarchy(MemoryHierarchy):
    """The memory hierarchy driven through :class:`FastCache` levels.

    Reuses the reference topology construction (identical rng fork names,
    so random replacement draws match), the ``access`` dispatcher, the
    ``access_batch`` loop and all cold paths — partitioning flushes,
    clflush, inclusion checks — which run unchanged against the
    engine-generic cache surface.  Only :meth:`_bind`, which builds each
    context's per-kind port, is overridden, with the reference semantics
    inlined over struct-of-arrays state.
    """

    def __init__(self, config, timecache=None, clock=None, rng=None) -> None:
        super().__init__(config, timecache=timecache, clock=clock, rng=rng)
        contexts = range(config.num_cores * config.threads_per_core)
        self._sctx_of = [self._llc_sbit_ctx(ctx) for ctx in contexts]
        self._private_list = self.l1i + self.l1d
        self._dram_first = self.tc_config.dram_latency_on_first_access
        #: interned AccessResult instances keyed by (latency, level,
        #: first) — the value set is tiny and the dataclass is frozen, so
        #: sharing instances is safe and skips ~0.5us of construction.
        self._results: Dict[Tuple[int, str, bool], AccessResult] = {}
        #: adjustment slot for the derived hierarchy "accesses" counter
        #: (external add()s and reset rebasing; see _FastHierarchyStats)
        self.n_accesses = 0
        self.stats = _FastHierarchyStats(self)
        self.c_accesses = self.stats.bound_counter("accesses")

    def _make_cache(
        self, config, hw_contexts, hit_latency, rng, max_sharers=0
    ) -> FastCache:
        return FastCache(
            config, hw_contexts, hit_latency, rng, max_sharers=max_sharers
        )

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
        listener rebinds it.  A port serves one kind, so only a store
        port walks the other private caches, and it looks the line up
        in each one's tag map before invalidating it there.
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
        prefetch_on = self.config.next_line_prefetch
        sctx = self._sctx_of[ctx]
        l1name = l1.name
        set_mask = l1._set_mask
        t2w_of_set = l1._tag_to_way
        ways = l1.ways
        upper_ways = range(1, ways)
        hit_latency = l1.hit_latency
        bit = l1._ctx_bit_of[ctx]
        sbits_mv = l1.sbits_mv
        tc_mv = l1.tc_mv
        valid_mv = l1.valid_mv
        tags = l1._tags
        dirty = l1._dirty
        last_used = l1._last_used
        filled_at = l1._filled_at
        occ = l1._occ
        victim_stamps = l1._victim_stamps
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
        lbit = llc._ctx_bit_of[sctx]
        # a store's other private caches, with their tag maps and set masks
        others = [
            (cache, cache._tag_to_way, cache._set_mask)
            for cache in self._private_list
            if is_write and cache is not l1
        ]
        invalidate_private = self._invalidate_private
        probe_llc = self._probe_llc
        remote_owner_transfer = self._remote_owner_transfer
        llc_miss = self._llc_miss
        fill_private = self._fill_private
        prefetch_next_line = self._prefetch_next_line

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
                    l1.n_first_access_misses += 1
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
                    l1.n_hits += 1
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
                l1.n_misses += 1
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
                        llc.n_first_access_misses += 1
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
                        llc.n_hits += 1
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
                        if victim_stamps is None:
                            way = l1._set_rngs[set_idx].randint(0, ways - 1)
                        else:
                            way = 0
                            best = victim_stamps[base]
                            for w in upper_ways:
                                stamp = victim_stamps[base + w]
                                if stamp < best:
                                    best = stamp
                                    way = w
                        idx = base + way
                        vtag = tags[idx]
                        vdirty = dirty[idx]
                        del t2w[vtag]
                        l1.n_evictions += 1
                        if vdirty:
                            l1.n_dirty_evictions += 1
                        # No s-bit/valid clears here: the slot is refilled
                        # just below, which overwrites sbits and leaves valid
                        # True — the same final state the evict-then-install
                        # pair of the reference engine produces.
                    tnow = now & tc_mask
                    tags[idx] = line
                    dirty[idx] = is_write
                    last_used[idx] = tnow
                    filled_at[idx] = tnow
                    t2w[line] = way
                    tc_mv[idx] = tnow
                    sbits_mv[idx] = bit
                    l1.n_fills += 1
                    if line not in ever_filled:
                        ever_filled.add(line)
                        l1.n_cold_misses += 1
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
                            l1.n_writebacks += 1
                        sharers = all_sharers.get(vtag)
                        if sharers is not None:
                            # Unlike Directory.remove_sharer, leave the emptied
                            # set in place: every public reader treats empty and
                            # absent identically, and the next fill of this line
                            # reuses the set instead of reallocating one.
                            sharers.discard(l1name)
                        if owners and owners.get(vtag) == l1name:
                            del owners[vtag]
                if prefetch_on:
                    prefetch_next_line(l1, line + 1, ctx, now)
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

    def _remote_owner_transfer(self, line: int, owner: str) -> Tuple[int, str]:
        """Slow half of _coherence_on_access: a foreign private cache owns
        the line; pull it out if dirty (cache-to-cache transfer)."""
        extra = 0
        level = ""
        owner_cache = self._private_by_name(owner)
        pos = owner_cache.lookup(line)
        if pos is not None:
            set_idx, way = pos
            if owner_cache.is_dirty(set_idx, way):
                extra += self.latency.remote_transfer
                level = "remote"
                owner_cache.downgrade(set_idx, way)
                self._writeback_to_llc(line)
        self.directory.clear_owner(line)
        return extra, level

    def _llc_miss(
        self, l1: FastCache, line: int, ctx: int, sctx: int, is_write: bool, now: int
    ) -> Tuple[int, str]:
        llc = self.llc
        llc.n_misses += 1
        dram_latency = self.dram.access(line)
        victim = llc.fill(
            line,
            sctx,
            now & self._tc_mask,
            LineState.SHARED,
            allowed_ways=self._llc_allowed_ways(ctx),
        )
        wb = 0
        if victim is not None:
            wb = self._handle_llc_eviction(victim)
        if is_write:
            self.directory.set_owner(line, l1.name)
        else:
            self.directory.add_sharer(line, l1.name)
        return llc.hit_latency + dram_latency + wb, "DRAM"

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
        sbit = llc.sbits_mv[idx] & llc._ctx_bit_of[sctx]
        if sbit:
            if not self._dram_first:
                llc.n_hits += 1
                return llc.hit_latency, "LLC"
            # Hidden-latency probe: the one outcome that records no
            # hit/first counter, so the derived access count needs the
            # explicit adjustment bump.
            llc.n_accesses += 1
        else:
            llc.n_first_access_misses += 1
            if llc.event_listener is None and llc.max_sharers == 0:
                llc.sbits_mv[idx] |= llc._ctx_bit_of[sctx]
            else:
                llc.set_sbit(set_idx, way, sctx)
        return llc.hit_latency + self.dram.access(line), "DRAM"

    # ------------------------------------------------------------------
    # Fills, evictions, coherence
    # ------------------------------------------------------------------
    def _fill_private(
        self, l1: FastCache, line: int, ctx: int, is_write: bool, now: int
    ) -> None:
        state = LineState.MODIFIED if is_write else LineState.SHARED
        victim = l1.fill(
            line, ctx, now & self._tc_mask, state, dirty=is_write
        )
        if is_write:
            self._invalidate_other_private(l1, line)
            self.directory.set_owner(line, l1.name)
        if victim is not None:
            self._handle_private_eviction(l1, victim)

    def _prefetch_next_line(
        self, l1: FastCache, line: int, ctx: int, now: int
    ) -> None:
        if l1._tag_to_way[line & l1._set_mask].get(line) is not None:
            return
        l1.n_prefetches += 1
        llc = self.llc
        if llc._tag_to_way[line & llc._set_mask].get(line) is None:
            self.dram.access(line)  # background fetch; latency hidden
            victim = llc.fill(
                line,
                self._sctx_of[ctx],
                now & self._tc_mask,
                LineState.SHARED,
                allowed_ways=self._llc_allowed_ways(ctx),
            )
            if victim is not None:
                self._handle_llc_eviction(victim)
            self.directory.add_sharer(line, l1.name)
        else:
            self.directory.add_sharer(line, l1.name)
        victim = l1.fill(line, ctx, now & self._tc_mask, LineState.SHARED)
        if victim is not None:
            self._handle_private_eviction(l1, victim)

    def _invalidate_other_private(self, requester: FastCache, line: int) -> None:
        for cache in self._private_list:
            if cache is not requester:
                self._invalidate_private(cache, line)

    def _invalidate_private(self, cache: FastCache, line: int) -> None:
        """Invalidate ``line`` in one private cache: a dirty copy is
        written back to the LLC, and the cache leaves the line's
        sharers."""
        evicted = cache.invalidate(line)
        if evicted is not None:
            if evicted.dirty:
                self._writeback_to_llc(line)
            self.directory.remove_sharer(line, cache.name)

    def _writeback_to_llc(self, line: int) -> None:
        llc = self.llc
        set_idx = line & llc._set_mask
        way = llc._tag_to_way[set_idx].get(line)
        if way is None:
            raise SimulationError(
                f"writeback of line {line:#x} but LLC does not hold it"
            )
        idx = set_idx * llc.ways + way
        llc._dirty[idx] = True

    def _handle_private_eviction(self, l1: FastCache, victim: EvictedLine) -> None:
        line = victim.tag
        if victim.dirty:
            self._writeback_to_llc(line)
            l1.n_writebacks += 1
        self.directory.remove_sharer(line, l1.name)

    def _handle_llc_eviction(self, victim: EvictedLine) -> int:
        line = victim.tag
        dirty = victim.dirty
        for cache_name in self.directory.drop_line(line):
            cache = self._private_name_map[cache_name]
            evicted = cache.invalidate(line)
            if evicted is not None and evicted.dirty:
                dirty = True
        llc = self.llc
        llc.n_back_invalidations += 1
        if dirty:
            self.dram.writeback(line)
            llc.n_writebacks += 1
            return self.latency.writeback
        return 0
