"""The multi-level memory hierarchy with the TimeCache access protocol.

This module implements the blocking access path of a TimingSimpleCPU-style
system — private L1I/L1D per core, a shared inclusive LLC, DRAM — plus the
three TimeCache behaviors the paper adds to a conventional cache:

1. An access is a hit only if the tag matches **and** the accessing
   hardware context's s-bit is set.
2. On a tag hit with a clear s-bit (a *first access*), the request is
   still sent down the hierarchy; the response data is discarded but its
   latency is observed, and the probe stops at the first lower level whose
   s-bit for the context is set (or at DRAM).
3. Fills set the requester's s-bit and clear everyone else's; evictions
   and invalidations clear all s-bits of the slot.

With ``TimeCacheConfig.enabled == False`` the very same code paths model
the unmodified baseline cache, which is what every experiment compares
against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import repeat
from time import perf_counter_ns
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.clock import GlobalClock
from repro.common.config import HierarchyConfig, TimeCacheConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatGroup
from repro.memsys.cache import Cache, CacheBase
from repro.memsys.coherence import Directory
from repro.memsys.dram import Dram
from repro.memsys.line import CacheLine


class AccessKind(enum.Enum):
    """The three access types the CPU issues."""

    IFETCH = "ifetch"
    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access.

    ``level`` names where the request was ultimately serviced ("L1", "LLC",
    "DRAM", "remote"); ``first_access`` is True when TimeCache delayed a
    tag hit because the context's s-bit was clear at the outermost level
    that held the line.
    """

    latency: int
    level: str
    first_access: bool


class BatchResult(NamedTuple):
    """Outcome of one :meth:`MemoryHierarchy.access_batch` call.

    ``results`` holds one :class:`AccessResult` per access, in issue
    order; ``now`` is the cycle cursor after the last access — the value
    a caller passes as ``now`` to the next batch to continue the same
    stream (in ``nows`` mode it is simply the last issue time).
    """

    results: List[AccessResult]
    now: int


#: what callers may pass as the ``kinds`` argument of ``access_batch``
KindsArg = Union[AccessKind, Sequence[AccessKind]]

#: one context's accessor for one access kind: ``port(addr, now)``
Port = Callable[[int, int], AccessResult]

_LOAD, _STORE, _IFETCH = AccessKind.LOAD, AccessKind.STORE, AccessKind.IFETCH


class AccessPorts(NamedTuple):
    """One hardware context's accessors, one per access kind.

    ``port(addr, now)`` is the access :meth:`MemoryHierarchy.access`
    makes for that context and kind, with everything fixed for the
    pair already resolved (:meth:`MemoryHierarchy.ports`).
    """

    load: Port
    store: Port
    ifetch: Port

    def of(self, kind: AccessKind) -> Port:
        """The port for ``kind`` (a kind that is neither a store nor an
        ifetch is served as a load, as :meth:`MemoryHierarchy.access`
        always served it)."""
        if kind is _STORE:
            return self.store
        if kind is _IFETCH:
            return self.ifetch
        return self.load


class MemoryHierarchy:
    """Private L1s per core + shared inclusive LLC + DRAM + directory."""

    def __init__(
        self,
        config: HierarchyConfig,
        timecache: Optional[TimeCacheConfig] = None,
        clock: Optional[GlobalClock] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.tc_config = timecache if timecache is not None else TimeCacheConfig()
        self.tc_config.validate()
        self.clock = clock if clock is not None else GlobalClock()
        self.line_shift = config.line_bytes.bit_length() - 1
        self._tc_mask = (1 << self.tc_config.timestamp_bits) - 1
        lat = config.latency
        self.latency = lat

        threads = config.threads_per_core
        all_ctxs = list(range(config.num_cores * threads))
        self.l1i: List[CacheBase] = []
        self.l1d: List[CacheBase] = []
        for core in range(config.num_cores):
            ctxs = all_ctxs[core * threads : (core + 1) * threads]
            self.l1i.append(
                self._make_cache(
                    replace(config.l1i, name=f"L1I{core}"),
                    ctxs,
                    lat.l1_hit,
                    max_sharers=self.tc_config.max_sharers,
                )
            )
            self.l1d.append(
                self._make_cache(
                    replace(config.l1d, name=f"L1D{core}"),
                    ctxs,
                    lat.l1_hit,
                    max_sharers=self.tc_config.max_sharers,
                )
            )
        self.llc = self._make_cache(
            config.llc,
            all_ctxs,
            lat.l2_hit,
            max_sharers=self.tc_config.max_sharers,
        )
        self.dram = Dram(lat.dram)
        self.directory = Directory()
        self.stats = StatGroup("hierarchy")
        self.c_accesses = self.stats.bound_counter("accesses")
        self._private_name_map: Dict[str, CacheBase] = {
            cache.name: cache for cache in self.private_caches()
        }
        #: CAT-style partitioning state: security domain per hw context
        #: (programmed by the OS at context switches) and the LLC way
        #: range per domain.  Empty/None when partitioning is off.
        self._domain_of_ctx: Dict[int, int] = {}
        self._partition_domains = 0
        #: observation hooks (repro.robustness).  Pre-listeners run before
        #: an access mutates any state, post-listeners after it completes;
        #: both receive the *line* address.  Empty lists cost nothing on
        #: the hot path.  The ports capture these lists: attach and detach
        #: by mutating them, never by rebinding them.
        self.pre_access_listeners: List[
            Callable[[int, int, AccessKind, int], None]
        ] = []
        self.post_access_listeners: List[
            Callable[[int, int, AccessKind, int, AccessResult], None]
        ] = []
        #: each hardware context's ports, bound on first request
        self._ports: List[Optional[AccessPorts]] = [None] * len(all_ctxs)
        #: optional :class:`repro.obs.spans.PhaseAccumulator` recording
        #: where batched-access *wall-clock* goes.  ``None`` keeps
        #: :meth:`access_batch` on its untimed branch; an installed
        #: :class:`~repro.obs.spans.ObsSession` points this at its
        #: accumulator when the owning system is constructed.
        self.kernel_profiler = None

    def _make_cache(
        self,
        config,
        hw_contexts,
        hit_latency: int,
        max_sharers: int = 0,
    ) -> CacheBase:
        """Cache factory; the fast engine overrides this single seam to
        substitute its struct-of-arrays implementation while reusing the
        topology wiring above."""
        return Cache(config, hw_contexts, hit_latency, max_sharers=max_sharers)

    # ------------------------------------------------------------------
    # CAT-style way partitioning (the comparison baseline)
    # ------------------------------------------------------------------
    def enable_partitioning(self, domains: int) -> None:
        """Split the LLC ways into ``domains`` equal fill regions."""
        if domains < 1 or domains > self.llc.ways:
            raise SimulationError(
                f"cannot split {self.llc.ways} ways into {domains} domains"
            )
        self._partition_domains = domains

    def set_domain(self, ctx: int, domain: int) -> None:
        """Program the security domain of a hardware context (the MSR
        write an Apparition/Catalyst-style kernel performs per switch)."""
        if self._partition_domains and not 0 <= domain < self._partition_domains:
            raise SimulationError(f"domain {domain} out of range")
        self._domain_of_ctx[ctx] = domain

    def _llc_allowed_ways(self, ctx: int) -> Optional[range]:
        """The LLC ways a fill by ``ctx`` may use: its domain's, or
        ``None`` (every way) when partitioning is off."""
        if not self._partition_domains:
            return None
        return self.domain_ways(self._domain_of_ctx.get(ctx, 0))

    def domain_ways(self, domain: int) -> range:
        per_domain = self.llc.ways // max(1, self._partition_domains)
        start = domain * per_domain
        # the last domain absorbs any remainder ways
        end = (
            self.llc.ways
            if domain == self._partition_domains - 1
            else start + per_domain
        )
        return range(start, end)

    def flush_domain_ways(self, domain: int) -> int:
        """Flush every LLC line in a domain's ways plus the private
        caches (the Apparition flush at a context switch).  Returns the
        number of LLC lines flushed (the cost driver)."""
        flushed = 0
        ways = list(self.domain_ways(domain))
        for tag in self.llc.resident_tags_in_ways(ways):
            self._flush_line_everywhere(tag)
            flushed += 1
        self.stats.counter("domain_flushes").add()
        return flushed

    def flush_private_caches(self, core: int) -> int:
        """Flush a core's L1I/L1D entirely (per-switch private flush)."""
        flushed = 0
        for cache in (self.l1i[core], self.l1d[core]):
            for line_addr in cache.resident_line_addrs():
                evicted = cache.invalidate(line_addr)
                if evicted is not None:
                    if evicted.dirty:
                        self._writeback_to_llc(line_addr)
                    self.directory.remove_sharer(line_addr, cache.name)
                    flushed += 1
        return flushed

    def _flush_line_everywhere(self, line: int) -> bool:
        """Invalidate ``line`` in every private cache that holds it, then
        the LLC, and write it back if any copy was dirty.  Returns
        whether the LLC held it: by inclusion, whether any level did."""
        dirty = self._invalidate_holders(line)
        llc_line = self.llc.invalidate(line)
        if llc_line is None:
            return False
        if dirty or llc_line.dirty:
            self.dram.writeback(line)
        return True

    def _invalidate_holders(self, line: int) -> bool:
        """Drop ``line``'s directory entry and invalidate it in each
        private cache the entry listed, in :meth:`private_caches` order
        (so the events do not depend on string hashing).  Returns
        whether any of those copies was dirty."""
        dirty = False
        holders = self.directory.drop_line(line)
        if holders:
            for name, cache in self._private_name_map.items():
                if name in holders:
                    evicted = cache.invalidate(line)
                    if evicted is not None and evicted.dirty:
                        dirty = True
        return dirty

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def core_of_ctx(self, ctx: int) -> int:
        core = ctx // self.config.threads_per_core
        if not 0 <= core < self.config.num_cores:
            raise SimulationError(f"hardware context {ctx} out of range")
        return core

    def line_addr(self, addr: int) -> int:
        return addr >> self.line_shift

    def private_caches(self) -> List[CacheBase]:
        return self.l1i + self.l1d

    def all_caches(self) -> List[CacheBase]:
        return self.private_caches() + [self.llc]

    def _truncate(self, now: int) -> int:
        """Truncate a full cycle count to the Tc timestamp width."""
        return now & self._tc_mask

    @property
    def timecache_enabled(self) -> bool:
        return self.tc_config.enabled

    @property
    def _llc_first_access_guard(self) -> bool:
        """Whether the LLC applies the first-access discipline — under
        TimeCache, and under the FTM comparison mode (LLC-only)."""
        return self.tc_config.enabled or self.tc_config.ftm_mode

    def _llc_sbit_ctx(self, ctx: int) -> int:
        """The identity the LLC tracks visibility by.

        TimeCache: the hardware context (per-thread).  FTM: the physical
        core (directory presence bits are per core — which is exactly why
        FTM cannot separate time-sliced processes or SMT siblings)."""
        if self.tc_config.ftm_mode:
            return self.core_of_ctx(ctx) * self.config.threads_per_core
        return ctx

    # ------------------------------------------------------------------
    # The access protocol
    # ------------------------------------------------------------------
    def access(self, ctx: int, addr: int, kind: AccessKind, now: int) -> AccessResult:
        """Perform one blocking memory access by hardware context ``ctx``.

        ``now`` is the issuing core's local cycle count; fills are
        timestamped with it (truncated to the Tc width).  Returns the
        total observed latency and where the data came from.

        This is the one dispatcher over :meth:`ports`; a caller making
        many accesses for one context binds its ports once instead.
        """
        return self.ports(ctx).of(kind)(addr, now)

    def ports(self, ctx: int) -> AccessPorts:
        """Hardware context ``ctx``'s load, store and ifetch ports.

        Each port is ``port(addr, now)``, the :meth:`access` of that
        context and kind, built by the engine's :meth:`_bind` on the
        first request and kept for the hierarchy's lifetime.  A context
        out of range raises :class:`SimulationError`.

        A port captures what is fixed for its context and kind — the
        L1, the LLC, the directory maps, the listener lists, the
        counter handles, the context's s-bits — as closure cells.
        That is sound only because each of those is set once, at
        construction, and from then on mutated only in place: observers
        attach by appending to the listener lists, ``stats.reset()``
        zeroes counters without replacing them, and nothing rebinds a
        cache or its arrays.  Anything that rebound one of them would be
        missed by every port already bound.
        """
        bound = self._ports
        if not 0 <= ctx < len(bound):
            raise SimulationError(f"hardware context {ctx} out of range")
        ports = bound[ctx]
        if ports is None:
            ports = bound[ctx] = AccessPorts(
                self._bind(ctx, _LOAD),
                self._bind(ctx, _STORE),
                self._bind(ctx, _IFETCH),
            )
        return ports

    def _bind(self, ctx: int, kind: AccessKind) -> Port:
        """The reference engine's port: the access path with the L1, the
        write flag and the hooks of ``(ctx, kind)`` resolved once."""
        core = self.core_of_ctx(ctx)
        l1 = self.l1i[core] if kind is _IFETCH else self.l1d[core]
        is_write = kind is _STORE
        line_shift = self.line_shift
        clock = self.clock
        pre_listeners = self.pre_access_listeners
        post_listeners = self.post_access_listeners
        access_l1 = self._access_l1
        accesses = self.c_accesses

        def port(addr: int, now: int) -> AccessResult:
            line = addr >> line_shift
            clock.advance_to(now)
            if pre_listeners:
                for listener in pre_listeners:
                    listener(ctx, line, kind, now)
            result = access_l1(l1, line, ctx, is_write, now)
            accesses.add()
            if post_listeners:
                for listener in post_listeners:
                    listener(ctx, line, kind, now, result)
            return result

        return port

    def access_batch(
        self,
        ctx: int,
        addrs: Sequence[int],
        kinds: KindsArg = AccessKind.LOAD,
        now: int = 0,
        advance: int = 1,
        nows: Optional[Sequence[int]] = None,
    ) -> BatchResult:
        """Execute a run of same-context accesses; the scalar reference.

        The semantics are *defined* as exactly this loop over
        :meth:`access`: each access issues at the current cycle cursor,
        then the cursor moves by ``advance`` plus the observed latency —
        the blocking TimingSimpleCPU rule (``advance=1`` matches the CPU
        model's one cycle per retired op; ``advance=0`` charges latency
        only, which is what the throughput benchmarks drive).

        Alternatively ``nows`` pins every access to an explicit issue
        time (one non-decreasing entry per address); the returned cursor
        is then the last issue time.  ``kinds`` is either a single
        :class:`AccessKind` applied to the whole run or one per address.
        ``advance``, ``kinds`` and ``nows`` are checked before the first
        access, so a batch they make invalid changes no cache state or
        counter.

        Both engines run this one loop over their own ports, bound once
        per batch after those checks (an empty batch binds nothing); the
        differential fuzz checks the fast engine's against the object
        engine's.
        """
        results: List[AccessResult] = []
        prof = self.kernel_profiler
        if prof is None:
            return self._access_batch_scalar(
                ctx, addrs, kinds, now, advance, nows, results
            )
        t0 = perf_counter_ns()
        try:
            return self._access_batch_scalar(
                ctx, addrs, kinds, now, advance, nows, results
            )
        finally:
            # Every batched access is scalar work: 100% fallback.  Only
            # the accesses that ran count, so a rejected batch adds none.
            prof.fallback_ns += perf_counter_ns() - t0
            prof.scalar_accesses += len(results)

    def _access_batch_scalar(
        self,
        ctx: int,
        addrs: Sequence[int],
        kinds: KindsArg,
        now: int,
        advance: int,
        nows: Optional[Sequence[int]],
        results: List[AccessResult],
    ) -> BatchResult:
        """The batch loop; appends each access's result to ``results`` as
        it runs.  It walks (address, port) pairs: a single kind repeats
        its one port, a kind per address resolves each through
        :meth:`AccessPorts.of`."""
        n = len(addrs)
        if not isinstance(kinds, AccessKind):
            kinds = list(kinds)
            if len(kinds) != n:
                raise SimulationError(
                    f"kinds has {len(kinds)} entries for {n} addresses"
                )
        if advance < 0:
            raise SimulationError(f"advance cannot be negative: {advance}")
        times = None
        if nows is not None:
            if len(nows) != n:
                raise SimulationError(
                    f"nows has {len(nows)} entries for {n} addresses"
                )
            times = [int(when) for when in nows]
            for prev, when in zip(times, times[1:]):
                if when < prev:
                    raise SimulationError(
                        f"nows must be non-decreasing ({when} after {prev})"
                    )
        if not n:
            return BatchResult(results, now)
        ports = self.ports(ctx)
        port_of: Iterator[Port] = (
            repeat(ports.of(kinds))
            if isinstance(kinds, AccessKind)
            else map(ports.of, kinds)
        )
        append = results.append
        if times is not None:
            for addr, port, when in zip(addrs, port_of, times):
                append(port(int(addr), when))
            return BatchResult(results, times[-1])
        cursor = now
        for addr, port in zip(addrs, port_of):
            result = port(int(addr), cursor)
            append(result)
            cursor += advance + result.latency
        return BatchResult(results, cursor)

    def _access_l1(
        self, l1: CacheBase, line: int, ctx: int, is_write: bool, now: int
    ) -> AccessResult:
        l1.c_accesses.add()
        pos = l1.lookup(line)
        if pos is not None:
            set_idx, way = pos
            first = self.timecache_enabled and not l1.sbit_is_set(set_idx, way, ctx)
            if first:
                # First access: tag hit, s-bit clear.  Probe downward for
                # latency; data stays where it is; set the s-bit so later
                # accesses are plain hits.
                l1.c_first_access_misses.add()
                below, level = self._probe_llc(line, ctx, now)
                l1.set_sbit(set_idx, way, ctx)
                latency = l1.hit_latency + below
            else:
                l1.c_hits.add()
                latency, level = l1.hit_latency, "L1"
            l1.touch(set_idx, way, now)
            if is_write:
                latency += self._store_upgrade(l1, line, set_idx, way, now)
            return AccessResult(latency, level, first)

        l1.c_misses.add()
        below, level, llc_first = self._access_llc(l1, line, ctx, is_write, now)
        self._fill_private(l1, line, ctx, is_write, now)
        return AccessResult(l1.hit_latency + below, level, llc_first)

    def _access_llc(
        self, l1: CacheBase, line: int, ctx: int, is_write: bool, now: int
    ) -> Tuple[int, str, bool]:
        """L1-miss path: get the line from LLC (or DRAM through it).

        Returns (latency below L1, service level, first_access_at_llc).
        """
        llc = self.llc
        llc.c_accesses.add()
        sctx = self._llc_sbit_ctx(ctx)
        pos = llc.lookup(line)
        if pos is not None:
            set_idx, way = pos
            extra, level = self._coherence_on_access(l1, line, is_write, now)
            first = self._llc_first_access_guard and not llc.sbit_is_set(
                set_idx, way, sctx
            )
            if first:
                llc.c_first_access_misses.add()
                dram_latency = self.dram.access(line)  # data discarded
                # Any cache-to-cache transfer overlaps the DRAM probe: the
                # response is released only when DRAM answers, so a remote
                # owner is indistinguishable from plain memory (the
                # Section VII-B coherence-attack mitigation).
                latency = llc.hit_latency + max(dram_latency, extra)
                level = "DRAM"
                llc.set_sbit(set_idx, way, sctx)
            else:
                llc.c_hits.add()
                latency = llc.hit_latency + extra
                if level == "":
                    level = "LLC"
            llc.touch(set_idx, way, now)
            if is_write:
                self.directory.set_owner(line, l1.name)
            else:
                self.directory.add_sharer(line, l1.name)
            return latency, level, first

        below, level = self._llc_miss(l1, line, ctx, sctx, is_write, now)
        return below, level, False

    def _llc_miss(
        self,
        l1: CacheBase,
        line: int,
        ctx: int,
        sctx: int,
        is_write: bool,
        now: int,
    ) -> Tuple[int, str]:
        """L1 and LLC both miss: fetch from DRAM and fill the LLC for
        ``sctx`` (the context its s-bits track), back-invalidating the
        LLC victim.  Returns (latency below L1, service level)."""
        llc = self.llc
        llc.c_misses.value += 1
        dram_latency = self.dram.access(line)
        victim = llc.fill(
            line,
            sctx,
            now & self._tc_mask,
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
        """First-access probe below an L1 that holds the line.

        An inclusive LLC must also hold the line.  If the context's LLC
        s-bit is set the probe is serviced at LLC latency; otherwise the
        probe continues to DRAM (and the LLC s-bit is set, recording the
        context's first access at that level too).  No data moves.

        With ``dram_latency_on_first_access`` (Section VII-B hardening)
        the probe always pays DRAM latency.
        """
        llc = self.llc
        pos = llc.lookup(line)
        if pos is None:
            raise SimulationError(
                f"inclusion violated: line {line:#x} in an L1 but not in LLC"
            )
        set_idx, way = pos
        llc.c_accesses.add()
        llc.touch(set_idx, way, now)
        sctx = self._llc_sbit_ctx(ctx)
        sbit = llc.sbit_is_set(set_idx, way, sctx)
        if sbit and not self.tc_config.dram_latency_on_first_access:
            llc.c_hits.add()
            return llc.hit_latency, "LLC"
        if not sbit:
            llc.c_first_access_misses.add()
            llc.set_sbit(set_idx, way, sctx)
        return llc.hit_latency + self.dram.access(line), "DRAM"

    # ------------------------------------------------------------------
    # Fills, evictions, coherence
    # ------------------------------------------------------------------
    def _fill_private(
        self, l1: CacheBase, line: int, ctx: int, is_write: bool, now: int
    ) -> None:
        victim = l1.fill(line, ctx, self._truncate(now), dirty=is_write)
        if is_write:
            self._invalidate_other_private(l1, line)
            self.directory.set_owner(line, l1.name)
        if victim is not None:
            self._handle_private_eviction(l1, victim)

    def _store_upgrade(
        self, l1: CacheBase, line: int, set_idx: int, way: int, now: int
    ) -> int:
        """A store hit: dirty the line, invalidate other private copies."""
        l1.mark_dirty(set_idx, way)
        self._invalidate_other_private(l1, line)
        self.directory.set_owner(line, l1.name)
        return 0

    def _invalidate_other_private(self, requester: CacheBase, line: int) -> None:
        for cache in self.private_caches():
            if cache is not requester:
                self._invalidate_private(cache, line)

    def _invalidate_private(self, cache: CacheBase, line: int) -> None:
        """Invalidate ``line`` in one private cache: a dirty copy is
        written back to the LLC, and the cache leaves the line's
        sharers."""
        evicted = cache.invalidate(line)
        if evicted is not None:
            if evicted.dirty:
                self._writeback_to_llc(line)
            self.directory.remove_sharer(line, cache.name)

    def _coherence_on_access(
        self, requester_l1: CacheBase, line: int, is_write: bool, now: int
    ) -> Tuple[int, str]:
        """Handle a remote modified copy on an LLC hit.

        Returns (extra latency, level label or "").  A load pulls the dirty
        line out of the owner's L1 (cache-to-cache transfer, leaving the
        owner a clean copy); a write invalidates every other private copy.
        """
        extra = 0
        level = ""
        owner = self.directory.owner(line)
        if owner and owner != requester_l1.name:
            extra, level = self._remote_owner_transfer(line, owner)
        if is_write:
            self._invalidate_other_private(requester_l1, line)
        return extra, level

    def _remote_owner_transfer(self, line: int, owner: str) -> Tuple[int, str]:
        """Another private cache owns ``line``: pull it out if dirty (a
        cache-to-cache transfer, leaving the owner a clean copy) and
        clear the ownership.  Returns (extra latency, level or "")."""
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

    def _private_by_name(self, name: str) -> CacheBase:
        try:
            return self._private_name_map[name]
        except KeyError:
            raise SimulationError(f"unknown private cache {name!r}") from None

    def _writeback_to_llc(self, line: int) -> None:
        pos = self.llc.lookup(line)
        if pos is None:
            raise SimulationError(
                f"writeback of line {line:#x} but LLC does not hold it"
            )
        set_idx, way = pos
        self.llc.mark_dirty(set_idx, way)

    def _handle_private_eviction(self, l1: CacheBase, victim: CacheLine) -> None:
        line = victim.tag
        if victim.dirty:
            self._writeback_to_llc(line)
            l1.c_writebacks.add()
        self.directory.remove_sharer(line, l1.name)

    def _handle_llc_eviction(self, victim: CacheLine) -> int:
        """Back-invalidate an evicted LLC line from every private cache
        that holds it.

        Returns the extra latency charged to the access that caused the
        eviction (dirty writeback cost only; back-invalidations are
        metadata operations off the critical path).
        """
        line = victim.tag
        dirty = self._invalidate_holders(line) or victim.dirty
        self.llc.c_back_invalidations.add()
        if dirty:
            self.dram.writeback(line)
            self.llc.c_writebacks.add()
            return self.latency.writeback
        return 0

    # ------------------------------------------------------------------
    # clflush
    # ------------------------------------------------------------------
    def flush(self, ctx: int, addr: int, now: int) -> AccessResult:
        """clflush: remove the line from every cache level.

        Latency is data-dependent (cached lines take longer) unless
        ``constant_time_flush`` is set — the Section VII-C mitigation,
        which makes flush+flush attacks blind.
        """
        self.clock.advance_to(now)
        was_cached = self._flush_line_everywhere(self.line_addr(addr))
        self.stats.counter("flushes").add()
        if self.tc_config.constant_time_flush:
            latency = self.latency.flush_cached
        else:
            latency = (
                self.latency.flush_cached if was_cached else self.latency.flush_uncached
            )
        return AccessResult(latency, "flush", False)

    # ------------------------------------------------------------------
    # Introspection used by tests and the analysis harness
    # ------------------------------------------------------------------
    def caches_for_ctx(self, ctx: int) -> List[CacheBase]:
        """Every cache the context's accesses can touch (L1I, L1D, LLC)."""
        core = self.core_of_ctx(ctx)
        return [self.l1i[core], self.l1d[core], self.llc]

    def check_inclusion(self) -> None:
        """Raise if any private line is missing from the LLC, or is not
        listed among the line's directory sharers (test hook): clflush
        and LLC eviction invalidate only the caches the directory lists."""
        for cache in self.private_caches():
            for line in cache.resident_line_addrs():
                if not self.llc.resident(line):
                    raise SimulationError(
                        f"{cache.name} holds {line:#x} but LLC does not"
                    )
                if cache.name not in self.directory.sharers(line):
                    raise SimulationError(
                        f"{cache.name} holds {line:#x} but the directory "
                        "does not list it"
                    )

    def total_first_access_misses(self) -> int:
        return sum(c.stats.get("first_access_misses") for c in self.all_caches())
