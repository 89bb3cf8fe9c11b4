"""Runtime invariant checking for the TimeCache defense.

TimeCache's security argument rests on a small amount of trusted state —
per-context s-bits, per-line fill timestamps ``Tc``, and the ``Tc > Ts``
comparator run at every context switch.  :class:`InvariantChecker`
verifies, while a simulation runs, that the state keeps the paper's
invariants:

**Security invariant (Section IV).**  A context's first access to a line
filled by another context must observe full lower-level latency.  The
checker maintains a *shadow entitlement model*: per cache slot, the set of
tasks that legitimately earned visibility of the current occupant (the
filler, plus every task that later paid a first access to it).  Two rules
follow:

* *subset*: the hardware s-bit state must always be a subset of the
  shadow entitlement — a set s-bit whose resident task never earned
  visibility is a latent leak;
* *no fast hit without visibility*: an access that found a tag hit with
  the s-bit clear must report ``first_access`` and be serviced below the
  hit level.

**Structural invariants.**  An s-bit may only be set on a valid (tag
present) slot; a slot's Tc must be representable in the timestamp domain
and equal to the value stamped at fill time; evictions and invalidations
must leave the slot's s-bits all-clear.

The checker observes the simulator through the narrow hook points the
core layers expose (each cache's event-listener chain, the hierarchy's
access listeners, ``TimeCacheSystem.switch_listeners``), alongside any
other observer such as a tracer — no monkeypatching — and raises
:class:`~repro.common.errors.InvariantViolation` with full diagnostic
context on the first breach.  Against the fault models in
:mod:`repro.robustness.faults`, every injected fault is therefore either
*detected* here or *provably benign* (it can only cost extra first-access
misses, never grant visibility).

Scope: the checker targets the TimeCache configuration proper.  The FTM
and way-partitioning comparison baselines track visibility by core or
domain, not by task, and are rejected at attach time.

Known modeling edge: on a multi-core system a slot refilled by another
task in the *same cycle* as the victim's preemption keeps the victim's
s-bit (the comparator tests ``Tc > Ts`` strictly), which the checker
would flag.  Single-core campaigns cannot hit it; see the fault-campaign
driver.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.common.errors import ConfigError, InvariantViolation
from repro.core.timecache import TimeCacheSystem
from repro.memsys.cache import Cache, EventListener
from repro.memsys.hierarchy import AccessKind, AccessResult

Slot = Tuple[int, int]


class InvariantChecker:
    """Validates TimeCache invariants per access and per context switch."""

    def __init__(
        self,
        system: TimeCacheSystem,
        *,
        check_on_access: bool = True,
        scan_on_switch: bool = True,
    ) -> None:
        if not system.timecache_enabled:
            raise ConfigError(
                "the invariant checker validates the TimeCache protocol; "
                "attach it to a system with timecache.enabled"
            )
        self.system = system
        self.hierarchy = system.hierarchy
        self.domain = system.context_engine.domain
        self.check_on_access = check_on_access
        self.scan_on_switch = scan_on_switch
        #: resident task per hardware context (a pseudo task -(ctx+1)
        #: stands in until the first context switch names one)
        self._resident: Dict[int, int] = {}
        #: per cache: slot -> task ids entitled to the current occupant
        self._rightful: Dict[str, Dict[Slot, Set[int]]] = {}
        #: per cache: slot -> the Tc stamped at fill time
        self._expected_tc: Dict[str, Dict[Slot, int]] = {}
        #: per cache: the event listener this checker added to its chain
        self._listeners: Dict[str, EventListener] = {}
        self._pre: Optional[dict] = None
        self.scans = 0
        self.checked_accesses = 0
        self._attached = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> "InvariantChecker":
        """Register on every hook point and bootstrap the shadow model
        from the current cache state.  Returns self for chaining."""
        if self._attached:
            return self
        for cache in self.hierarchy.all_caches():
            self._rightful[cache.name] = {}
            self._expected_tc[cache.name] = {}
            self._bootstrap(cache)
            listener = self._listeners[cache.name] = self._listener_for(cache)
            cache.add_event_listener(listener)
        if self.check_on_access:
            self.hierarchy.pre_access_listeners.append(self._pre_access)
            self.hierarchy.post_access_listeners.append(self._post_access)
        self.system.switch_listeners.append(self._on_switch)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        for cache in self.hierarchy.all_caches():
            cache.remove_event_listener(self._listeners.pop(cache.name))
        if self.check_on_access:
            self.hierarchy.pre_access_listeners.remove(self._pre_access)
            self.hierarchy.post_access_listeners.remove(self._post_access)
        self.system.switch_listeners.remove(self._on_switch)
        self._attached = False

    def _bootstrap(self, cache: Cache) -> None:
        """Adopt pre-attach state as legitimate: whoever holds a bit now
        is entitled to it (the checker judges transitions, not history)."""
        rightful = self._rightful[cache.name]
        expected = self._expected_tc[cache.name]
        for s in range(cache.num_sets):
            for w in range(cache.ways):
                if not cache.valid[s, w]:
                    continue
                expected[(s, w)] = int(cache.tc[s, w])
                bits = int(cache.sbits[s, w])
                entitled = {
                    self.resident(gctx)
                    for gctx in cache.contexts
                    if bits & cache.ctx_bit(gctx)
                }
                rightful[(s, w)] = entitled

    def resident(self, ctx: int) -> int:
        """The task occupying hardware context ``ctx`` (pseudo task id
        ``-(ctx+1)`` before any context switch named one)."""
        return self._resident.get(ctx, -(ctx + 1))

    # ------------------------------------------------------------------
    # Event mirroring (the shadow entitlement model)
    # ------------------------------------------------------------------
    def _listener_for(self, cache: Cache):
        def on_event(event: str, set_idx: int, way: int, ctx: int) -> None:
            self._on_cache_event(cache, event, set_idx, way, ctx)

        return on_event

    def _on_cache_event(
        self, cache: Cache, event: str, set_idx: int, way: int, ctx: int
    ) -> None:
        key = (set_idx, way)
        rightful = self._rightful[cache.name]
        if event == "fill":
            # The paper's fill rule: the filler alone gains visibility.
            rightful[key] = {self.resident(ctx)}
            self._expected_tc[cache.name][key] = int(cache.tc[set_idx, way])
        elif event == "sbit_set":
            # A paid first access extends entitlement to the accessor.
            rightful.setdefault(key, set()).add(self.resident(ctx))
        elif event in ("evict", "invalidate"):
            rightful.pop(key, None)
            self._expected_tc[cache.name].pop(key, None)
            if int(cache.sbits[set_idx, way]) != 0:
                raise InvariantViolation(
                    "s-bits must be all-clear after the slot is vacated",
                    invariant="sbits-cleared-on-eviction",
                    cache=cache.name,
                    set_idx=set_idx,
                    way=way,
                )

    def _on_switch(
        self, outgoing: Optional[int], incoming: int, ctx: int, now: int
    ) -> None:
        self._resident[ctx] = incoming
        if self.scan_on_switch:
            self.scan_all(now=now)

    # ------------------------------------------------------------------
    # Per-access checking
    # ------------------------------------------------------------------
    def _pre_access(self, ctx: int, line: int, kind: AccessKind, now: int) -> None:
        core = self.hierarchy.core_of_ctx(ctx)
        l1 = (
            self.hierarchy.l1i[core]
            if kind is AccessKind.IFETCH
            else self.hierarchy.l1d[core]
        )
        task = self.resident(ctx)
        self._pre = {
            "ctx": ctx,
            "line": line,
            "task": task,
            "l1": self._slot_view(l1, line, ctx, task),
            "llc": self._slot_view(self.hierarchy.llc, line, ctx, task),
        }

    def _slot_view(
        self, cache: Cache, line: int, ctx: int, task: int
    ) -> Optional[dict]:
        pos = cache.lookup(line)
        if pos is None:
            return None
        set_idx, way = pos
        return {
            "cache": cache.name,
            "set": set_idx,
            "way": way,
            "sbit": cache.sbit_is_set(set_idx, way, ctx),
            "entitled": task
            in self._rightful[cache.name].get((set_idx, way), set()),
        }

    def _post_access(
        self, ctx: int, line: int, kind: AccessKind, now: int, result: AccessResult
    ) -> None:
        pre = self._pre
        self._pre = None
        if pre is None or pre["ctx"] != ctx or pre["line"] != line:
            return  # nested/reentrant access; only the outermost is checked
        self.checked_accesses += 1
        task = pre["task"]
        view = pre["l1"] if pre["l1"] is not None else pre["llc"]
        if view is None:
            return  # plain miss everywhere: DRAM fill, nothing to validate
        if view["sbit"] and not view["entitled"]:
            raise InvariantViolation(
                f"task was serviced through an s-bit it never earned "
                f"(line {line:#x}, served at {result.level} in "
                f"{result.latency} cycles)",
                invariant="stale-visibility-exploited",
                cache=view["cache"],
                set_idx=view["set"],
                way=view["way"],
                ctx=ctx,
                task=task,
            )
        if not view["sbit"]:
            hit_level = "L1" if pre["l1"] is not None else "LLC"
            if not result.first_access or result.level == hit_level:
                raise InvariantViolation(
                    f"tag hit with a clear s-bit must pay a first access "
                    f"below {hit_level}, got level={result.level} "
                    f"first_access={result.first_access} (line {line:#x})",
                    invariant="first-access-discipline",
                    cache=view["cache"],
                    set_idx=view["set"],
                    way=view["way"],
                    ctx=ctx,
                    task=task,
                )

    # ------------------------------------------------------------------
    # Whole-array scans
    # ------------------------------------------------------------------
    def scan(self, cache: Cache, now: Optional[int] = None) -> None:
        """Validate every slot of one cache against the shadow model."""
        self.scans += 1
        rightful = self._rightful[cache.name]
        expected = self._expected_tc[cache.name]
        for s in range(cache.num_sets):
            for w in range(cache.ways):
                bits = int(cache.sbits[s, w])
                valid = bool(cache.valid[s, w])
                tc = int(cache.tc[s, w])
                if bits and not valid:
                    raise InvariantViolation(
                        f"s-bit mask {bits:#x} set on an invalid slot",
                        invariant="sbit-implies-valid-line",
                        cache=cache.name,
                        set_idx=s,
                        way=w,
                    )
                if valid:
                    if not self.domain.contains(tc):
                        raise InvariantViolation(
                            f"Tc {tc} outside the {self.domain.bits}-bit "
                            f"timestamp domain",
                            invariant="tc-in-domain",
                            cache=cache.name,
                            set_idx=s,
                            way=w,
                        )
                    stamped = expected.get((s, w))
                    if stamped is not None and stamped != tc:
                        raise InvariantViolation(
                            f"Tc {tc} differs from the value {stamped} "
                            f"stamped at fill time",
                            invariant="tc-matches-fill-time",
                            cache=cache.name,
                            set_idx=s,
                            way=w,
                        )
                if not bits:
                    continue
                entitled = rightful.get((s, w), set())
                for gctx in cache.contexts:
                    if not bits & cache.ctx_bit(gctx):
                        continue
                    task = self.resident(gctx)
                    if task not in entitled:
                        raise InvariantViolation(
                            f"task holds visibility of a line it never "
                            f"accessed (entitled: {sorted(entitled)}, "
                            f"now={now})",
                            invariant="sbit-subset-of-entitlement",
                            cache=cache.name,
                            set_idx=s,
                            way=w,
                            ctx=gctx,
                            task=task,
                        )

    def scan_all(self, now: Optional[int] = None) -> None:
        """Validate every cache (called automatically per switch)."""
        for cache in self.hierarchy.all_caches():
            self.scan(cache, now=now)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {"scans": self.scans, "checked_accesses": self.checked_accesses}
