"""The public facade: :class:`TimeCacheSystem`.

Bundles the substrate (clock, hierarchy) with the contribution (context
engine) behind one object that the CPU layer, the OS layer, examples and
tests all drive.  Construct one from a :class:`~repro.common.config.SimConfig`
— with ``timecache.enabled`` True for the defended system or False for the
baseline — and issue accesses, flushes, and context switches.

Quickstart::

    from repro.common import scaled_experiment_config
    from repro.core import TimeCacheSystem
    from repro.memsys import AccessKind

    system = TimeCacheSystem(scaled_experiment_config())
    r = system.access(ctx=0, addr=0x1000, kind=AccessKind.LOAD, now=0)
    assert r.level == "DRAM"          # cold miss
    r = system.access(ctx=0, addr=0x1000, kind=AccessKind.LOAD, now=300)
    assert r.level == "L1"            # warm hit
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.clock import GlobalClock
from repro.common.config import SimConfig
from repro.core.context import ContextSwitchEngine, SwitchCost
from repro.core.sbits import TaskCachingState
from repro.memsys.hierarchy import (
    AccessKind,
    AccessPorts,
    AccessResult,
    BatchResult,
    MemoryHierarchy,
    Port,
)
from repro.obs.spans import current_session


def _remapped(port: Port, offset: Callable[[int], int], ctx: int) -> Port:
    """``port`` behind an address remap: each access adds ``ctx``'s
    offset, read per access (the tenant on a context changes at
    switches)."""

    def remapped(addr: int, now: int) -> AccessResult:
        return port(addr + offset(ctx), now)

    return remapped


class TimeCacheSystem:
    """A complete simulated machine: hierarchy + TimeCache + clock."""

    def __init__(self, config: SimConfig) -> None:
        config.validate()
        self.config = config
        self.clock = GlobalClock()
        if config.hierarchy.engine == "fast":
            from repro.memsys.fastengine import FastHierarchy

            hierarchy_cls = FastHierarchy
        else:
            hierarchy_cls = MemoryHierarchy
        self.hierarchy = hierarchy_cls(
            config.hierarchy, timecache=config.timecache, clock=self.clock
        )
        self.context_engine = ContextSwitchEngine(self.hierarchy, config.timecache)
        #: attached defense plugin (:mod:`repro.defenses`) and its
        #: per-system state.  ``config.defense == ""`` (every legacy
        #: construction site) leaves both None and every hot path on its
        #: pre-zoo branch; the "timecache"/"baseline" plugins are pure
        #: config transforms, so attaching them changes nothing either.
        self.defense = None
        self.defense_state = None
        #: address remap installed by a defense (copy-on-access): maps a
        #: hardware context to a constant offset folded into every
        #: address at this facade, before the hierarchy is entered.
        self._addr_offset: Optional[Callable[[int], int]] = None
        if config.defense:
            from repro.defenses import get_defense

            self.defense = get_defense(config.defense)
            self.defense_state = self.defense.attach(self)
        self._task_state: Dict[int, TaskCachingState] = {}
        #: observation hooks (repro.robustness): called after every
        #: completed context switch as ``(outgoing, incoming, ctx, now)``.
        #: The invariant checker scans here; the fault injector uses the
        #: same point as its deterministic trigger.
        self.switch_listeners: List[
            Callable[[Optional[int], int, int, int], None]
        ] = []
        #: observability hook (repro.obs): a Tracer attached via
        #: ``Tracer.attach`` sets itself here.  Unlike switch_listeners it
        #: receives the computed :class:`SwitchCost`, so the event stream
        #: carries DMA/comparator cycles and the rollover flash-clear.
        self.obs_tracer = None
        # Profiling sessions install process-globally (sweep jobs build
        # their systems many layers below the code that turned profiling
        # on); construction is the one moment both sides are in scope.
        # Without a session this is one None check — ``access_batch``
        # keeps its ``kernel_profiler is None`` branch untouched.
        _session = current_session()
        if _session is not None:
            _session.attach_system(self)

    # ------------------------------------------------------------------
    # Memory operations (thin passthroughs with the shared clock)
    # ------------------------------------------------------------------
    def access(
        self, ctx: int, addr: int, kind: AccessKind, now: Optional[int] = None
    ) -> AccessResult:
        """One blocking memory access; ``now`` defaults to the global clock."""
        when = self.clock.now if now is None else now
        if self._addr_offset is not None:
            addr += self._addr_offset(ctx)
        return self.hierarchy.access(ctx, addr, kind, when)

    def access_ports(self, ctx: int) -> AccessPorts:
        """Context ``ctx``'s load, store and ifetch ports: each
        ``port(addr, now)`` is :meth:`access` for that kind with an
        explicit ``now``.  Fetch them once per context, not per access.

        They are the engine's own ports
        (:meth:`~repro.memsys.hierarchy.MemoryHierarchy.ports`) while this
        facade adds nothing to an access.  Under an address remap
        (``copy_on_access``'s ``_addr_offset``, installed when the
        defense attaches, during construction) each port adds the
        context's offset of the moment and calls the engine's port.
        """
        ports = self.hierarchy.ports(ctx)
        offset = self._addr_offset
        if offset is None:
            return ports
        return AccessPorts(*(_remapped(port, offset, ctx) for port in ports))

    def access_batch(
        self,
        ctx: int,
        addrs,
        kind: AccessKind = AccessKind.LOAD,
        now: Optional[int] = None,
    ) -> BatchResult:
        """A run of same-context accesses of one kind in one call.

        Semantically identical to calling :meth:`access` in a loop under
        the blocking-CPU time rule (see
        :meth:`~repro.memsys.hierarchy.MemoryHierarchy.access_batch`).
        ``now`` defaults to the global clock.  Context switches and
        flushes are batch boundaries — issue them between calls.
        """
        when = self.clock.now if now is None else now
        if self._addr_offset is not None:
            offset = self._addr_offset(ctx)
            if offset:
                # One context per batch, so the remap is a constant
                # shift.  It converts nothing: the engine's loop checks
                # each address with ``operator.index`` at its access, so
                # a non-integer one raises there, as through ``access``.
                addrs = [addr + offset for addr in addrs]
        return self.hierarchy.access_batch(ctx, addrs, kind, when)

    def load(self, ctx: int, addr: int, now: Optional[int] = None) -> AccessResult:
        return self.access(ctx, addr, AccessKind.LOAD, now)

    def store(self, ctx: int, addr: int, now: Optional[int] = None) -> AccessResult:
        return self.access(ctx, addr, AccessKind.STORE, now)

    def ifetch(self, ctx: int, addr: int, now: Optional[int] = None) -> AccessResult:
        return self.access(ctx, addr, AccessKind.IFETCH, now)

    def flush(self, ctx: int, addr: int, now: Optional[int] = None) -> AccessResult:
        """clflush the line holding ``addr`` from every level.

        Under an address-remapping defense the flush targets the issuing
        tenant's own copy — no tenant can flush another's.
        """
        when = self.clock.now if now is None else now
        if self._addr_offset is not None:
            addr += self._addr_offset(ctx)
        return self.hierarchy.flush(ctx, addr, when)

    # ------------------------------------------------------------------
    # Task caching-context management (what the OS calls at CR3 changes)
    # ------------------------------------------------------------------
    def task_state(self, task_id: int) -> TaskCachingState:
        if task_id not in self._task_state:
            self._task_state[task_id] = TaskCachingState(task_id)
        return self._task_state[task_id]

    def context_switch(
        self,
        outgoing_task: Optional[int],
        incoming_task: int,
        ctx: int,
        now: Optional[int] = None,
    ) -> SwitchCost:
        """Switch hardware context ``ctx`` between two tasks.

        Saves the outgoing task's s-bits (if any task was running),
        restores the incoming task's, runs the timestamp comparator, and
        returns the bookkeeping cost the scheduler should charge.
        """
        when = self.clock.now if now is None else now
        self.clock.advance_to(when)
        if outgoing_task is not None:
            self.context_engine.save(self.task_state(outgoing_task), ctx, when)
        cost = self.context_engine.restore(
            self.task_state(incoming_task), ctx, when
        )
        if self.defense is not None:
            extra = self.defense.on_context_switch(
                self, outgoing_task, incoming_task, ctx, when
            )
            if extra is not None:
                from repro.defenses import merge_switch_costs

                cost = merge_switch_costs(cost, extra)
        for listener in self.switch_listeners:
            listener(outgoing_task, incoming_task, ctx, when)
        if self.obs_tracer is not None:
            self.obs_tracer.on_context_switch(
                outgoing_task, incoming_task, ctx, when, cost
            )
        return cost

    # ------------------------------------------------------------------
    @property
    def timecache_enabled(self) -> bool:
        return self.config.timecache.enabled

    def stats_snapshot(self) -> Dict[str, int]:
        """All counters from every cache plus the context engine."""
        merged: Dict[str, int] = {}
        for cache in self.hierarchy.all_caches():
            merged.update(cache.stats.snapshot())
        merged.update(self.hierarchy.stats.snapshot())
        merged.update(self.hierarchy.dram.stats.snapshot())
        merged.update(self.context_engine.stats.snapshot())
        return merged
