"""The shipped defense zoo: TimeCache, the undefended control, FASE-style
selective flushing, CACHEBAR-style copy-on-access, and the paper's two
Section VIII comparison arms, FTM and CAT partitioning with flush.

Cost models (docs/internals.md §17):

* **timecache** — per-line s-bits + truncated Tc timestamps; cost is the
  first-access latency discipline plus the s-bit DMA/comparator cycles
  at every switch.  All of that machinery predates the protocol and is
  keyed off ``config.timecache``; this plugin is a pure config transform
  so the defended system stays bit-identical to the pre-protocol one.
* **baseline** — the control arm: the unmodified cache.  ``is_control``
  puts its tournament cells under the gate's sanity direction.
* **selective_flush** — FASE: at each reschedule, flush only the lines
  the switching-out context actually touched since it was switched in.
  Cost is ``flush_cached`` cycles per flushed line, charged through the
  scheduler like the s-bit DMA.
* **copy_on_access** — CACHEBAR: every security domain gets its own copy
  of any shared line, so reuse channels (flush+reload, flush+flush,
  evict+reload) lose their shared-line signal.  Modeled as a tenant tag
  folded into the address *above* the set-index bits at the system
  facade: copies of one line still collide in the same set (conflict
  channels like prime+probe honestly survive, as they do for the real
  defense), while tags differ so no tenant can hit on, or flush,
  another's copy.  The cost is emergent — extra cold misses and cache
  pressure from the duplicated footprint — so no explicit switch cost
  is charged; the remap is pure arithmetic before the hierarchy is
  entered.
* **ftm** — FTM (First Time Miss, Ramkrishnan et al.): per-*core*
  presence bits at the LLC only, with no save/restore across context
  switches.  It blocks cross-core reuse but not same-core time-slicing
  or SMT siblings (Section VIII-B2).  No switch cost; the cost is the
  cross-core first-access misses.
* **partition_flush** — CAT-style way partitioning with an
  Apparition-style flush (Section VIII-B1, Catalyst/Apparition, DAWG):
  each task's security domain may fill only its half of the LLC ways,
  and a switch between domains flushes the outgoing domain's ways and
  the core's private caches.  The cost is the halved effective LLC plus
  one cycle per flushed line, charged through the scheduler.  Ways mask
  fills, not lookups, so a line one domain filled still hits for the
  other where no flush intervened (another core, an SMT sibling).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.common.config import SimConfig
from repro.core.context import SwitchCost
from repro.defenses.base import Defense

#: security domains ``partition_flush`` splits the LLC ways across
PARTITION_DOMAINS = 2

#: bit position of the copy-on-access tenant tag: far above any address
#: the workloads or attacks generate, so remapped addresses never
#: collide across tenants yet keep their set-index and line-offset bits
TENANT_SHIFT = 44


class TimeCacheDefense(Defense):
    """The paper's defense, as one registered plugin (pure transform)."""

    name = "timecache"
    summary = "per-context s-bits + Tc timestamps (the paper's defense)"

    def configure(self, config: SimConfig) -> SimConfig:
        return super().configure(config.with_timecache(enabled=True))


class BaselineControl(Defense):
    """The undefended machine — the tournament's control arm."""

    name = "baseline"
    summary = "unmodified cache (control arm; attacks must leak here)"
    is_control = True

    def configure(self, config: SimConfig) -> SimConfig:
        return super().configure(config.baseline())


class SelectiveFlushDefense(Defense):
    """FASE-style selective flushing at reschedule.

    Per-system state: one set of touched line addresses per hardware
    context, filled by a hierarchy post-access listener and drained
    (flushed) when that context switches tasks.  Flushing goes through
    :meth:`MemoryHierarchy._flush_line_everywhere`, the same path
    clflush and ``partition_flush`` use, so dirty writebacks and
    directory bookkeeping are handled identically on both engines.
    """

    name = "selective_flush"
    summary = "FASE: flush the switching context's touched lines"

    def configure(self, config: SimConfig) -> SimConfig:
        return super().configure(config.baseline())

    def attach(self, system: "Any") -> Dict[int, Set[int]]:
        touched: Dict[int, Set[int]] = {}

        def record(ctx: int, line: int, kind, now, result) -> None:
            bucket = touched.get(ctx)
            if bucket is None:
                bucket = touched[ctx] = set()
            bucket.add(line)

        system.hierarchy.post_access_listeners.append(record)
        return touched

    def on_context_switch(
        self,
        system: "Any",
        outgoing_task: Optional[int],
        incoming_task: int,
        ctx: int,
        now: int,
    ) -> Optional[SwitchCost]:
        touched = system.defense_state
        lines = touched.pop(ctx, None)
        if not lines:
            return None
        hierarchy = system.hierarchy
        llc = hierarchy.llc
        flushed = 0
        # Sorted order keeps the flush sequence (and hence dirty
        # writebacks and event streams) deterministic across engines.
        for line in sorted(lines):
            if llc.resident(line):  # inclusive: LLC residency covers L1s
                hierarchy._flush_line_everywhere(line)
                flushed += 1
        if not flushed:
            return None
        hierarchy.stats.counter("selective_flushes").add(flushed)
        per_line = hierarchy.latency.flush_cached
        return SwitchCost(
            dma_cycles=flushed * per_line,
            comparator_cycles=0,
            rollover_reset=False,
        )


class CopyOnAccessDefense(Defense):
    """CACHEBAR-style per-tenant line copies via facade address remap.

    Per-system state: the tenant (task id) currently resident on each
    hardware context, updated at every context switch.  Before any
    switch has named a task, the hardware context id itself is the
    tenant — the same convention the differential fuzz uses for task
    identity, so directly-driven systems stay deterministic.
    """

    name = "copy_on_access"
    summary = "CACHEBAR: per-tenant line copies break shared-line reuse"

    def configure(self, config: SimConfig) -> SimConfig:
        return super().configure(config.baseline())

    def attach(self, system: "Any") -> Dict[int, int]:
        tenants: Dict[int, int] = {}

        def offset(ctx: int) -> int:
            # +1 keeps tenant 0's copies disjoint from raw addresses
            return (tenants.get(ctx, ctx) + 1) << TENANT_SHIFT

        system._addr_offset = offset
        return tenants

    def on_context_switch(
        self,
        system: "Any",
        outgoing_task: Optional[int],
        incoming_task: int,
        ctx: int,
        now: int,
    ) -> Optional[SwitchCost]:
        system.defense_state[ctx] = incoming_task
        return None


class FtmDefense(Defense):
    """FTM: first accesses detected by per-core LLC presence bits.

    Attaching keys the LLC's s-bits by core and turns its first-access
    guard on (:meth:`~repro.memsys.hierarchy.MemoryHierarchy.enable_ftm`);
    the private caches and context switches are left as the baseline
    has them.
    """

    name = "ftm"
    summary = "FTM: per-core LLC presence bits, no switch handling"

    def configure(self, config: SimConfig) -> SimConfig:
        return super().configure(config.baseline())

    def attach(self, system: "Any") -> None:
        system.hierarchy.enable_ftm()


class PartitionFlushDefense(Defense):
    """CAT way partitioning + flush of the outgoing domain at a switch.

    Per-system state: the security domain of each task id, assigned
    round-robin on first sight (like CLOS assignment per process).
    """

    name = "partition_flush"
    summary = "CAT: per-domain LLC ways, flushed when the domain switches"

    def configure(self, config: SimConfig) -> SimConfig:
        return super().configure(config.baseline())

    def attach(self, system: "Any") -> Dict[int, int]:
        system.hierarchy.enable_partitioning(PARTITION_DOMAINS)
        return {}

    def on_context_switch(
        self,
        system: "Any",
        outgoing_task: Optional[int],
        incoming_task: int,
        ctx: int,
        now: int,
    ) -> Optional[SwitchCost]:
        domains = system.defense_state

        def domain_for(task: int) -> int:
            if task not in domains:
                domains[task] = len(domains) % PARTITION_DOMAINS
            return domains[task]

        hierarchy = system.hierarchy
        flushed = 0
        if outgoing_task is not None:
            out_domain = domain_for(outgoing_task)
            if out_domain != domain_for(incoming_task):
                flushed += hierarchy.flush_domain_ways(out_domain)
                flushed += hierarchy.flush_private_caches(
                    hierarchy.core_of_ctx(ctx)
                )
        hierarchy.set_domain(ctx, domain_for(incoming_task))
        # ~1 cycle per flushed line of tag-walk cost, as a flat estimate.
        return SwitchCost(
            dma_cycles=flushed, comparator_cycles=0, rollover_reset=False
        )
