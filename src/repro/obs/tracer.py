"""The emission guard and the hook wiring.

A :class:`Tracer` owns a sink and a monotone sequence counter, and
appends one bound method to each observer list the machine iterates:

* every cache's ``event_listeners`` — fills, evictions, invalidations,
  s-bit sets;
* the hierarchy's ``post_access_listeners`` — first-access misses (and,
  with ``trace_all_accesses``, every access result);
* ``TimeCacheSystem.switch_listeners`` — context-switch costs, rollover
  epochs, and the conservative s-bit flash-clear;
* the scheduler's ``event_listeners`` (via :meth:`attach_kernel`) —
  dispatch, requeue, sleep, wake.

Each list fires in attach order, so a robustness checker, a metrics
sampler and a tracer coexist, and :meth:`detach` removes only the
tracer's own entries.

**Cost when disabled.**  ``Tracer(enabled=False)`` attaches *nothing*:
every hot path keeps taking its empty-list branch, so disabled tracing
adds zero code to the measured paths.  ``bench_hierarchy_access_traced``
proves this stays under 5%.

**Cost when enabled.**  Attaching listeners routes the fast engine's
fill/s-bit operations through its event-emitting slow paths (the same
fallbacks the invariant checker uses), so an enabled trace is honest but
slower — never enable tracing inside a timing window you intend to
compare against an untraced baseline.

**No reference cycle.**  The system holds the tracer's bound methods,
so the tracer holds the system and kernel only weakly and keeps no
cache: a finished traced run is freed by reference counting, as an
untraced one is.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.obs.events import TraceEvent
from repro.obs.sinks import Sink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import SwitchCost
    from repro.core.timecache import TimeCacheSystem
    from repro.memsys.cache import CacheBase
    from repro.os.kernel import Kernel


def _detached() -> None:
    """The weak reference of a tracer attached to nothing."""
    return None


class Tracer:
    """Emit :class:`TraceEvent` records into a sink, or nothing when
    disabled.  One tracer serves one attached system at a time."""

    def __init__(self, sink: Optional[Sink] = None, enabled: bool = True) -> None:
        if enabled and sink is None:
            raise ValueError("an enabled tracer needs a sink")
        self.sink = sink
        self.enabled = enabled
        self.trace_all_accesses = False
        self._seq = 0
        self._clock = None
        #: the attached system and kernel, each through a weak reference
        self._system: Callable[[], Optional["TimeCacheSystem"]] = _detached
        self._kernel: Callable[[], Optional["Kernel"]] = _detached

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        src: str = "sim",
        ctx: int = -1,
        args: Optional[dict] = None,
        ts: Optional[int] = None,
    ) -> None:
        """The single guard every instrumented site goes through."""
        if not self.enabled:
            return
        if ts is None:
            ts = self._clock.now if self._clock is not None else 0
        self.sink.emit(
            TraceEvent(
                kind=kind,
                ts=ts,
                src=src,
                ctx=ctx,
                seq=self._seq,
                args=args if args is not None else {},
            )
        )
        self._seq += 1

    @contextmanager
    def span(
        self, name: str, src: str = "attack", ctx: int = -1
    ) -> Iterator[None]:
        """A begin/end pair in simulated time (attack phases, regions).

        The end event is emitted when the block completes — inside a
        program generator that is the simulated instant the last yielded
        op of the phase retired.
        """
        self.emit("phase.begin", src=src, ctx=ctx, args={"name": name})
        try:
            yield
        finally:
            self.emit("phase.end", src=src, ctx=ctx, args={"name": name})

    # ------------------------------------------------------------------
    # Hook wiring
    # ------------------------------------------------------------------
    def attach(self, system: "TimeCacheSystem") -> "Tracer":
        """Install hooks on a system.  No-op when disabled."""
        if not self.enabled or self._system() is not None:
            return self
        self._system = weakref.ref(system)
        self._clock = system.clock
        hierarchy = system.hierarchy
        for cache in hierarchy.all_caches():
            cache.event_listeners.append(self._cache_event)
        hierarchy.post_access_listeners.append(self._post_access)
        system.switch_listeners.append(self.on_context_switch)
        return self

    def detach(self) -> None:
        """Undo :meth:`attach` (and :meth:`attach_kernel`) on the system,
        if it is still alive."""
        system, kernel = self._system(), self._kernel()
        self._system = self._kernel = _detached
        self._clock = None
        if system is None:
            return
        for cache in system.hierarchy.all_caches():
            cache.event_listeners.remove(self._cache_event)
        system.hierarchy.post_access_listeners.remove(self._post_access)
        system.switch_listeners.remove(self.on_context_switch)
        if kernel is not None:
            kernel.scheduler.event_listeners.remove(self._sched_event)

    def attach_kernel(self, kernel: "Kernel") -> "Tracer":
        """Attach to the kernel's system plus its scheduler."""
        if not self.enabled or self._kernel() is not None:
            return self
        self.attach(kernel.system)
        self._kernel = weakref.ref(kernel)
        kernel.scheduler.event_listeners.append(self._sched_event)
        return self

    # ------------------------------------------------------------------
    # Listener bodies (only ever installed when enabled)
    # ------------------------------------------------------------------
    def _cache_event(
        self, cache: "CacheBase", event: str, set_idx: int, way: int, ctx: int
    ) -> None:
        self.emit(
            "cache." + event,
            src=cache.name,
            ctx=ctx,
            args={"set": set_idx, "way": way},
        )

    def _post_access(self, ctx, line, kind, now, result) -> None:
        if result.first_access:
            self.emit(
                "access.first_miss",
                src="hierarchy",
                ctx=ctx,
                ts=now,
                args={
                    "line": line,
                    "level": result.level,
                    "latency": result.latency,
                    "kind": kind.name,
                },
            )
        elif self.trace_all_accesses:
            self.emit(
                "access.result",
                src="hierarchy",
                ctx=ctx,
                ts=now,
                args={
                    "line": line,
                    "level": result.level,
                    "latency": result.latency,
                    "kind": kind.name,
                },
            )

    def on_context_switch(
        self,
        outgoing: Optional[int],
        incoming: int,
        ctx: int,
        now: int,
        cost: "SwitchCost",
    ) -> None:
        """The switch listener: a ``ctx.switch`` record with the switch's
        cost, and the rollover records when the restore flash-cleared."""
        self.emit(
            "ctx.switch",
            src="os",
            ctx=ctx,
            ts=now,
            args={
                "outgoing": -1 if outgoing is None else outgoing,
                "incoming": incoming,
                "dma_cycles": cost.dma_cycles,
                "comparator_cycles": cost.comparator_cycles,
                "rollover": cost.rollover_reset,
            },
        )
        if cost.rollover_reset:
            # The comparator window crossed a timestamp wrap: the restore
            # conservatively flash-cleared the whole column (Section VI-C).
            self.emit(
                "rollover.epoch", src="os", ctx=ctx, ts=now,
                args={"incoming": incoming},
            )
            self.emit(
                "sbit.flash_clear", src="os", ctx=ctx, ts=now,
                args={"reason": "rollover", "incoming": incoming},
            )

    def _sched_event(self, event: str, tid: int, ctx: int, now: int) -> None:
        self.emit(
            "sched." + event,
            src="sched",
            ctx=ctx,
            ts=now if now >= 0 else None,
            args={"task": tid},
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.detach()
        if self.sink is not None:
            self.sink.close()
