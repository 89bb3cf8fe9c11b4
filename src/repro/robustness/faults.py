"""Deterministic fault injection targeting TimeCache's trusted state.

The defense trusts four pieces of state/machinery: the per-context s-bit
arrays, the bit-serial comparator's clears, the per-line truncated fill
timestamps ``Tc``, and the per-task save/restore of s-bit snapshots at
context switches.  Each :class:`FaultModel` corrupts exactly one of them,
through the narrow seams the core layers expose for the purpose
(``Cache`` metadata arrays, ``BitSerialComparator.reset_mask_filter``,
``ContextSwitchEngine.save_filter``/``restore_filter``) — never by
monkeypatching.

Injection is deterministic: a :class:`FaultInjector` is driven by a
forked :class:`~repro.common.rng.DeterministicRng` and triggers at a
chosen context-switch ordinal, so a campaign seed fully reproduces every
fault (model, sub-mode, target slot, trigger time).

Every model documents its expected observability.  Faults that can only
*remove* visibility (a dropped save, a cleared s-bit, a forced rollover
reset) are *benign by construction* — TimeCache degrades to extra
first-access misses, never to a leak — while faults that *grant* stale
visibility (a spuriously set s-bit, a dropped comparator clear, a forged
preemption time, corrupted Tc) must be caught by the
:class:`~repro.robustness.invariants.InvariantChecker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.common.errors import FaultInjectionError
from repro.common.rng import DeterministicRng
from repro.core.context import SwitchCost
from repro.core.timecache import TimeCacheSystem
from repro.memsys.cache import Cache


@dataclass
class FaultEvent:
    """One injected fault, fully described for the campaign report."""

    model: str
    mode: str
    switch_no: int
    description: str
    cache: str = ""
    set_idx: int = -1
    way: int = -1
    ctx: int = -1
    #: whether this fault can grant stale visibility (and therefore must
    #: be detected) or can only cost performance (benign by construction)
    can_leak: bool = True


class FaultModel:
    """Base class: one way of corrupting TimeCache's trusted state."""

    name = "abstract"

    def inject(self, injector: "FaultInjector") -> FaultEvent:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------
    @staticmethod
    def _pick_cache(injector: "FaultInjector") -> Cache:
        return injector.rng.choice(injector.system.hierarchy.all_caches())

    @staticmethod
    def _pick_valid_slot(
        injector: "FaultInjector",
    ) -> Optional[tuple]:
        """A random occupied (cache, set, way), or None if all caches are
        empty (possible only before any warmup access)."""
        caches = list(injector.system.hierarchy.all_caches())
        injector.rng.shuffle(caches)
        for cache in caches:
            occupied = np.argwhere(cache.valid)
            if len(occupied):
                s, w = occupied[injector.rng.randint(0, len(occupied) - 1)]
                return cache, int(s), int(w)
        return None


class SBitCorruption(FaultModel):
    """Bit flips / stuck-at-1 in the s-bit SRAM (``core/sbits`` state).

    * ``flip``: XOR one context's s-bit on a random slot.  Setting a bit
      the resident task never earned is a leak the checker must flag
      (subset invariant, or the structural bits-on-invalid-slot scan);
      clearing a set bit is benign (an extra first access).
    * ``stuck_at_1``: force the bit set regardless of its current value —
      the classic stuck-at fault on the storage cell.
    """

    name = "sbit-corruption"

    def inject(self, injector: "FaultInjector") -> FaultEvent:
        cache = self._pick_cache(injector)
        s = injector.rng.randint(0, cache.num_sets - 1)
        w = injector.rng.randint(0, cache.ways - 1)
        ctx = injector.rng.choice(cache.contexts)
        bit = cache.ctx_bit(ctx)
        mode = injector.rng.choice(["flip", "stuck_at_1"])
        before = int(cache.sbits[s, w])
        if mode == "flip":
            cache.sbits[s, w] = before ^ bit
        else:
            cache.sbits[s, w] = before | bit
        after = int(cache.sbits[s, w])
        return FaultEvent(
            model=self.name,
            mode=mode,
            switch_no=injector.switches,
            description=(
                f"s-bit mask {before:#x} -> {after:#x} for ctx {ctx}"
            ),
            cache=cache.name,
            set_idx=s,
            way=w,
            ctx=ctx,
            # Only a 1->0 flip is guaranteed leak-free.
            can_leak=after & bit != 0,
        )


class DroppedComparatorClear(FaultModel):
    """The comparator silently drops its clears (``core/comparator``).

    Arms ``reset_mask_filter`` to return an all-false mask for the next
    context switch's comparisons (one per cache the context shares — L1I,
    L1D, LLC).  Restored s-bits on slots refilled while their owner was
    preempted then survive, which is precisely the stale visibility the
    ``Tc > Ts`` scan exists to prevent; the checker's post-switch subset
    scan must catch any such slot.
    """

    name = "dropped-comparator-clear"

    def inject(self, injector: "FaultInjector") -> FaultEvent:
        comparator = injector.system.context_engine.comparator
        if comparator.reset_mask_filter is not None:
            raise FaultInjectionError(
                "comparator reset_mask_filter already armed"
            )
        # One comparison per cache of the switching context's core.
        budget = len(injector.system.hierarchy.caches_for_ctx(0))
        remaining = [budget]

        def drop_all(mask: np.ndarray) -> np.ndarray:
            if remaining[0] <= 0:
                return mask
            remaining[0] -= 1
            if remaining[0] == 0:
                comparator.reset_mask_filter = None
            return np.zeros_like(mask)

        comparator.reset_mask_filter = drop_all
        return FaultEvent(
            model=self.name,
            mode="drop-next-switch",
            switch_no=injector.switches,
            description=(
                f"next {budget} comparator results forced all-false"
            ),
            can_leak=True,
        )


class TcCorruption(FaultModel):
    """Corrupted or rollover-stressed fill timestamps (``core/timestamp``).

    * ``corrupt_in_domain``: overwrite an occupied slot's Tc with a
      different in-domain value — the checker's fill-time shadow copy
      must flag the mismatch (a wrong Tc can defeat the ``Tc > Ts``
      staleness repair).
    * ``corrupt_out_of_domain``: write a value above the timestamp mask —
      structurally impossible for the hardware SRAM, flagged by the
      domain-membership scan.
    * ``forced_rollover``: restamp the next restored snapshot's ``Ts``
      one epoch back, forcing the Section VI-C conservative full-reset
      path.  Benign by construction: the reset only removes visibility.
    """

    name = "tc-corruption"

    def inject(self, injector: "FaultInjector") -> FaultEvent:
        mode = injector.rng.choice(
            ["corrupt_in_domain", "corrupt_out_of_domain", "forced_rollover"]
        )
        if mode == "forced_rollover":
            return self._force_rollover(injector)
        target = self._pick_valid_slot(injector)
        if target is None:
            raise FaultInjectionError("no occupied slot to corrupt Tc in")
        cache, s, w = target
        domain = injector.system.context_engine.domain
        old = int(cache.tc[s, w])
        if mode == "corrupt_in_domain":
            new = (old + injector.rng.randint(1, domain.mask)) & domain.mask
        else:
            new = domain.mask + 1 + injector.rng.randint(0, domain.mask)
        cache.tc[s, w] = new
        return FaultEvent(
            model=self.name,
            mode=mode,
            switch_no=injector.switches,
            description=f"Tc {old} -> {new}",
            cache=cache.name,
            set_idx=s,
            way=w,
            can_leak=True,
        )

    @staticmethod
    def _force_rollover(injector: "FaultInjector") -> FaultEvent:
        engine = injector.system.context_engine
        if engine.restore_filter is not None:
            raise FaultInjectionError("restore_filter already armed")
        epoch = engine.domain.modulus

        def one_shot(task, ctx, saved, now_full):
            engine.restore_filter = None
            if saved is None or saved.ts_full < epoch:
                return saved  # nothing to stress; fault is a no-op
            return saved.clone(ts_full=saved.ts_full - epoch)

        engine.restore_filter = one_shot
        return FaultEvent(
            model=TcCorruption.name,
            mode="forced_rollover",
            switch_no=injector.switches,
            description="next restore sees Ts one epoch in the past",
            can_leak=False,
        )


class SwitchStateLoss(FaultModel):
    """Lost or forged s-bit state at context switches (``core/timecache``
    + the OS switch path).

    * ``dropped_save``: the next save silently vanishes (the task keeps
      its previous, older snapshot).  Benign: the older Ts makes the
      comparator clear *more*, and the older bits only describe lines the
      task had genuinely earned at that earlier time.
    * ``forged_ts``: the next restore replays the saved bits stamped with
      the *current* time, so the comparator finds nothing stale and every
      bit — including those on slots refilled while the task was away —
      survives.  Must be detected whenever any such slot exists.
    """

    name = "switch-state-loss"

    def inject(self, injector: "FaultInjector") -> FaultEvent:
        engine = injector.system.context_engine
        mode = injector.rng.choice(["dropped_save", "forged_ts"])
        if mode == "dropped_save":
            if engine.save_filter is not None:
                raise FaultInjectionError("save_filter already armed")

            def drop_once(task, ctx, context):
                engine.save_filter = None
                return None

            engine.save_filter = drop_once
            return FaultEvent(
                model=self.name,
                mode=mode,
                switch_no=injector.switches,
                description="next s-bit save dropped",
                can_leak=False,
            )
        if engine.restore_filter is not None:
            raise FaultInjectionError("restore_filter already armed")

        def forge_once(task, ctx, saved, now_full):
            engine.restore_filter = None
            if saved is None:
                return None
            return saved.clone(ts_full=now_full)

        engine.restore_filter = forge_once
        return FaultEvent(
            model=self.name,
            mode=mode,
            switch_no=injector.switches,
            description="next restore replays s-bits with Ts = now",
            can_leak=True,
        )


ALL_FAULT_MODELS = (
    SBitCorruption,
    DroppedComparatorClear,
    TcCorruption,
    SwitchStateLoss,
)


class FaultInjector:
    """Fires one fault model at a chosen context-switch ordinal.

    Registered as a switch listener *before* the invariant checker, so a
    fault injected at switch *k* is already in place when the checker's
    post-switch scan of switch *k* runs; filter-based faults armed at *k*
    take effect during switch *k+1* and are judged by its scan.
    """

    def __init__(
        self,
        system: TimeCacheSystem,
        model: FaultModel,
        rng: DeterministicRng,
        at_switch: int,
    ) -> None:
        if at_switch < 1:
            raise FaultInjectionError(
                f"at_switch must be >= 1, got {at_switch}"
            )
        self.system = system
        self.model = model
        self.rng = rng
        self.at_switch = at_switch
        self.switches = 0
        self.events: List[FaultEvent] = []
        self._attached = False

    def attach(self) -> "FaultInjector":
        if not self._attached:
            self.system.switch_listeners.append(self._on_switch)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.system.switch_listeners.remove(self._on_switch)
            self._attached = False

    def _on_switch(
        self,
        outgoing: Optional[int],
        incoming: int,
        ctx: int,
        now: int,
        cost: SwitchCost,
    ) -> None:
        self.switches += 1
        if self.switches == self.at_switch:
            self.events.append(self.model.inject(self))

    @property
    def fired(self) -> bool:
        return bool(self.events)
