"""The :class:`Defense` protocol: software cache-side-channel mitigations
as pluggable policies over one simulated machine.

Every machine names one registered defense (``SimConfig.defense``,
``"timecache"`` by default).  A defense is two things:

* a **declaration** (:attr:`Defense.uses_sbits`): whether the machine
  runs TimeCache's s-bit machinery.  :meth:`Defense.configure` turns a
  config into the defended machine by setting ``timecache.enabled``
  from it and stamping ``config.defense``; and
* an optional set of **runtime hooks** (:meth:`Defense.attach`,
  :meth:`Defense.on_context_switch`) installed by
  :class:`~repro.core.timecache.TimeCacheSystem` at construction:
  per-access observation (hierarchy pre/post listeners), an address
  remap at the system facade, and a context-switch cost contribution
  merged into the :class:`~repro.core.context.SwitchCost` the scheduler
  charges.

TimeCache itself is one registered plugin whose hooks are all no-ops:
its declaration turns on the s-bit/Tc machinery in ``repro.memsys`` and
``repro.core.context``.  The control (``is_control``) is the undefended
machine :meth:`SimConfig.baseline` names.  The protocol earns its keep
with the siblings: FASE-style selective flushing and CACHEBAR-style
copy-on-access need only the hooks.

Every defense runs on both engines: both call the per-access listeners
from every access, batched or not, and the address remap sits at the
facade, above either engine.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional

from repro.common.config import SimConfig
from repro.core.context import SwitchCost

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.timecache import TimeCacheSystem


class Defense:
    """Base class / protocol for one registered defense.

    Subclasses set the class attributes and override whichever hooks
    they need; every base hook is a no-op, so a defense with no hooks
    (TimeCache, the baseline control) costs nothing at runtime.
    """

    #: registry key, and the value carried in ``SimConfig.defense``
    name: str = ""
    #: one-line description for docs and the matrix rendering
    summary: str = ""
    #: True for the undefended control arm: the tournament gate holds
    #: control cells to the *sanity* direction (the attack must keep
    #: leaking) instead of the defense-regression direction
    is_control: bool = False
    #: whether the machine runs TimeCache's s-bit machinery: the value
    #: :meth:`configure` gives ``timecache.enabled``
    uses_sbits: bool = False

    # ------------------------------------------------------------------
    # config transform
    # ------------------------------------------------------------------
    def configure(self, config: SimConfig) -> SimConfig:
        """``config`` as this defense's machine: ``timecache.enabled``
        from :attr:`uses_sbits`, ``defense`` stamped, every other knob kept."""
        timecache = dataclasses.replace(config.timecache, enabled=self.uses_sbits)
        return dataclasses.replace(config, timecache=timecache, defense=self.name)

    # ------------------------------------------------------------------
    # runtime hooks
    # ------------------------------------------------------------------
    def attach(self, system: "TimeCacheSystem") -> Any:
        """Install runtime hooks on a freshly built system.

        Returns the defense's per-system mutable state (stored by the
        system as ``defense_state``), or ``None`` when the defense keeps
        none.  Registry entries are singletons — never keep per-system
        state on ``self``.
        """
        return None

    def on_context_switch(
        self,
        system: "TimeCacheSystem",
        outgoing_task: Optional[int],
        incoming_task: int,
        ctx: int,
        now: int,
    ) -> Optional[SwitchCost]:
        """Per-switch work; an extra :class:`SwitchCost` to merge into
        what the scheduler charges, or ``None`` for no contribution."""
        return None


def merge_switch_costs(base: SwitchCost, extra: SwitchCost) -> SwitchCost:
    """The defense's switch contribution added onto the engine's cost."""
    return SwitchCost(
        dma_cycles=base.dma_cycles + extra.dma_cycles,
        comparator_cycles=base.comparator_cycles + extra.comparator_cycles,
        rollover_reset=base.rollover_reset or extra.rollover_reset,
    )
