"""The :class:`Defense` protocol: software cache-side-channel mitigations
as pluggable policies over one simulated machine.

A defense is two things:

* a **config transform** (:meth:`Defense.configure`) that turns a neutral
  :class:`~repro.common.config.SimConfig` into the defended machine —
  flipping the TimeCache s-bit machinery on or off, and stamping
  ``config.defense`` so the system knows which plugin to attach; and
* an optional set of **runtime hooks** (:meth:`Defense.attach`,
  :meth:`Defense.on_context_switch`) installed by
  :class:`~repro.core.timecache.TimeCacheSystem` at construction:
  per-access observation (hierarchy pre/post listeners), an address
  remap at the system facade, and a context-switch cost contribution
  merged into the :class:`~repro.core.context.SwitchCost` the scheduler
  charges.

TimeCache itself is one registered plugin whose hooks are all no-ops —
the s-bit/Tc machinery stays where it always lived (``repro.memsys``,
``repro.core.context``), keyed off ``config.timecache.enabled``, so the
defended system is *bit-identical* to what it was before the protocol
existed.  The protocol earns its keep with the siblings: FASE-style
selective flushing and CACHEBAR-style copy-on-access need only the hooks.

Engine capability
-----------------

Each defense declares ``fast_engine``: True (the default) when it runs
on the fast engine, False when :meth:`Defense.check_engine` must reject
``engine='fast'`` with a typed :class:`~repro.common.errors.ConfigError`
naming the object-engine fallback, the same way the fast engine rejects
tree-plru replacement.  Per-access listeners need no declaration: both
engines run every batched access through their scalar ``access``, which
calls them.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional

from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.core.context import SwitchCost

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.timecache import TimeCacheSystem


class Defense:
    """Base class / protocol for one registered defense.

    Subclasses set the class attributes and override whichever hooks
    they need; every base hook is a no-op so a pure config-transform
    defense (TimeCache, the baseline control) costs nothing at runtime.
    """

    #: registry key, and the value carried in ``SimConfig.defense``
    name: str = ""
    #: one-line description for docs and the matrix rendering
    summary: str = ""
    #: True for the undefended control arm: the tournament gate holds
    #: control cells to the *sanity* direction (the attack must keep
    #: leaking) instead of the defense-regression direction
    is_control: bool = False
    #: False when this defense cannot run on the fast engine (see the
    #: module docstring)
    fast_engine: bool = True

    # ------------------------------------------------------------------
    # config transform
    # ------------------------------------------------------------------
    def configure(self, config: SimConfig) -> SimConfig:
        """Return ``config`` reshaped into this defense's machine.

        The default stamps ``config.defense`` only; subclasses compose
        with :meth:`SimConfig.with_timecache` / :meth:`SimConfig.baseline`
        as needed.  Must be pure (frozen-dataclass ``replace``).
        """
        return dataclasses.replace(config, defense=self.name)

    # ------------------------------------------------------------------
    # engine capability (satellite: typed, never silent)
    # ------------------------------------------------------------------
    def check_engine(self, config: SimConfig) -> None:
        """Raise :class:`ConfigError` when this defense cannot run on the
        configured engine, naming the fallback — mirroring the fast
        engine's tree-plru rejection."""
        if config.hierarchy.engine == "fast" and not self.fast_engine:
            raise ConfigError(
                f"defense {self.name!r} does not support engine='fast'; "
                f"fall back to engine='object' (the reference model)"
            )

    # ------------------------------------------------------------------
    # runtime hooks
    # ------------------------------------------------------------------
    def attach(self, system: "TimeCacheSystem") -> Any:
        """Install runtime hooks on a freshly built system.

        Returns the defense's per-system mutable state (stored by the
        system as ``defense_state``), or ``None`` when the defense is a
        pure config transform.  Registry entries are singletons — never
        keep per-system state on ``self``.
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
