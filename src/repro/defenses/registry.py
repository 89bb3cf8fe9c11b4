"""The defense registry: name → :class:`~repro.defenses.base.Defense`.

Every ``SimConfig.defense`` resolves here, and registration order is
presentation order.  The tournament's gated default axis is its own
named tuple, ``repro.analysis.tournament.DEFENSES``; any other
registered defense is scored through ``--defenses NAME`` (the
``defenses=`` argument).  Adding a defense to ``DEFENSES`` grows the
committed security baseline by ``--update-baseline``; the gate ignores
cells present on only one side, so growth never retroactively fails it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ConfigError
from repro.defenses.base import Defense
from repro.defenses.builtin import (
    BaselineControl,
    CopyOnAccessDefense,
    FtmDefense,
    PartitionFlushDefense,
    SelectiveFlushDefense,
    TimeCacheDefense,
)

_REGISTRY: Dict[str, Defense] = {}


def register_defense(defense: Defense, replace: bool = False) -> Defense:
    """Add a defense to the registry (typed errors, never silent)."""
    if not defense.name:
        raise ConfigError("a defense must carry a non-empty name")
    if defense.name in _REGISTRY and not replace:
        raise ConfigError(f"defense {defense.name!r} is already registered")
    _REGISTRY[defense.name] = defense
    return defense


def unregister_defense(name: str) -> None:
    """Remove a defense (tests registering throwaways clean up with this)."""
    _REGISTRY.pop(name, None)


def get_defense(name: str) -> Defense:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown defense {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def defense_names() -> List[str]:
    """Registered defense names, in registration (presentation) order."""
    return list(_REGISTRY)


def is_control_defense(name: str) -> bool:
    """True when ``name`` is registered as a control (undefended) arm."""
    defense = _REGISTRY.get(name)
    return bool(defense is not None and defense.is_control)


# The shipped zoo.  TimeCache and the control arm first: they anchor the
# pre-protocol tournament matrix, and their cells must stay bit-identical.
register_defense(TimeCacheDefense())
register_defense(BaselineControl())
register_defense(SelectiveFlushDefense())
register_defense(CopyOnAccessDefense())
register_defense(FtmDefense())
register_defense(PartitionFlushDefense())
