"""Pluggable cache-side-channel defenses (docs/internals.md §17).

TimeCache, the undefended control, FASE-style selective flushing,
CACHEBAR-style copy-on-access, and the paper's Section VIII comparison
arms (FTM and CAT partitioning with flush), all behind one
:class:`Defense` protocol and one registry that ``SimConfig.with_defense``,
the tournament and :class:`~repro.core.timecache.TimeCacheSystem` share.
"""

from repro.defenses.base import Defense, merge_switch_costs
from repro.defenses.builtin import (
    BaselineControl,
    CopyOnAccessDefense,
    FtmDefense,
    PartitionFlushDefense,
    SelectiveFlushDefense,
    TimeCacheDefense,
)
from repro.defenses.registry import (
    control_defense,
    defense_names,
    get_defense,
    is_control_defense,
    register_defense,
    unregister_defense,
)

__all__ = [
    "BaselineControl",
    "CopyOnAccessDefense",
    "Defense",
    "FtmDefense",
    "PartitionFlushDefense",
    "SelectiveFlushDefense",
    "TimeCacheDefense",
    "control_defense",
    "defense_names",
    "get_defense",
    "is_control_defense",
    "merge_switch_costs",
    "register_defense",
    "unregister_defense",
]
