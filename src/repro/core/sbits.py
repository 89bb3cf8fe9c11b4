"""The software side of the s-bit protocol: saved per-task caching contexts.

At preemption, trusted software (the OS in this reproduction, Section IV-C)
snapshots the departing task's s-bit column from every cache its hardware
context shares, together with the full preemption time ``Ts``.  The
snapshot is *positional* — one bit per (set, way) slot, not per tag —
because that is what the hardware array holds; staleness is repaired at
restore time by the timestamp comparator.

The snapshot is keyed by the *physical cache* it came from.  If a task is
later rescheduled onto a different core, its saved L1 bits describe a
different cache and must not be restored there; the context-switch engine
falls back to an all-clear column in that case (safe: extra first-access
misses, never extra hits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.memsys.cache import Cache


@dataclass
class SavedCachingContext:
    """One task's saved s-bits across cache levels, plus its Ts."""

    #: full (untruncated) cycle time of the save — software keeps full
    #: precision so rollover between save and restore is detected exactly
    ts_full: int
    #: cache name -> (sets, ways) bool array of s-bits
    sbits_by_cache: Dict[str, np.ndarray] = field(default_factory=dict)

    def bits_for(self, cache: Cache) -> Optional[np.ndarray]:
        """The saved column for ``cache``, or None if never saved from it."""
        return self.sbits_by_cache.get(cache.name)

    def clone(self, ts_full: Optional[int] = None) -> "SavedCachingContext":
        """An independent deep copy, optionally restamped with a new Ts.

        The robustness layer uses this to model corrupted context-switch
        state (a stale snapshot replayed with a forged preemption time);
        cloning keeps the injected snapshot decoupled from the live one.
        """
        return SavedCachingContext(
            ts_full=self.ts_full if ts_full is None else ts_full,
            sbits_by_cache={
                name: array.copy() for name, array in self.sbits_by_cache.items()
            },
        )


class TaskCachingState:
    """Mutable per-task TimeCache state owned by the OS layer.

    A freshly created task has no saved context: the paper specifies that
    a new process is scheduled with both Ts and s-bits reset, which the
    context-switch engine realizes by restoring all-zero columns.
    """

    def __init__(self, task_id: int) -> None:
        self.task_id = task_id
        self.saved: Optional[SavedCachingContext] = None
        #: number of save/restore round trips, for bookkeeping stats
        self.switch_count = 0

    def record_save(self, context: SavedCachingContext) -> None:
        self.saved = context
        self.switch_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ts = self.saved.ts_full if self.saved else None
        return f"TaskCachingState(task={self.task_id}, ts={ts})"
