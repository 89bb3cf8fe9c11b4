"""LLC-side owner table for MESI-lite coherence between private caches.

The directory records, per line, the private cache that holds it
modified.  A load that must pull a modified line out of another core's
L1D observes a distinct latency (a cache-to-cache transfer), which the
Section VII-B coherence attacks exploit and TimeCache's
``dram_latency_on_first_access`` option hides; the owner table finds
that L1D without searching every private cache.

Which private caches hold a line is the caches' own residency, so the
directory keeps no sharer sets: a store invalidates, and clflush and an
LLC eviction back-invalidate, each private cache that holds the line
(resetting its s-bits, which the TimeCache security argument requires).
An inclusive LLC makes that sufficient — any line in a private cache is
also in the LLC.
"""

from __future__ import annotations

from typing import Dict


class Directory:
    """The owner table: line address -> the private cache id holding the
    line modified."""

    def __init__(self) -> None:
        self._owner: Dict[int, str] = {}

    def owner(self, line_addr: int) -> str:
        """Private cache id holding the line modified, or '' if none."""
        return self._owner.get(line_addr, "")

    def set_owner(self, line_addr: int, cache_id: str) -> None:
        """Mark ``cache_id`` as holding the only (modified) private copy."""
        self._owner[line_addr] = cache_id

    def release(self, line_addr: int, cache_id: str) -> None:
        """``cache_id``'s copy left it (eviction, invalidation): clear the
        owner if it is that cache."""
        if self._owner.get(line_addr) == cache_id:
            del self._owner[line_addr]

    def clear_owner(self, line_addr: int) -> None:
        self._owner.pop(line_addr, None)

    def drop_line(self, line_addr: int) -> None:
        """Forget a line entirely (LLC eviction/flush)."""
        self._owner.pop(line_addr, None)
