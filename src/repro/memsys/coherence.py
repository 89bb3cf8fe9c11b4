"""LLC-side directory for MESI-lite coherence between private caches.

The directory tracks, per LLC-resident line, which private caches hold a
copy.  It gives the hierarchy what it needs for:

* **store invalidations** — a write by one core invalidates the line in
  every other core's private caches (resetting their s-bits, which the
  TimeCache security argument requires), and
* **remote-transfer latency** — a load that must pull a modified line out
  of another core's L1D observes a distinct latency, which the
  Section VII-B coherence attacks exploit and TimeCache's
  ``dram_latency_on_first_access`` option hides.

The directory is *metadata only*: residency truth lives in the caches and
the directory is kept in sync by the hierarchy.  An inclusive LLC makes
this sufficient — any line in a private cache is also in the LLC.
"""

from __future__ import annotations

from typing import Dict, Set


class Directory:
    """Presence sets keyed by line address; sharers are private-cache ids."""

    def __init__(self) -> None:
        self._sharers: Dict[int, Set[str]] = {}
        self._owner: Dict[int, str] = {}  # private cache holding line dirty

    def sharers(self, line_addr: int) -> Set[str]:
        return set(self._sharers.get(line_addr, ()))

    def owner(self, line_addr: int) -> str:
        """Private cache id holding the line modified, or '' if none."""
        return self._owner.get(line_addr, "")

    def add_sharer(self, line_addr: int, cache_id: str) -> None:
        sharers = self._sharers.get(line_addr)
        if sharers is None:
            sharers = self._sharers[line_addr] = set()
        sharers.add(cache_id)

    def remove_sharer(self, line_addr: int, cache_id: str) -> None:
        sharers = self._sharers.get(line_addr)
        if sharers is not None:
            sharers.discard(cache_id)
            if not sharers:
                del self._sharers[line_addr]
        if self._owner.get(line_addr) == cache_id:
            del self._owner[line_addr]

    def set_owner(self, line_addr: int, cache_id: str) -> None:
        """Mark ``cache_id`` as holding the only (modified) private copy."""
        self._owner[line_addr] = cache_id
        self.add_sharer(line_addr, cache_id)

    def clear_owner(self, line_addr: int) -> None:
        self._owner.pop(line_addr, None)

    def drop_line(self, line_addr: int) -> Set[str]:
        """Forget a line entirely (LLC eviction/flush); returns old sharers."""
        self._owner.pop(line_addr, None)
        return self._sharers.pop(line_addr, set())
