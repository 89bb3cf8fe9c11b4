"""One set of a set-associative cache."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.memsys.line import CacheLine


class CacheSet:
    """Ways plus a tag index; replacement is LRU.

    The set stores only architectural line state; TimeCache metadata is
    held in the enclosing cache's flat arrays, indexed by (set, way).
    LRU is the only replacement rule: the Section VII-A LRU attack
    (:mod:`repro.attacks.lru_attack`) observes it, since the victim's
    touch of a line changes which way :meth:`choose_victim` returns.
    """

    __slots__ = ("index", "lines", "_tag_to_way")

    def __init__(self, index: int, ways: int) -> None:
        self.index = index
        self.lines: List[Optional[CacheLine]] = [None] * ways
        self._tag_to_way: Dict[int, int] = {}

    def lookup(self, tag: int) -> Optional[int]:
        """Way holding ``tag``, or ``None`` on a set miss."""
        return self._tag_to_way.get(tag)

    def touch(self, way: int, now: int) -> None:
        line = self.lines[way]
        if line is None:
            raise SimulationError(f"touch on empty way {way}")
        line.touch(now)

    def choose_victim(self) -> int:
        """Way to fill: a free way if any, else the LRU line."""
        return self.choose_victim_in(range(len(self.lines)))

    def choose_victim_in(self, allowed_ways: range) -> int:
        """Way to fill within ``allowed_ways`` (CAT-style way masking).

        A free allowed way wins; otherwise the least-recently-used line
        *within the allowed ways* is evicted, the lowest way on a tie —
        which is how way masking constrains hardware replacement."""
        for way in allowed_ways:
            if self.lines[way] is None:
                return way
        best_way = -1
        best_time = None
        for way in allowed_ways:
            line = self.lines[way]
            assert line is not None
            if best_time is None or line.last_used < best_time:
                best_time = line.last_used
                best_way = way
        if best_way < 0:
            raise SimulationError("empty allowed-way mask")
        return best_way

    def install(self, way: int, tag: int, now: int) -> CacheLine:
        """Place a new line in ``way``; the way must already be empty."""
        if self.lines[way] is not None:
            raise SimulationError(
                f"install into occupied way {way} (evict first)"
            )
        if tag in self._tag_to_way:
            raise SimulationError(f"duplicate tag {tag:#x} in set {self.index}")
        line = CacheLine(tag, now)
        self.lines[way] = line
        self._tag_to_way[tag] = way
        return line

    def remove(self, way: int) -> CacheLine:
        """Remove and return the line in ``way`` (eviction/invalidation)."""
        line = self.lines[way]
        if line is None:
            raise SimulationError(f"remove from empty way {way}")
        self.lines[way] = None
        del self._tag_to_way[line.tag]
        return line

    @property
    def occupancy(self) -> int:
        return len(self._tag_to_way)

    def resident_tags(self) -> List[int]:
        return list(self._tag_to_way)
