"""A per-hardware-context TLB.

The VM substrate translates virtual to physical addresses on every
memory operation; a real core caches those translations in a TLB and
pays a page-table walk on a miss.  The TLB is flushed on a CR3 write —
i.e. whenever the kernel switches the context to a different process —
which adds a (small) per-switch warm-up cost on top of TimeCache's own
bookkeeping.  The kernel installs each context's TLB with the running
task; the hardware context charges a miss's walk cycles to its local
time before the access issues.

Off by default (``SimConfig.tlb_entries == 0``): the paper's evaluation
does not model TLBs, and the calibrated experiment numbers are produced
without one.  Enabling it exercises the same code paths with translation
costs included (see ``tests/os/test_tlb.py``).

Security note: the TLB is flushed across protection-domain switches, so
it does not itself carry a cross-process reuse channel in this model;
TLB side channels (e.g. TLBleed) are outside the paper's scope.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Tuple

from repro.common.stats import StatGroup


class Tlb:
    """Fully-associative, LRU translation cache for one hardware context."""

    def __init__(
        self,
        entries: int,
        walk_cycles: int = 30,
        page_bytes: int = 4096,
    ) -> None:
        if entries <= 0:
            raise ValueError(f"TLB needs >= 1 entry, got {entries}")
        if walk_cycles < 0:
            raise ValueError("walk cost cannot be negative")
        self.entries = entries
        self.walk_cycles = walk_cycles
        self._page_shift = page_bytes.bit_length() - 1
        self._page_mask = page_bytes - 1
        self._map: "OrderedDict[int, int]" = OrderedDict()
        self.stats = StatGroup("tlb")
        self._hits = self.stats.bound_counter("hits")
        self._misses = self.stats.bound_counter("misses")
        self._flushes = self.stats.bound_counter("flushes")

    def translate(
        self, vaddr: int, walker: Callable[[int], int]
    ) -> Tuple[int, int]:
        """Translate ``vaddr``; returns (paddr, extra cycles).

        ``walker`` is the page-table walk — the address space's
        ``translate`` — consulted only on a miss.
        """
        vpage = vaddr >> self._page_shift
        offset = vaddr & self._page_mask
        ppage = self._map.get(vpage)
        if ppage is not None:
            self._map.move_to_end(vpage)
            self._hits.add()
            return (ppage << self._page_shift) | offset, 0
        self._misses.add()
        paddr = walker(vaddr)
        ppage = paddr >> self._page_shift
        self._map[vpage] = ppage
        if len(self._map) > self.entries:
            self._map.popitem(last=False)
        return paddr, self.walk_cycles

    def flush(self) -> None:
        """CR3 write: drop every cached translation."""
        self._map.clear()
        self._flushes.add()

    @property
    def occupancy(self) -> int:
        return len(self._map)
