"""Virtual memory: physical pages, segments, and address spaces.

The reuse attacks the paper targets exist *because* distinct processes
map the same physical memory (shared libraries, deduplicated pages,
forked/COW pages).  This module provides that sharing:

* :class:`PhysicalMemory` — a bump allocator of physical pages plus
  content-hash based deduplication;
* :class:`Segment` — a named run of physical pages (e.g. the text of
  ``libgcrypt``), mappable into many address spaces;
* :class:`AddressSpace` — a page-granular virtual→physical mapping with
  copy-on-write support.

Caches are physically indexed/tagged in :mod:`repro.memsys`, so two
processes touching the same segment touch the same cache lines — the
precondition of every attack in the paper.

An op tape's addresses are translated in bulk, not one access at a time:
:meth:`AddressSpace.physical_args` gives the tape's arguments with every
load, store and ifetch address made physical, computed with NumPy once
per page layout and kept on the tape.  ``generation`` counts the
mapping's changes, so a walker knows when to fetch them again.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.cpu.program import TAPE_COMPUTE, OpTape


class Segment:
    """A named, page-aligned run of physical memory."""

    def __init__(
        self, name: str, phys_base: int, size: int, page_bytes: int
    ) -> None:
        self.name = name
        self.phys_base = phys_base
        self.size = size
        self.page_bytes = page_bytes

    @property
    def num_pages(self) -> int:
        return (self.size + self.page_bytes - 1) // self.page_bytes

    def phys_page(self, index: int) -> int:
        """Physical page number of the segment's ``index``-th page."""
        if not 0 <= index < self.num_pages:
            raise SimulationError(
                f"segment {self.name}: page index {index} out of range"
            )
        return self.phys_base // self.page_bytes + index

    def __repr__(self) -> str:  # pragma: no cover
        return f"Segment({self.name!r}, base={self.phys_base:#x}, size={self.size})"


class PhysicalMemory:
    """Bump allocator of physical pages with content-based deduplication.

    ``allocate_segment`` may be given a ``content_key``; two segments
    allocated with the same key share the same physical pages — the model
    of kernel samepage merging / container image dedup that the paper's
    introduction motivates (and that TimeCache makes safe to deploy).
    """

    def __init__(self, page_bytes: int = 4096) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise SimulationError("page size must be a positive power of two")
        self.page_bytes = page_bytes
        self._next_page = 1  # leave physical page 0 unused (null guard)
        self._segments: Dict[str, Segment] = {}
        self._by_content: Dict[str, Segment] = {}
        self.dedup_hits = 0

    def allocate_segment(
        self, name: str, size: int, content_key: Optional[str] = None
    ) -> Segment:
        if size <= 0:
            raise SimulationError(f"segment {name}: size must be positive")
        if name in self._segments:
            raise SimulationError(f"segment {name} already allocated")
        if content_key is not None and content_key in self._by_content:
            existing = self._by_content[content_key]
            segment = Segment(
                name, existing.phys_base, size, self.page_bytes
            )
            if segment.num_pages > existing.num_pages:
                raise SimulationError(
                    f"dedup target {name} larger than existing content"
                )
            self.dedup_hits += 1
        else:
            pages = (size + self.page_bytes - 1) // self.page_bytes
            base = self._next_page * self.page_bytes
            self._next_page += pages
            segment = Segment(name, base, size, self.page_bytes)
            if content_key is not None:
                self._by_content[content_key] = segment
        self._segments[name] = segment
        return segment

    def allocate_private_page(self) -> int:
        """One fresh physical page (COW break target); returns page number."""
        page = self._next_page
        self._next_page += 1
        return page

    def segment(self, name: str) -> Segment:
        try:
            return self._segments[name]
        except KeyError:
            raise SimulationError(f"unknown segment {name!r}") from None

    @property
    def allocated_bytes(self) -> int:
        return (self._next_page - 1) * self.page_bytes


class _TapePages:
    """One tape's memory-op pages at one page size, and its physical
    arguments for each layout of those pages seen so far."""

    __slots__ = ("vpages", "by_layout")

    def __init__(self, tape: OpTape, shift: int) -> None:
        memory = np.frombuffer(tape.kinds, dtype=np.uint8) < TAPE_COMPUTE
        vpages = np.frombuffer(tape.args, dtype=np.int64)[memory]
        vpages >>= shift
        vpages.sort()
        first = np.ones(len(vpages), dtype=bool)
        np.not_equal(vpages[1:], vpages[:-1], out=first[1:])
        #: the distinct virtual pages, ascending
        self.vpages = vpages[first]
        #: physical page per entry of ``vpages`` -> the physical args
        self.by_layout: Dict[Tuple[int, ...], array] = {}


class AddressSpace:
    """Page-granular virtual→physical mapping for one process."""

    def __init__(self, name: str, phys: PhysicalMemory) -> None:
        self.name = name
        self.phys = phys
        self.page_bytes = phys.page_bytes
        self._page_shift = phys.page_bytes.bit_length() - 1
        self._vpage_to_ppage: Dict[int, int] = {}
        self._cow_pages: Dict[int, bool] = {}  # vpage -> is COW-protected
        self._segments: Dict[str, int] = {}  # segment name -> vaddr base
        #: bumped by every change to the mapping
        self.generation = 0

    # ------------------------------------------------------------------
    def map_segment(self, segment: Segment, vaddr: int) -> None:
        """Map a segment at ``vaddr`` (page aligned)."""
        if vaddr % self.page_bytes != 0:
            raise SimulationError(
                f"{self.name}: segment base {vaddr:#x} not page aligned"
            )
        base_vpage = vaddr >> self._page_shift
        self.generation += 1
        for i in range(segment.num_pages):
            vpage = base_vpage + i
            if vpage in self._vpage_to_ppage:
                raise SimulationError(
                    f"{self.name}: vpage {vpage:#x} already mapped"
                )
            self._vpage_to_ppage[vpage] = segment.phys_page(i)
        self._segments[segment.name] = vaddr

    def map_segment_cow(self, segment: Segment, vaddr: int) -> None:
        """Map a segment copy-on-write (fork-style sharing)."""
        self.map_segment(segment, vaddr)
        base_vpage = vaddr >> self._page_shift
        for i in range(segment.num_pages):
            self._cow_pages[base_vpage + i] = True

    def mirror_cow(self, parent: "AddressSpace") -> None:
        """Map every page of ``parent`` here too, copy-on-write on this
        side only (a fork's child; the parent keeps writing in place)."""
        self.generation += 1
        for vpage, ppage in parent._vpage_to_ppage.items():
            self._vpage_to_ppage[vpage] = ppage
            self._cow_pages[vpage] = True
        self._segments.update(parent._segments)

    def segment_base(self, name: str) -> int:
        try:
            return self._segments[name]
        except KeyError:
            raise SimulationError(
                f"{self.name}: segment {name!r} not mapped"
            ) from None

    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> int:
        """Virtual byte address → physical byte address."""
        vpage = vaddr >> self._page_shift
        try:
            ppage = self._vpage_to_ppage[vpage]
        except KeyError:
            raise self._page_fault(vaddr) from None
        return (ppage << self._page_shift) | (vaddr & (self.page_bytes - 1))

    def _page_fault(self, vaddr: int) -> SimulationError:
        return SimulationError(f"{self.name}: page fault at {vaddr:#x} (unmapped)")

    def physical_args(self, tape: OpTape) -> array:
        """``tape.args`` with every load, store and ifetch address
        translated as :meth:`translate` would translate it now.

        The tape keeps one such array per page layout — the physical
        pages its virtual pages map to — shared by its walkers and by
        every space mapping those pages alike, as the baseline and
        TimeCache runs of one experiment do.  If any of the tape's
        addresses is unmapped, this raises the error :meth:`translate`
        gives for the first such address in op order.
        """
        shift = self._page_shift
        pages = tape.translations.get(shift)
        if pages is None:
            pages = tape.translations[shift] = _TapePages(tape, shift)
        layout = tuple(map(self._vpage_to_ppage.get, pages.vpages.tolist()))
        args = pages.by_layout.get(layout)
        if args is None:
            if None in layout:
                table = self._vpage_to_ppage
                for code, vaddr in zip(tape.kinds, tape.args):
                    if code < TAPE_COMPUTE and vaddr >> shift not in table:
                        raise self._page_fault(vaddr)
            args = pages.by_layout[layout] = self._translated(tape, pages, layout)
        return args

    def _translated(
        self, tape: OpTape, pages: _TapePages, layout: Tuple[int, ...]
    ) -> array:
        args = tape.args[:]  # a copy, translated in place
        view = np.frombuffer(args, dtype=np.int64)
        memory = np.frombuffer(tape.kinds, dtype=np.uint8) < TAPE_COMPUTE
        vaddrs = view[memory]
        ppages = np.searchsorted(pages.vpages, vaddrs >> self._page_shift)
        np.take(np.array(layout, dtype=np.int64), ppages, out=ppages)
        ppages <<= self._page_shift
        vaddrs &= self.page_bytes - 1
        vaddrs |= ppages
        view[memory] = vaddrs
        return args

    def write_fault(self, vaddr: int) -> bool:
        """Handle a store to a COW page: break sharing with a fresh page.

        Returns True if a COW break happened (the caller can charge a
        fault cost).  After the break the page is private, so subsequent
        stores hit distinct physical lines from the original sharer's.
        """
        vpage = vaddr >> self._page_shift
        if not self._cow_pages.get(vpage, False):
            return False
        self.generation += 1
        self._vpage_to_ppage[vpage] = self.phys.allocate_private_page()
        self._cow_pages[vpage] = False
        return True

    def is_mapped(self, vaddr: int) -> bool:
        return (vaddr >> self._page_shift) in self._vpage_to_ppage

    def shares_page_with(self, other: "AddressSpace", vaddr: int) -> bool:
        """True when both spaces map ``vaddr`` to the same physical page."""
        vpage = vaddr >> self._page_shift
        mine = self._vpage_to_ppage.get(vpage)
        theirs = other._vpage_to_ppage.get(vpage)
        return mine is not None and mine == theirs
