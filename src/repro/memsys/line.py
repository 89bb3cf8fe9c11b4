"""Cache line state.

A :class:`CacheLine` carries the *architectural* state of one line slot:
tag, dirtiness, and the LRU recency stamp.  The TimeCache metadata (fill
timestamp ``Tc`` and the per-hardware-context ``s-bits``) deliberately
lives in flat arrays owned by the enclosing
:class:`~repro.memsys.cache.Cache`, mirroring the paper's hardware layout:
a *separate* transposed SRAM array beside the data array (Figure 3), which
the bit-serial comparator scans in parallel across all lines.
"""

from __future__ import annotations


class CacheLine:
    """One way of one set: tag, dirty bit and LRU recency stamp."""

    __slots__ = ("tag", "dirty", "last_used")

    def __init__(self, tag: int, now: int) -> None:
        self.tag = tag
        self.dirty = False
        #: recency stamp for LRU replacement
        self.last_used = now

    def touch(self, now: int) -> None:
        self.last_used = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheLine(tag={self.tag:#x}, dirty={self.dirty})"
