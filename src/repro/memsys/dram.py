"""DRAM backend model.

A fixed-latency main memory: the attacks and the TimeCache overhead
shapes depend only on the DRAM latency being far above any cache-hit
latency.
"""

from __future__ import annotations

from repro.common.stats import StatGroup


class Dram:
    """Main memory: every access succeeds, at ``latency`` cycles."""

    def __init__(self, latency: int) -> None:
        if latency <= 0:
            raise ValueError(f"DRAM latency must be positive, got {latency}")
        self.latency = latency
        self.stats = StatGroup("DRAM")
        self.c_accesses = self.stats.bound_counter("accesses")
        self.c_writebacks = self.stats.bound_counter("writebacks")

    def access(self, line_addr: int) -> int:
        """Service a line fetch or writeback; returns the latency."""
        self.c_accesses.add()
        return self.latency

    def writeback(self, line_addr: int) -> int:
        """Accept a dirty line; modeled like an access for latency."""
        self.c_writebacks.add()
        return self.access(line_addr)
