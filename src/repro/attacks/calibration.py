"""Attacker-side threshold calibration (Section VI-A2's methodology).

The paper: "We calculate the time required for a cached and uncached
access on the experimental real machine and set that as the threshold
for the cache hit."  A real attacker does the same with rdtsc-bracketed
probes on memory it controls; this module performs that measurement
*inside the simulation* — timed accesses by an actual calibration
program, not a peek at the latency configuration — and derives the
threshold from the two observed latency populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.attacks.base import SharedArrayScenario
from repro.common.config import SimConfig
from repro.common.errors import CalibrationError
from repro.cpu.isa import Exit, Flush, Load
from repro.cpu.program import Program, ProgramGen
from repro.os.kernel import Kernel


@dataclass(frozen=True)
class CalibrationResult:
    """Measured hit/miss latency populations and the derived threshold."""

    cached_latencies: List[int]
    uncached_latencies: List[int]

    @property
    def cached_max(self) -> int:
        return max(self.cached_latencies)

    @property
    def uncached_min(self) -> int:
        return min(self.uncached_latencies)

    @property
    def threshold(self) -> int:
        """Midpoint between the slowest hit and the fastest miss."""
        return (self.cached_max + self.uncached_min) // 2

    @property
    def separable(self) -> bool:
        """Whether the two populations do not overlap (they must, for
        flush+reload to classify reliably)."""
        return self.cached_max < self.uncached_min

    def validate(self) -> "CalibrationResult":
        """Raise :class:`CalibrationError` unless a usable threshold exists.

        Empty populations (the calibration program never ran) and
        overlapping or touching populations (``cached_max >=
        uncached_min`` — a latency value that could be either class)
        both make the midpoint threshold meaningless; failing loudly
        here beats an attack harness silently classifying noise.
        """
        if not self.cached_latencies or not self.uncached_latencies:
            raise CalibrationError(
                "calibration produced an empty latency population "
                f"({len(self.cached_latencies)} cached, "
                f"{len(self.uncached_latencies)} uncached probes)"
            )
        if not self.separable:
            raise CalibrationError(
                "cached and uncached latency populations overlap; "
                "no threshold can separate hits from misses",
                cached_max=self.cached_max,
                uncached_min=self.uncached_min,
            )
        return self


def calibrate_hit_threshold(
    config: SimConfig, probes: int = 32, ctx: int = 0
) -> CalibrationResult:
    """Measure cached vs uncached access time the way an attacker would.

    Runs a calibration program on a fresh machine: for each probe line it
    measures an uncached access (after a flush) and then a cached
    re-access, both rdtsc-bracketed and fenced.  Raises
    :class:`~repro.common.errors.CalibrationError` when the measured
    populations are empty or inseparable (no midpoint threshold could
    classify reliably) — e.g. under a configuration whose DRAM latency
    does not dominate the hit paths.
    """
    kernel = Kernel(config)
    process = kernel.create_process("calibrator")
    line_bytes = config.hierarchy.line_bytes
    segment = kernel.phys.allocate_segment(
        "calibration_buffer", probes * line_bytes
    )
    base = 0x900000
    process.address_space.map_segment(segment, base)
    cached: List[int] = []
    uncached: List[int] = []

    def program() -> ProgramGen:
        for i in range(probes):
            addr = base + i * line_bytes
            yield Flush(addr)
            latency, _ = yield from SharedArrayScenario.timed(Load(addr))
            uncached.append(latency)  # guaranteed uncached (just flushed)
            latency, _ = yield from SharedArrayScenario.timed(Load(addr))
            cached.append(latency)  # guaranteed cached (just loaded)
        yield Exit()

    task = process.spawn(Program("calibrate", program), affinity=ctx)
    kernel.submit(task)
    kernel.run()
    return CalibrationResult(
        cached_latencies=cached, uncached_latencies=uncached
    ).validate()
