"""Keystroke-timing recovery through a shared library (§II-B).

The paper cites cache attacks that "leak keystrokes from another
process" (Wang et al., NDSS'19): every key press runs the same input-
handler code in a shared library, so an attacker polling that code line
with flush+reload sees a hit at each press and recovers the *timing* of
keystrokes — enough for classic inter-keystroke-interval password
inference.

The simulation: a victim "editor" executes the shared handler at
irregular (deterministic, seeded) intervals; the attacker polls.  The
outcome compares the recovered event times against the ground-truth
press times.  Under TimeCache the attacker observes no hits and recovers
no timeline.  The shared library is the shared segment of a
:class:`~repro.attacks.base.SharedArrayScenario`, with the spy on
context 0 and the editor on context 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.attacks.base import SharedArrayScenario
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.cpu.isa import Compute, Exit, Flush, Ifetch, Load, Rdtsc
from repro.cpu.program import Program, ProgramGen

HANDLER_LINE = 2  # offset of the key-press handler inside the shared lib
LIB_LINES = 8
#: bounds of the idle gap before each key press (user thinking time)
MIN_GAP, MAX_GAP = 20_000, 60_000


@dataclass
class KeystrokeResult:
    """Ground truth vs recovered key-press timeline."""

    true_press_times: List[int]
    recovered_times: List[int]
    probe_hits: int
    probe_total: int
    match_tolerance: int
    matched: int = field(default=0)
    #: every poll as (probe timestamp, measured latency) — the raw
    #: observation stream, so distribution-level scoring can label each
    #: probe by its distance from a true press instead of re-deriving
    #: events from the thresholded hit times.
    probe_log: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def recall(self) -> float:
        """Fraction of true presses with a recovered event nearby."""
        if not self.true_press_times:
            return 0.0
        return self.matched / len(self.true_press_times)

    @property
    def timeline_recovered(self) -> bool:
        return self.recall >= 0.8


def run_keystroke_attack(
    config: SimConfig,
    presses: int = 10,
    poll_period: int = 2_000,
    seed: int = 0x5EED,
) -> KeystrokeResult:
    """Recover a victim's key-press timeline on a 2-core machine.

    The attacker polls the handler line every ``poll_period`` cycles;
    recovered events are the poll timestamps that observed a hit,
    de-duplicated per press window.
    """
    if config.hierarchy.num_hw_contexts < 2:
        raise ConfigError("the keystroke attack needs two hardware contexts")
    scenario = SharedArrayScenario(
        config, shared_lines=LIB_LINES, attacker_ctx=0, victim_ctx=1
    )
    handler_addr = scenario.lines[HANDLER_LINE]
    threshold = scenario.threshold

    rng = DeterministicRng(seed)
    gaps = [rng.randint(MIN_GAP, MAX_GAP) for _ in range(presses)]
    true_press_times: List[int] = []
    hit_times: List[int] = []
    probe_log: List[Tuple[int, int]] = []

    def victim() -> ProgramGen:
        for gap in gaps:
            # idle between keystrokes (user thinking time)
            yield Compute(gap)
            t = yield Rdtsc()
            true_press_times.append(t)
            # the key-press handler: a burst through the shared code
            for _ in range(24):
                yield Ifetch(handler_addr)
                yield Compute(8)
        yield Exit()

    def attacker() -> ProgramGen:
        while True:
            yield Flush(handler_addr)
            yield Compute(poll_period)
            latency, stamp = yield from SharedArrayScenario.timed(
                Load(handler_addr)
            )
            probe_log.append((stamp, latency))
            if latency < threshold:
                hit_times.append(stamp)

    scenario.launch(Program("spy", attacker), Program("editor", victim))
    editor = scenario.victim_task
    scenario.run(
        max_steps=20_000_000, stop_when=lambda k: k.task_done(editor)
    )

    # Cluster consecutive hit polls into one recovered press event.
    recovered: List[int] = []
    for t in hit_times:
        if not recovered or t - recovered[-1] > 3 * poll_period:
            recovered.append(t)

    tolerance = 4 * poll_period
    matched = 0
    for press in true_press_times:
        if any(abs(press - r) <= tolerance + 400 for r in recovered):
            matched += 1
    return KeystrokeResult(
        true_press_times=true_press_times,
        recovered_times=recovered,
        probe_hits=len(hit_times),
        probe_total=len(probe_log),
        match_tolerance=tolerance,
        matched=matched,
        probe_log=probe_log,
    )
