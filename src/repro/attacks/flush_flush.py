"""Flush+flush (Gruss et al.): timing ``clflush`` instead of a reload.

``clflush`` completes faster when the line is *not* cached (it aborts
early), so flushing a shared line twice with a victim window in between
reveals whether the victim touched it — without the attacker ever loading
the line, which defeats reload-based defenses.

Section VII-C's mitigation is to make ``clflush`` constant-time
(performing a dummy writeback when the line is absent);
``TimeCacheConfig.constant_time_flush`` enables exactly that, and this
attack observes the channel disappear.
"""

from __future__ import annotations

from typing import List

from repro.attacks.base import AttackOutcome, SharedArrayScenario
from repro.attacks.victim import idle_victim, secret_indexed_victim
from repro.common.config import SimConfig
from repro.cpu.isa import Exit, Flush, SleepOp
from repro.cpu.program import Program, ProgramGen

WAIT_CYCLES = 15_000
MONITORED_LINE = 3


def run_flush_flush(
    config: SimConfig,
    victim_touches: bool = True,
    rounds: int = 8,
) -> AttackOutcome:
    """Time the second flush of a shared line around a victim window.

    A "hit" is a flush whose latency indicates the line was cached (the
    victim touched it).  With ``constant_time_flush`` every flush takes
    the same time, so the classification threshold can never separate the
    two cases.
    """
    scenario = SharedArrayScenario(config, shared_lines=16)
    lines = scenario.lines
    target = lines[MONITORED_LINE]
    lat_cfg = config.hierarchy.latency
    # Threshold between the uncached-abort latency and the cached latency.
    flush_threshold = (lat_cfg.flush_uncached + lat_cfg.flush_cached) / 2.0
    latencies: List[int] = []

    def attacker() -> ProgramGen:
        yield Flush(target)  # establish the flushed state
        for _ in range(rounds):
            yield SleepOp(WAIT_CYCLES)
            latency, _ = yield from SharedArrayScenario.timed(Flush(target))
            latencies.append(latency)
        yield Exit()

    if victim_touches:
        victim = secret_indexed_victim(lines, [MONITORED_LINE] * rounds * 4)
    else:
        victim = idle_victim(cycles=WAIT_CYCLES * rounds)
    scenario.launch(Program("flush_flush", attacker), victim)
    scenario.run()
    hits = sum(1 for lat in latencies if lat > flush_threshold)
    return AttackOutcome(
        probe_hits=hits,
        probe_total=len(latencies),
        latencies=latencies,
        extra={"flush_threshold": flush_threshold},
    )
