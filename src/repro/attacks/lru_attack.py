"""LRU-state attack (Section VII-A, after Xiong & Szefer).

The attacker builds an eviction set for the LLC set holding a shared line
``l``, accesses ``l`` and then ``w-1`` congruent lines (so ``l`` is the
LRU candidate), waits for the victim, and finally accesses one more
congruent line to force an eviction.  If the victim touched ``l`` in the
window, the LRU refresh spares it and the attacker's timed re-access of
``l`` hits; otherwise ``l`` was the victim of the forced eviction and the
re-access misses.

TimeCache does **not** close this channel — the attacker touched ``l``
itself, so its s-bit is set and a surviving line hits legitimately.  The
paper assigns this (like every eviction-set attack) to randomizing-cache
defenses; this module exists to demonstrate that boundary.
"""

from __future__ import annotations

from typing import List

from repro.attacks.base import AttackOutcome, SharedArrayScenario
from repro.common.config import SimConfig
from repro.cpu.isa import Compute, Exit, Load, SleepOp
from repro.cpu.program import Program, ProgramGen

WAIT_CYCLES = 10_000


def run_lru_attack(
    config: SimConfig,
    victim_touches: bool = True,
    rounds: int = 6,
) -> AttackOutcome:
    """One monitored shared line, LRU-forced eviction, timed re-access.

    ``probe_hits`` counts rounds where the re-access hit — i.e. rounds
    the attacker concludes the victim touched the line.
    """
    scenario = SharedArrayScenario(config, shared_lines=4)
    target = scenario.lines[0]
    ways = config.hierarchy.llc.ways
    congruent = scenario.congruent_lines(
        scenario.attacker_proc.address_space.translate(target),
        count=ways,
        lines_per_set=ways + 4,
    )
    latencies: List[int] = []

    def attacker() -> ProgramGen:
        for _ in range(rounds):
            yield Load(target)  # l becomes MRU, attacker s-bit set
            for vaddr in congruent[:-1]:  # fill w-1 ways; l is now LRU
                yield Load(vaddr)
            yield SleepOp(WAIT_CYCLES)  # victim window
            yield Load(congruent[-1])  # force one eviction in the set
            latency, _ = yield from SharedArrayScenario.timed(Load(target))
            latencies.append(latency)
        yield Exit()

    def victim() -> ProgramGen:
        for _ in range(rounds * 4):
            if victim_touches:
                yield Load(target)
            yield Compute(WAIT_CYCLES // 4)
        yield Exit()

    scenario.launch(Program("lru_attack", attacker), Program("lru_victim", victim))
    scenario.run()
    hits = sum(1 for lat in latencies if scenario.classify(lat))
    return AttackOutcome(
        probe_hits=hits, probe_total=len(latencies), latencies=latencies
    )
