"""Prime+probe: the contention attack outside TimeCache's threat model.

The attacker primes an LLC set with its own lines, lets the victim run,
then probes its own lines: a slow probe means the victim displaced one,
revealing the *set* (not the line) the victim touched.  No shared memory
is involved, so TimeCache deliberately does not defend it — the paper
positions randomizing caches (CEASER, ScatterCache) as the complementary
defense and notes TimeCache composes with them.

We keep the attack here to demonstrate that threat-model boundary in the
test suite: prime+probe succeeds in the baseline *and* under TimeCache.
"""

from __future__ import annotations

from typing import List

from repro.attacks.base import AttackOutcome, SharedArrayScenario
from repro.common.config import SimConfig
from repro.cpu.isa import Compute, Exit, Load, SleepOp
from repro.cpu.program import Program, ProgramGen

VICTIM_PRIVATE_BASE = 0x7000000
WAIT_CYCLES = 20_000


def run_prime_probe(
    config: SimConfig,
    victim_active: bool = True,
    rounds: int = 4,
) -> AttackOutcome:
    """Prime an LLC set, let the victim run, probe for displacement.

    The victim touches a *private* (unshared) line that maps to the
    attacker's primed set when ``victim_active``; the attacker's probe
    latency reveals the contention.  ``extra['detected']`` reports
    whether the attacker saw any displaced line.
    """
    scenario = SharedArrayScenario(config, shared_lines=8)
    llc = config.hierarchy.llc

    # Victim private working line, not shared with the attacker.
    victim_seg = scenario.kernel.phys.allocate_segment(
        "victim_private", llc.num_sets * llc.line_bytes * 2
    )
    victim_space = scenario.victim_proc.address_space
    victim_space.map_segment(victim_seg, VICTIM_PRIVATE_BASE)

    # The attacker's lines congruent with the victim's secret line.
    victim_vaddr = VICTIM_PRIVATE_BASE
    prime_lines = scenario.congruent_lines(
        victim_space.translate(victim_vaddr),
        count=llc.ways,
        lines_per_set=llc.ways + 2,
    )
    latencies: List[int] = []

    def attacker() -> ProgramGen:
        for _ in range(rounds):
            for vaddr in prime_lines:  # prime
                yield Load(vaddr)
            yield SleepOp(WAIT_CYCLES)
            for vaddr in prime_lines:  # probe
                latency, _ = yield from SharedArrayScenario.timed(Load(vaddr))
                latencies.append(latency)
        yield Exit()

    def victim() -> ProgramGen:
        for _ in range(rounds * 8):
            if victim_active:
                yield Load(victim_vaddr)
            yield Compute(WAIT_CYCLES // 8)
        yield Exit()

    scenario.launch(
        Program("prime_probe", attacker), Program("pp_victim", victim)
    )
    scenario.run()
    misses = sum(1 for lat in latencies if not scenario.classify(lat))
    return AttackOutcome(
        probe_hits=len(latencies) - misses,
        probe_total=len(latencies),
        latencies=latencies,
        extra={"detected": misses > 0, "displaced_probes": misses},
    )
