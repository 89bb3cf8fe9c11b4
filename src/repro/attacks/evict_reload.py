"""Evict+reload: flush+reload without ``clflush``.

When the attacker cannot execute ``clflush`` (e.g. from a sandbox), it
evicts the shared target line by filling the line's LLC set with its own
private data (an *eviction set*), then reloads the target after the
victim runs.  TimeCache breaks the reload exactly as it breaks
flush+reload: after the victim refills the line, the attacker's reload is
a first access.

The eviction set is ``ways + 1`` of the attacker's own mapped lines whose
physical addresses collide with the target's LLC set
(:meth:`~repro.attacks.base.SharedArrayScenario.congruent_lines`), enough
to force the target out under LRU.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.attacks.base import AttackOutcome, SharedArrayScenario
from repro.common.config import SimConfig
from repro.cpu.isa import Exit, Load, SleepOp
from repro.cpu.program import Program, ProgramGen

WAIT_CYCLES = 20_000


def run_evict_reload(
    config: SimConfig,
    secret_indices: Sequence[int] = (5,),
    rounds: int = 4,
    monitored_line: Optional[int] = None,
) -> AttackOutcome:
    """Monitor one shared line via evict+reload.

    The attacker monitors ``monitored_line`` (default: the victim's first
    secret line); the victim touches its secret lines each round.
    ``probe_hits`` counts reload hits on the monitored line (baseline:
    one per round when the victim touches it, zero when it does not;
    TimeCache: always zero).
    """
    scenario = SharedArrayScenario(config, shared_lines=32)
    if monitored_line is None:
        monitored_line = secret_indices[0]
    secret_lines = [scenario.lines[index] for index in secret_indices]
    target = scenario.lines[monitored_line]
    ways = config.hierarchy.llc.ways
    eviction_set = scenario.congruent_lines(
        scenario.attacker_proc.address_space.translate(target),
        count=ways + 1,
        lines_per_set=ways + 3,
    )
    latencies: List[int] = []

    def attacker() -> ProgramGen:
        for _ in range(rounds):
            # evict: walk the congruent set twice so LRU definitely cycles
            for _rep in range(2):
                for vaddr in eviction_set:
                    yield Load(vaddr)
            yield SleepOp(WAIT_CYCLES)
            latency, _ = yield from SharedArrayScenario.timed(Load(target))
            latencies.append(latency)
        yield Exit()

    def victim_program() -> ProgramGen:
        # Touch the secret lines once per attacker round, sleeping in
        # between so activity spans the whole attack (a long-running
        # victim, like a crypto daemon handling periodic requests).
        for _ in range(rounds):
            for vaddr in secret_lines:
                for _rep in range(8):
                    yield Load(vaddr)
            yield SleepOp(WAIT_CYCLES)
        yield Exit()

    victim = Program("er_victim", victim_program)
    scenario.launch(Program("evict_reload", attacker), victim)
    scenario.run()
    hits = sum(1 for lat in latencies if scenario.classify(lat))
    return AttackOutcome(
        probe_hits=hits, probe_total=len(latencies), latencies=latencies
    )
