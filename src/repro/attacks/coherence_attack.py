"""Coherence attacks across cores (Section VII-B).

*Invalidate+transfer* (Irazoqui et al.): the attacker flushes a shared
line (invalidating it everywhere), waits, and reloads.  If the victim on
another core touched the line, the reload is serviced from the shared
LLC / a remote cache — much faster than DRAM — revealing the access.

The E-vs-S variant additionally distinguishes whether the remote copy was
*modified* (a cache-to-cache transfer has its own latency signature).

TimeCache closes both: the attacker's reload is a first access, and on
the first-access path the hierarchy releases the response only at DRAM
latency even when a cache or a remote owner could answer sooner
(``max(dram, transfer)`` — see
:meth:`repro.memsys.hierarchy.MemoryHierarchy._access_llc`).
"""

from __future__ import annotations

from typing import List

from repro.attacks.base import AttackOutcome, SharedArrayScenario
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.cpu.isa import Compute, Exit, Flush, Load, SleepOp, Store
from repro.cpu.program import Program, ProgramGen

WAIT_CYCLES = 15_000
MONITORED_LINE = 1


def run_invalidate_transfer(
    config: SimConfig,
    victim_touches: bool = True,
    victim_writes: bool = False,
    rounds: int = 6,
) -> AttackOutcome:
    """Cross-core invalidate+transfer on one shared line.

    Requires a 2-core configuration (attacker on context 0, victim on
    context 1).  ``victim_writes`` selects the E-vs-S flavor where the
    victim dirties the line in its private L1 so the attacker's reload
    needs a cache-to-cache transfer in the baseline.
    """
    if config.hierarchy.num_hw_contexts < 2:
        raise ConfigError("invalidate+transfer needs two hardware contexts")
    scenario = SharedArrayScenario(
        config, shared_lines=8, attacker_ctx=0, victim_ctx=1
    )
    target = scenario.lines[MONITORED_LINE]
    latencies: List[int] = []

    def attacker_program() -> ProgramGen:
        for _ in range(rounds):
            yield Flush(target)
            yield SleepOp(WAIT_CYCLES)
            latency, _ = yield from SharedArrayScenario.timed(Load(target))
            latencies.append(latency)
        yield Exit()

    def victim() -> ProgramGen:
        for _ in range(rounds * 4):
            if victim_touches:
                if victim_writes:
                    yield Store(target)
                else:
                    yield Load(target)
            yield Compute(WAIT_CYCLES // 4)
        yield Exit()

    scenario.launch(
        Program("invalidate_transfer", attacker_program),
        Program("coherence_victim", victim),
    )
    scenario.run()
    hits = sum(1 for lat in latencies if scenario.classify(lat))
    return AttackOutcome(
        probe_hits=hits, probe_total=len(latencies), latencies=latencies
    )
