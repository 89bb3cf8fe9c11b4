"""Evict+time on shared memory (Section VII-D).

The attacker flushes a shared line and times the *victim's* execution: if
the victim uses the line, the flush adds a miss to its critical path.
The paper notes the attack "remains noisy and less practical unless the
attacker communicates with the victim to trigger and time a specific
access" — so the simulation models exactly that strongest case: a
request/response pattern where the attacker (client) triggers one victim
(server) round at a time and observes its duration.

On a single core the trigger is a ``sched_yield`` handshake: attacker
optionally flushes, yields; the victim runs one round and yields back.
The victim's round duration (rdtsc-bracketed, preemption-free) is what a
client would observe as response latency.

TimeCache does not remove this channel — the victim's own misses are real
work, and no reuse of another process's cache fill is involved.  The
channel only reveals *whether the victim uses the line at all*, not the
per-access reuse signal flush+reload provides.
"""

from __future__ import annotations

from typing import List

from repro.attacks.base import AttackOutcome, SharedArrayScenario
from repro.common.config import SimConfig
from repro.cpu.isa import Compute, Exit, Flush, Load, Rdtsc, YieldOp
from repro.cpu.program import Program, ProgramGen

MONITORED_LINE = 2
VICTIM_ROUND_CYCLES = 4_000


def run_evict_time(
    config: SimConfig,
    victim_uses_line: bool = True,
    rounds: int = 6,
) -> AttackOutcome:
    """Alternate flushed/clean victim rounds; compare their durations.

    ``extra['slowdown']`` is mean(flushed round) - mean(clean round); a
    positive value when the victim uses the line is the leak.
    """
    scenario = SharedArrayScenario(config, shared_lines=8)
    target = scenario.lines[MONITORED_LINE]
    flushed_rounds: List[int] = []
    clean_rounds: List[int] = []

    def attacker() -> ProgramGen:
        for r in range(rounds * 2):
            if r % 2 == 0:
                yield Flush(target)
            yield YieldOp()  # trigger: let the victim run one round
        yield Exit()

    def victim() -> ProgramGen:
        for r in range(rounds * 2):
            t0 = yield Rdtsc()
            if victim_uses_line:
                yield Load(target)
            yield Compute(VICTIM_ROUND_CYCLES)
            t1 = yield Rdtsc()
            (flushed_rounds if r % 2 == 0 else clean_rounds).append(t1 - t0)
            yield YieldOp()
        yield Exit()

    scenario.launch(
        Program("evict_time", attacker), Program("et_victim", victim)
    )
    scenario.run()
    mean_flushed = sum(flushed_rounds) / max(1, len(flushed_rounds))
    mean_clean = sum(clean_rounds) / max(1, len(clean_rounds))
    slowdown = mean_flushed - mean_clean
    return AttackOutcome(
        probe_hits=int(slowdown > config.hierarchy.latency.l2_hit),
        probe_total=1,
        latencies=flushed_rounds + clean_rounds,
        extra={
            "slowdown": slowdown,
            "mean_flushed": mean_flushed,
            "mean_clean": mean_clean,
        },
    )
