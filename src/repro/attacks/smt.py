"""Same-core hyperthread (SMT) attacks.

The paper's threat model explicitly covers an attacker "running on the
same core, on another hyperthread, or on another core."  On an SMT core
the attacker and victim share even the L1 caches, so the reuse channel
is available at the *fastest* cache level — and TimeCache's s-bits are
per *hardware context*, so the sibling hyperthread's first access is
delayed exactly like a cross-core one.

This module runs flush+reload between two hyperthreads of one physical
core (``threads_per_core = 2``), staged through
:class:`~repro.attacks.base.SharedArrayScenario` with the attacker on
context 0 and the victim on its sibling, context 1.
"""

from __future__ import annotations

from typing import List

from repro.attacks.base import AttackOutcome, SharedArrayScenario
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.cpu.isa import Compute, Exit, Flush, Load, Store
from repro.cpu.program import Program, ProgramGen


def run_smt_flush_reload(
    config: SimConfig,
    shared_lines: int = 32,
    rounds: int = 4,
    wait_cycles: int = 10_000,
    victim_active: bool = True,
) -> AttackOutcome:
    """Flush+reload between sibling hyperthreads sharing L1 and LLC.

    Requires ``threads_per_core >= 2``.  The attacker runs on hardware
    context 0, the victim on context 1 — the same physical core, so both
    contexts share L1I/L1D.  Baseline: the attacker's reload after the
    victim's store hits in the *L1* (the sharpest possible signal).
    TimeCache: every reload is a first access.

    ``victim_active=False`` keeps the sibling thread resident but idle
    (pure compute, never touching the shared buffer) — the control arm
    of the distinguishability game the tournament scores.
    """
    if config.hierarchy.threads_per_core < 2:
        raise ConfigError("SMT attack needs threads_per_core >= 2")
    scenario = SharedArrayScenario(
        config, shared_lines=shared_lines, attacker_ctx=0, victim_ctx=1
    )
    lines = scenario.lines
    latencies: List[int] = []

    def attacker() -> ProgramGen:
        for _ in range(rounds):
            for vaddr in lines:
                yield Flush(vaddr)
            yield Compute(wait_cycles)
            for vaddr in lines:
                latency, _ = yield from SharedArrayScenario.timed(Load(vaddr))
                latencies.append(latency)
        yield Exit()

    def victim() -> ProgramGen:
        # The sibling thread continuously works on the shared buffer —
        # or, in the control arm, burns the same cycles without it.
        for _ in range(rounds * 4):
            if victim_active:
                for vaddr in lines:
                    yield Store(vaddr)
            yield Compute(wait_cycles // 4)
        yield Exit()

    scenario.launch(
        Program("smt_spy", attacker), Program("smt_victim", victim)
    )
    spy = scenario.attacker_task
    scenario.run(stop_when=lambda k: k.task_done(spy), max_steps=10_000_000)
    hits = sum(1 for lat in latencies if scenario.classify(lat))
    return AttackOutcome(
        probe_hits=hits, probe_total=len(latencies), latencies=latencies
    )
