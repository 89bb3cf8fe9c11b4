"""Spectre-style leak through the reuse covert channel (Section VIII).

Spectre variants leak *speculatively* loaded secrets through a
conventional cache covert channel — the paper's argument is that "by
breaking conventional cache attacks, we also prevent speculative side
channel leaks", because the transmit end of every Spectre attack is
exactly the flush+reload reuse channel TimeCache eliminates.

The blocking CPU model has no speculation engine, so the *transient*
part is modeled explicitly: the victim gadget performs the squashed
bounds-violating access as a microarchitectural-only load (its value is
discarded — precisely what a mispredicted path does to the cache).  The
secret byte indexes a 256-line shared probe array; the attacker recovers
the byte with flush+reload over the array.

Under TimeCache the attacker's reloads are all first accesses: the
covert channel's receive end reads nothing, so the speculative leak
dies at transmission — the paper's Section VIII claim, end to end.

The probe array is the shared segment of a
:class:`~repro.attacks.base.SharedArrayScenario`, with the receiver on
context 0 and the gadget on context 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.attacks.base import SharedArrayScenario
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.cpu.isa import Compute, Exit, Flush, Load
from repro.cpu.program import Program, ProgramGen

PROBE_LINES = 256


@dataclass
class SpectreResult:
    """Outcome of the Spectre-style covert-channel run."""

    secret: int
    recovered: Optional[int]
    probe_hits: int
    latencies: List[int]

    @property
    def leaked(self) -> bool:
        return self.recovered == self.secret


def run_spectre_covert_channel(
    config: SimConfig,
    secret: int = 0x5A,
    rounds: int = 3,
    wait_cycles: int = 40_000,
) -> SpectreResult:
    """Leak one secret byte through a speculatively-touched shared line.

    Attacker on context 0 flushes the 256-line probe array and waits; the
    victim on context 1 executes the gadget (the transient, value-
    discarding load of ``probe[secret * 64]``); the attacker reloads all
    256 lines and takes the hit index as the secret byte.
    """
    if not 0 <= secret < PROBE_LINES:
        raise ConfigError(f"secret byte out of range: {secret}")
    if config.hierarchy.num_hw_contexts < 2:
        raise ConfigError("the Spectre demo needs two hardware contexts")
    scenario = SharedArrayScenario(
        config, shared_lines=PROBE_LINES, attacker_ctx=0, victim_ctx=1
    )
    probe, threshold = scenario.lines, scenario.threshold
    secret_line = probe[secret]
    latencies: List[int] = []
    hit_votes: List[int] = []

    def attacker() -> ProgramGen:
        for _ in range(rounds):
            for vaddr in probe:
                yield Flush(vaddr)
            yield Compute(wait_cycles)
            for i, vaddr in enumerate(probe):
                latency, _ = yield from SharedArrayScenario.timed(Load(vaddr))
                latencies.append(latency)
                if latency < threshold:
                    hit_votes.append(i)
        yield Exit()

    def victim_gadget() -> ProgramGen:
        # if (x < bounds) { y = probe[secret_byte * line]; }  -- with a
        # mispredicted branch: the load executes transiently and its
        # value is squashed, but the line is now cached.
        while True:
            yield Compute(wait_cycles // 8)
            yield Load(secret_line)  # transient load
            # (squash: the architectural result is discarded)

    scenario.launch(
        Program("spectre_recv", attacker),
        Program("spectre_gadget", victim_gadget),
    )
    receiver = scenario.attacker_task
    scenario.run(
        stop_when=lambda k: k.task_done(receiver), max_steps=20_000_000
    )

    recovered: Optional[int] = None
    if hit_votes:
        recovered = max(set(hit_votes), key=hit_votes.count)
    return SpectreResult(
        secret=secret,
        recovered=recovered,
        probe_hits=len(hit_votes),
        latencies=latencies,
    )
