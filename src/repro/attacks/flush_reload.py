"""Flush+reload attacks (Yarom & Falkner style).

Two entry points:

* :func:`run_microbenchmark_attack` — the paper's Section VI-A1
  functionality microbenchmark: a parent process flushes a 256-line
  shared memory-mapped array and sleeps; the child writes the array; the
  parent wakes and performs timed reads.  In the baseline every read is
  a hit (a fully leaking channel); with TimeCache the parent must see
  **zero** hits.

* :func:`run_spy_flush_reload` — a spy that recovers which shared lines a
  secret-indexed victim touched, demonstrating information recovery (not
  just raw hits) and its elimination under the defense.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.attacks.base import AttackOutcome, SharedArrayScenario
from repro.attacks.victim import secret_indexed_victim, writer_victim
from repro.common.config import SimConfig
from repro.cpu.isa import Exit, Flush, Load, SleepOp
from repro.cpu.program import Program, ProgramGen
from repro.obs.tracer import Tracer


def run_microbenchmark_attack(
    config: SimConfig,
    shared_lines: int = 256,
    victim_repetitions: int = 4,
    sleep_cycles: int = 200_000,
    tracer: Optional[Tracer] = None,
    sample_every: int = 0,
) -> AttackOutcome:
    """The Section VI-A1 parent/child microbenchmark.

    Returns the parent's probe outcome; ``AttackOutcome.probe_hits`` is
    the number of successful (hit-latency) reloads, each reload timed on
    its own by an rdtsc-fenced stanza.  With a ``tracer`` the
    flush/wait/probe phases are emitted as simulated-time spans.
    """
    scenario = SharedArrayScenario(
        config,
        shared_lines=shared_lines,
        tracer=tracer,
        sample_every=sample_every,
    )
    lines, phase = scenario.lines, scenario.phase
    latencies: List[int] = []

    def parent_program() -> ProgramGen:
        with phase("flush"):
            for vaddr in lines:
                yield Flush(vaddr)
        with phase("wait"):
            yield SleepOp(sleep_cycles)
        with phase("probe"):
            for vaddr in lines:
                latency, _ = yield from SharedArrayScenario.timed(Load(vaddr))
                latencies.append(latency)
        yield Exit()

    victim = writer_victim(lines, repetitions=victim_repetitions)
    scenario.launch(Program("flush_reload_parent", parent_program), victim)
    scenario.run()
    hits = sum(1 for lat in latencies if scenario.classify(lat))
    return AttackOutcome(
        probe_hits=hits, probe_total=len(latencies), latencies=latencies
    )


def run_spy_flush_reload(
    config: SimConfig,
    secret_indices: Sequence[int],
    shared_lines: int = 64,
    rounds: int = 6,
    wait_cycles: int = 30_000,
) -> AttackOutcome:
    """A spy recovering the victim's secret line set.

    The spy repeatedly flushes every monitored line, yields the CPU to
    let the victim run, then probes.  ``extra['recovered']`` holds the
    set of line indices the spy believes the victim touched; in the
    baseline it equals ``set(secret_indices)``, under TimeCache it must
    be empty.
    """
    scenario = SharedArrayScenario(config, shared_lines=shared_lines)
    lines, threshold = scenario.lines, scenario.threshold
    latencies: List[int] = []
    recovered: Set[int] = set()

    def spy() -> ProgramGen:
        for _ in range(rounds):
            for vaddr in lines:
                yield Flush(vaddr)
            yield SleepOp(wait_cycles)
            for i, vaddr in enumerate(lines):
                latency, _ = yield from SharedArrayScenario.timed(Load(vaddr))
                latencies.append(latency)
                if latency < threshold:
                    recovered.add(i)
        yield Exit()

    victim = secret_indexed_victim(lines, list(secret_indices) * rounds)
    scenario.launch(Program("flush_reload_spy", spy), victim)
    scenario.run()
    hits = sum(1 for lat in latencies if scenario.classify(lat))
    return AttackOutcome(
        probe_hits=hits,
        probe_total=len(latencies),
        latencies=latencies,
        extra={
            "recovered": recovered,
            "secret": set(secret_indices),
            "exact_recovery": recovered == set(secret_indices),
        },
    )
