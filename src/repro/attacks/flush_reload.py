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
from repro.cpu.isa import Exit, Fence, Flush, Load, Rdtsc, SleepOp
from repro.cpu.program import Program, ProgramGen
from repro.obs.tracer import Tracer


def _timed_probe(vaddr: int, latencies: List[int]) -> ProgramGen:
    """rdtsc-fenced timed load, like the real attack's measurement stanza."""
    t0 = yield Rdtsc()
    yield Fence()
    yield Load(vaddr)
    yield Fence()
    t1 = yield Rdtsc()
    # subtract the two fence cycles and the rdtsc cycle from the window
    latencies.append(t1 - t0 - 3)


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
    latencies: List[int] = []

    def parent_program() -> ProgramGen:
        with scenario.phase("flush"):
            for i in range(shared_lines):
                yield Flush(scenario.line_vaddr(i))
        with scenario.phase("wait"):
            yield SleepOp(sleep_cycles)
        with scenario.phase("probe"):
            for i in range(shared_lines):
                yield from _timed_probe(scenario.line_vaddr(i), latencies)
        yield Exit()

    victim = writer_victim(
        scenario.line_vaddr, shared_lines, repetitions=victim_repetitions
    )
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
    tracer: Optional[Tracer] = None,
    sample_every: int = 0,
) -> AttackOutcome:
    """A spy recovering the victim's secret line set.

    The spy repeatedly flushes every monitored line, yields the CPU to
    let the victim run, then probes.  ``extra['recovered']`` holds the
    set of line indices the spy believes the victim touched; in the
    baseline it equals ``set(secret_indices)``, under TimeCache it must
    be empty.
    """
    scenario = SharedArrayScenario(
        config,
        shared_lines=shared_lines,
        tracer=tracer,
        sample_every=sample_every,
    )
    latencies: List[int] = []
    recovered: Set[int] = set()

    def spy() -> ProgramGen:
        for _ in range(rounds):
            with scenario.phase("flush"):
                for i in range(shared_lines):
                    yield Flush(scenario.line_vaddr(i))
            with scenario.phase("wait"):
                yield SleepOp(wait_cycles)
            with scenario.phase("probe"):
                for i in range(shared_lines):
                    before = len(latencies)
                    yield from _timed_probe(scenario.line_vaddr(i), latencies)
                    if scenario.classify(latencies[before]):
                        recovered.add(i)
        yield Exit()

    victim = secret_indexed_victim(
        scenario.line_vaddr, list(secret_indices) * rounds
    )
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
