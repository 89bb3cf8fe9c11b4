"""Victim programs whose memory accesses depend on a secret.

These are the generic victims the reuse attacks monitor: a process whose
access *pattern* over shared lines is indexed by secret data, so an
attacker who learns which shared lines were touched learns the secret.
A victim that touches shared lines takes their addresses
(``SharedArrayScenario.lines``) as a list, never the scenario itself.
(The RSA victim, whose secret-dependent footprint is instruction
fetches into a shared library, lives in :mod:`repro.attacks.rsa`.)
"""

from __future__ import annotations

from typing import Sequence

from repro.cpu.isa import Compute, Exit, Load, Store
from repro.cpu.program import Program, ProgramGen


def writer_victim(lines: Sequence[int], repetitions: int = 4) -> Program:
    """The Section VI-A1 microbenchmark victim: writes every shared line
    in ``lines`` repeatedly, pulling each into the cache."""

    def factory() -> ProgramGen:
        for _ in range(repetitions):
            for vaddr in lines:
                yield Store(vaddr)
        yield Exit()

    return Program("writer_victim", factory)


def secret_indexed_victim(
    lines: Sequence[int],
    secret_indices: Sequence[int],
    touches_per_index: int = 8,
) -> Program:
    """A victim that touches exactly the shared lines named by its secret.

    Models a lookup-table cipher or any data store where the address
    stream is keyed by confidential input: an attacker who learns the set
    of touched lines recovers ``secret_indices``.
    """

    def factory() -> ProgramGen:
        for index in secret_indices:
            for _ in range(touches_per_index):
                yield Load(lines[index])
            yield Compute(200)  # think time between secret lookups
        yield Exit()

    return Program("secret_indexed_victim", factory)


def idle_victim(cycles: int = 1000) -> Program:
    """A victim that computes without touching the shared lines — the
    control case: a correct attack must report *no* activity."""

    def factory() -> ProgramGen:
        yield Compute(cycles)
        yield Exit()

    return Program("idle_victim", factory)
