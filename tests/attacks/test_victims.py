"""Tests for the victim program library."""

from repro.cpu.isa import Compute, Exit, Load, Store
from repro.attacks.victim import (
    idle_victim,
    secret_indexed_victim,
    writer_victim,
)


LINES = [0x100000 + i * 64 for i in range(8)]


def ops_of(program):
    return list(program.start())


def test_writer_victim_covers_all_lines():
    ops = ops_of(writer_victim(LINES, repetitions=2))
    stores = [op for op in ops if isinstance(op, Store)]
    assert len(stores) == 16
    assert {op.vaddr for op in stores} == set(LINES)
    assert isinstance(ops[-1], Exit)


def test_secret_indexed_victim_touches_only_secret_lines():
    ops = ops_of(secret_indexed_victim(LINES, [3, 5], touches_per_index=4))
    loads = [op for op in ops if isinstance(op, Load)]
    assert {op.vaddr for op in loads} == {LINES[3], LINES[5]}
    assert len(loads) == 8
    assert any(isinstance(op, Compute) for op in ops)


def test_idle_victim_touches_nothing():
    ops = ops_of(idle_victim(cycles=100))
    assert not any(isinstance(op, (Load, Store)) for op in ops)
    compute = [op for op in ops if isinstance(op, Compute)]
    assert compute and compute[0].instructions == 100
