"""Record and replay operation traces.

A recorded trace decouples workload *generation* from *simulation*: the
same operation stream can be replayed against different configurations
(baseline vs TimeCache vs partitioning) or saved to disk for regression
experiments.  The format is line-oriented text — one op per line — so
traces diff cleanly and can be inspected or hand-written.

Format::

    L <vaddr-hex>     load
    S <vaddr-hex>     store
    I <vaddr-hex>     instruction fetch
    F <vaddr-hex>     clflush
    C <count>         compute burst
    T                 rdtsc
    B                 fence (barrier)
    Y                 sched_yield
    Z <cycles>        sleep
    X                 exit

A loaded trace runs as a program (:func:`trace_file_program`), through
the same CPU and OS layers as any other workload.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Union

from repro.common.errors import ProgramError
from repro.cpu.isa import (
    Compute,
    Exit,
    Fence,
    Flush,
    Ifetch,
    Load,
    Op,
    Rdtsc,
    SleepOp,
    Store,
    YieldOp,
)
from repro.cpu.program import Program, ProgramGen


def format_op(op: Op) -> str:
    """One trace line for one operation."""
    if isinstance(op, Load):
        return f"L {op.vaddr:x}"
    if isinstance(op, Store):
        return f"S {op.vaddr:x}"
    if isinstance(op, Ifetch):
        return f"I {op.vaddr:x}"
    if isinstance(op, Flush):
        return f"F {op.vaddr:x}"
    if isinstance(op, Compute):
        return f"C {op.instructions}"
    if isinstance(op, Rdtsc):
        return "T"
    if isinstance(op, Fence):
        return "B"
    if isinstance(op, YieldOp):
        return "Y"
    if isinstance(op, SleepOp):
        return f"Z {op.cycles}"
    if isinstance(op, Exit):
        return "X"
    raise ProgramError(f"cannot serialize {op!r}")


def parse_op(line: str) -> Op:
    """Inverse of :func:`format_op`; raises on malformed lines."""
    parts = line.split()
    if not parts:
        raise ProgramError("empty trace line")
    kind = parts[0]
    try:
        if kind == "L":
            return Load(int(parts[1], 16))
        if kind == "S":
            return Store(int(parts[1], 16))
        if kind == "I":
            return Ifetch(int(parts[1], 16))
        if kind == "F":
            return Flush(int(parts[1], 16))
        if kind == "C":
            return Compute(int(parts[1]))
        if kind == "T":
            return Rdtsc()
        if kind == "B":
            return Fence()
        if kind == "Y":
            return YieldOp()
        if kind == "Z":
            return SleepOp(int(parts[1]))
        if kind == "X":
            return Exit()
    except (IndexError, ValueError) as exc:
        raise ProgramError(f"malformed trace line {line!r}") from exc
    raise ProgramError(f"unknown trace op {kind!r}")


def record_program(program: Program, max_ops: int = 10_000_000) -> List[Op]:
    """Materialize a program's operation stream.

    Only valid for programs whose control flow does not depend on
    operation results (workload traces do; attackers that branch on
    measured latency do not — recording those raises).
    """
    ops: List[Op] = []
    gen = program.start()
    try:
        op = next(gen)
        while True:
            ops.append(op)
            if len(ops) > max_ops:
                raise ProgramError(
                    f"trace of {program.name} exceeds {max_ops} ops"
                )
            op = gen.send(None)
    except StopIteration:
        return ops


def save_trace(ops: Iterable[Op], path: Union[str, Path]) -> int:
    """Write a trace file; returns the number of ops written."""
    count = 0
    with open(path, "w") as handle:
        for op in ops:
            handle.write(format_op(op) + "\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> List[Op]:
    """Read a trace file back into operations (comments allowed: ``#``)."""
    ops: List[Op] = []
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            ops.append(parse_op(line))
    return ops


def trace_file_program(name: str, path: Union[str, Path]) -> Program:
    """A restartable program replaying a trace file."""
    ops = load_trace(path)

    def factory() -> ProgramGen:
        for op in ops:
            yield op

    return Program(name, factory)
