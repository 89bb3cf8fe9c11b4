"""A blocking, TimingSimpleCPU-style CPU layer.

Simulated programs are Python generators that yield :mod:`repro.cpu.isa`
operations and receive each operation's result back (memory results carry
the observed latency, ``Rdtsc`` returns the core-local cycle counter).
:class:`~repro.cpu.cpu.HardwareContext` executes one task at a time on one
hardware context, charging every instruction and memory latency to a
core-local cycle count — exactly the blocking model the paper evaluates
under gem5's TimingSimpleCPU.
"""

from repro.cpu.cpu import HardwareContext, StepEvent, StepOutcome
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
from repro.cpu.program import Program, trace_program

__all__ = [
    "Compute",
    "Exit",
    "Fence",
    "Flush",
    "HardwareContext",
    "Ifetch",
    "Load",
    "Op",
    "Program",
    "Rdtsc",
    "SleepOp",
    "StepEvent",
    "StepOutcome",
    "Store",
    "YieldOp",
    "trace_program",
]
