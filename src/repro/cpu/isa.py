"""Operations a simulated program can yield to the CPU.

The "ISA" is deliberately small: the attacks and workloads in the paper
need memory accesses (loads, stores, instruction fetches), ``clflush``,
timing reads (``rdtsc``), fences, fixed-cost computation, and the
scheduling calls (yield/sleep/exit) the microbenchmark attack uses.

Every operation is a tiny ``__slots__`` object; the CPU dispatches on
type.  Memory operations take *virtual* addresses — the current task's
address space translates them, which is how two processes mapping the
same shared library reach the same physical lines.
"""

from __future__ import annotations


class Op:
    """Base class for all operations (useful for isinstance checks)."""

    __slots__ = ()


class Load(Op):
    """Read one byte-addressed location (data cache path)."""

    __slots__ = ("vaddr",)

    def __init__(self, vaddr: int) -> None:
        self.vaddr = vaddr

    def __repr__(self) -> str:  # pragma: no cover
        return f"Load({self.vaddr:#x})"


class Store(Op):
    """Write one location (write-allocate, write-back)."""

    __slots__ = ("vaddr",)

    def __init__(self, vaddr: int) -> None:
        self.vaddr = vaddr

    def __repr__(self) -> str:  # pragma: no cover
        return f"Store({self.vaddr:#x})"


class Ifetch(Op):
    """Fetch instructions from a code address (instruction cache path).

    Programs yield these explicitly for the code footprints that matter —
    e.g. the RSA victim's square/multiply/reduce functions."""

    __slots__ = ("vaddr",)

    def __init__(self, vaddr: int) -> None:
        self.vaddr = vaddr

    def __repr__(self) -> str:  # pragma: no cover
        return f"Ifetch({self.vaddr:#x})"


class Flush(Op):
    """clflush: evict the line from every cache level."""

    __slots__ = ("vaddr",)

    def __init__(self, vaddr: int) -> None:
        self.vaddr = vaddr

    def __repr__(self) -> str:  # pragma: no cover
        return f"Flush({self.vaddr:#x})"


class Compute(Op):
    """``instructions`` one-cycle ALU instructions with no memory traffic."""

    __slots__ = ("instructions",)

    def __init__(self, instructions: int = 1) -> None:
        if instructions <= 0:
            raise ValueError(f"Compute needs >= 1 instruction, got {instructions}")
        self.instructions = instructions

    def __repr__(self) -> str:  # pragma: no cover
        return f"Compute({self.instructions})"


class Rdtsc(Op):
    """Read the core-local cycle counter; the result is the counter value.

    The attacker brackets a probe load between two of these, like the
    fenced ``rdtsc`` pairs in the real flush+reload attack."""

    __slots__ = ()


class Fence(Op):
    """Ordering fence.  The blocking CPU is already fully ordered, so this
    only costs a cycle — it exists so attack code reads like the real
    thing (timed loads must be fenced against speculation)."""

    __slots__ = ()


class YieldOp(Op):
    """sched_yield: give up the rest of the quantum."""

    __slots__ = ()


class SleepOp(Op):
    """Block for at least ``cycles`` core-local cycles."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles <= 0:
            raise ValueError(f"SleepOp needs positive cycles, got {cycles}")
        self.cycles = cycles

    def __repr__(self) -> str:  # pragma: no cover
        return f"SleepOp({self.cycles})"


class Exit(Op):
    """Terminate the task."""

    __slots__ = ()
