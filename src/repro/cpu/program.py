"""Programs: generator-based simulated code, and open-loop op tapes.

A *program* is a zero-argument callable returning a generator that yields
:mod:`repro.cpu.isa` operations and receives each operation's result via
``send``.  :class:`Program` names the callable; :func:`trace_program`
turns a pre-computed operation list (a trace) into a program.

A program that never reads an op's result (an *open-loop* program: the
SPEC and PARSEC workload streams, whose timing decides when they run but
never what they issue) can instead be an :class:`OpTape`: its ops laid
out once in two flat arrays and walked by index.  The CPU runs a tape
without a ``send`` per op; everything else reads it as a generator that
yields the same ops.  Attackers, victims and every other program whose
control flow depends on results stay generators.

The walk reads a tape's addresses already translated: the task's address
space fills :attr:`OpTape.translations` with one physical copy of the
arguments per page layout (:meth:`repro.os.vm.AddressSpace.physical_args`),
shared by every walker of the tape, so the baseline and TimeCache runs of
one experiment translate each tape once.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Union

import numpy as np

from repro.common.errors import ProgramError
from repro.cpu.isa import Compute, Exit, Ifetch, Load, Op, Store

#: op tape kind codes, one byte per op; ``_DECODE`` maps each to its op
TAPE_LOAD, TAPE_STORE, TAPE_IFETCH, TAPE_COMPUTE, TAPE_EXIT = range(5)
_TAPE_CODES = bytes(range(5))


def _exit_op(arg: int) -> Exit:
    return Exit()


#: kind code -> the op its argument decodes to
_DECODE = (Load, Store, Ifetch, Compute, _exit_op)


class OpTape:
    """An open-loop program's ops as two flat arrays, walked by index.

    ``kinds[i]`` is op ``i``'s kind code (``TAPE_LOAD`` ... ``TAPE_EXIT``,
    one byte) and ``args[i]`` its argument (int64): the virtual address of
    a load, store or instruction fetch, the instruction count of a
    compute burst (at least 1, as :class:`~repro.cpu.isa.Compute`
    requires), 0 for the exit — 9 bytes per op.  A tape ends with its
    exit.  ``pos`` is the index of the next op; it stays on the tape
    between the CPU's slices.  ``translations`` holds what address spaces
    computed from the arrays (the physical arguments per page layout),
    shared, like the arrays, by every walker of the tape.

    The tape also speaks the generator protocol: ``next`` and ``send``
    (which ignores its value, as an open-loop program does) decode the
    next op into the :mod:`~repro.cpu.isa` object a generator would have
    yielded, and raise ``StopIteration`` past the exit.
    """

    __slots__ = ("kinds", "args", "pos", "translations")

    def __init__(self, kinds: bytearray, args: array) -> None:
        if args.typecode != "q" or len(kinds) != len(args):
            raise ProgramError(
                f"an op tape needs one int64 argument per kind code, got "
                f"{len(kinds)} codes and {len(args)} {args.typecode!r} args"
            )
        if not kinds or kinds[-1] != TAPE_EXIT:
            raise ProgramError("an op tape must end with its exit")
        if kinds.translate(None, _TAPE_CODES):
            raise ProgramError(f"op tape kind codes must be 0..{TAPE_EXIT}")
        # whole-array passes, not one Python step per op
        values = np.frombuffer(args, dtype=np.int64)
        bad = (np.frombuffer(kinds, dtype=np.uint8) == TAPE_COMPUTE) & (values < 1)
        if bad.any():
            raise ProgramError(
                f"op tape compute bursts must be >= 1, got {values[bad].min()}"
            )
        self.kinds = kinds
        self.args = args
        self.pos = 0
        self.translations: Dict[int, Any] = {}

    def rewound(self) -> "OpTape":
        """A walker from the first op, sharing this tape's arrays (checked
        when this tape was built, so not again) and translations."""
        walker = object.__new__(OpTape)
        walker.kinds = self.kinds
        walker.args = self.args
        walker.pos = 0
        walker.translations = self.translations
        return walker

    def __iter__(self) -> "OpTape":
        return self

    def __next__(self) -> Op:
        pos = self.pos
        if pos >= len(self.kinds):
            raise StopIteration
        self.pos = pos + 1
        return _DECODE[self.kinds[pos]](self.args[pos])

    def send(self, value: object) -> Op:
        return self.__next__()

    def __repr__(self) -> str:  # pragma: no cover
        return f"OpTape({len(self.kinds)} ops, pos={self.pos})"


#: what the CPU sends back into the generator after each op
ProgramGen = Generator[Op, object, None]
#: what a program's start returns: a generator or a tape
OpStream = Union[ProgramGen, OpTape]


class Program:
    """A named generator (or tape) factory, restartable for repeated runs."""

    def __init__(self, name: str, factory: Callable[[], OpStream]) -> None:
        self.name = name
        self._factory = factory

    def start(self) -> OpStream:
        """Instantiate a fresh generator (or tape walker) for one execution."""
        return self._factory()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Program({self.name!r})"


def tape_program(name: str, tape: OpTape) -> Program:
    """A program walking ``tape`` from its first op on every start.

    Starts share the tape's arrays, so one emitted tape serves every run
    of the program (a baseline run and a TimeCache run of one
    experiment).
    """
    return Program(name, tape.rewound)


def trace_program(name: str, ops: Iterable[Op]) -> Program:
    """A program that replays a fixed operation sequence.

    The ops are materialized once so the program can be restarted (e.g. a
    baseline run and a TimeCache run over the identical trace).
    """
    materialized: List[Op] = list(ops)

    def factory() -> ProgramGen:
        for op in materialized:
            yield op

    return Program(name, factory)


def looping_program(
    name: str,
    make_ops: Callable[[int], Iterable[Op]],
    iterations: Optional[int] = None,
) -> Program:
    """A program generating ops lazily, iteration by iteration.

    ``make_ops(i)`` produces the ops of iteration ``i``; ``iterations``
    bounds the loop (None = run until the scheduler's instruction budget
    stops the task).
    """

    def factory() -> ProgramGen:
        i = 0
        while iterations is None or i < iterations:
            for op in make_ops(i):
                yield op
            i += 1

    return Program(name, factory)
