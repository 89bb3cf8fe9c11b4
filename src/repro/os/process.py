"""Processes and tasks (threads).

A :class:`Process` owns an address space; its :class:`Task` objects are
the schedulable entities.  Two tasks of one process share the address
space (the PARSEC configuration: 2 threads on 2 cores) while two separate
processes can still share *physical* pages through shared segments (the
SPEC configuration: 2 processes time-sliced on 1 core sharing libc and
kernel text).

Each task carries its own :class:`~repro.core.sbits.TaskCachingState`:
s-bits are per *hardware context*, so each thread of a process has its own
saved caching context — exactly why the paper's PARSEC runs see
first-access misses at the shared LLC but not at the private L1s.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.common.errors import SchedulerError
from repro.cpu.program import OpStream, Program
from repro.os.vm import AddressSpace


class TaskStatus(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"
    EXITED = "exited"


class Process:
    """A protection domain: one address space, one or more tasks."""

    _next_pid = 1

    def __init__(self, name: str, address_space: AddressSpace) -> None:
        self.pid = Process._next_pid
        Process._next_pid += 1
        self.name = name
        self.address_space = address_space

    def spawn(
        self, program: Program, affinity: Optional[int] = None
    ) -> "Task":
        """Create a task running ``program``, optionally pinned to a
        hardware context.  The task refers to its process, never the
        other way round, so neither keeps the other alive in a cycle."""
        return Task(self, program, affinity)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Process(pid={self.pid}, name={self.name!r})"


class Task:
    """A schedulable thread of a process."""

    _next_tid = 1

    def __init__(
        self, process: Process, program: Program, affinity: Optional[int]
    ) -> None:
        self.tid = Task._next_tid
        Task._next_tid += 1
        self.process = process
        self.program = program
        #: hardware context the task is pinned to (None = any)
        self.affinity = affinity
        self.status = TaskStatus.READY
        #: core-local wake time when SLEEPING
        self.wake_at: Optional[int] = None
        self._gen: Optional[OpStream] = None
        #: result of the task's last op, owed to its generator when the
        #: task was switched out right after that op
        self.pending_result: object = None
        #: instructions retired by this task (accumulated by the kernel)
        self.instructions = 0
        #: cycles this task has been charged (run time + switch costs)
        self.cycles = 0

    @property
    def name(self) -> str:
        return f"{self.process.name}/{self.program.name}#{self.tid}"

    def generator(self) -> OpStream:
        """The task's live generator (or tape walker), created on first
        schedule."""
        if self._gen is None:
            self._gen = self.program.start()
        return self._gen

    def translate(self, vaddr: int) -> int:
        return self.process.address_space.translate(vaddr)

    def translator(self) -> Callable[[int], int]:
        return self.process.address_space.translate

    def exit(self) -> None:
        self.status = TaskStatus.EXITED
        self._gen = None

    def assert_runnable(self) -> None:
        if self.status is TaskStatus.EXITED:
            raise SchedulerError(f"task {self.name} has exited")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Task({self.name}, {self.status.value})"
