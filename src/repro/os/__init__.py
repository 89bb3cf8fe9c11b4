"""Simulated OS layer: processes, virtual memory, scheduling.

The paper's defense is hardware/software co-designed: trusted software
(the OS) saves and restores per-process s-bits at every context switch.
This package provides exactly the substrate the paper assumes:

* :mod:`repro.os.vm` — physical memory, page-granular address spaces,
  shared segments (shared libraries, kernel text, memory-mapped files)
  and content-deduplicated page sharing;
* :mod:`repro.os.process` — processes and tasks (threads) carrying their
  address space and TimeCache caching state;
* :mod:`repro.os.scheduler` — per-hardware-context round-robin run queues
  with a cycle quantum;
* :mod:`repro.os.kernel` — the simulation driver: steps the hardware
  context with the lowest local time (interleaving cores), enforces
  quanta, performs context switches (triggering the s-bit protocol), and
  collects per-task statistics.
"""

from repro.os.kernel import Kernel, RunSummary
from repro.os.process import Process, Task, TaskStatus
from repro.os.scheduler import RoundRobinScheduler
from repro.os.vm import AddressSpace, PhysicalMemory, Segment

__all__ = [
    "AddressSpace",
    "Kernel",
    "PhysicalMemory",
    "Process",
    "RoundRobinScheduler",
    "RunSummary",
    "Segment",
    "Task",
    "TaskStatus",
]
