"""The simulation driver: dispatch, quanta, context switches, stepping.

:class:`Kernel` owns a :class:`~repro.core.timecache.TimeCacheSystem`, one
:class:`~repro.cpu.cpu.HardwareContext` per logical CPU, and a round-robin
scheduler.  It advances the machine by always stepping the busy hardware
context with the *lowest* core-local time (exact event ordering across
cores, the way a conservative discrete-event simulator would), enforcing
the quantum, and performing context switches.  Each step runs a whole
slice in one :meth:`~repro.cpu.cpu.HardwareContext.step` call: the ops
the context would run back to back until the quantum expires, another
context's time comes up, or, in a run something watches, the next stop
check is due.  When every busy context walks an op tape, one call runs
all of them, handing off between them in that same order, until one
exits or reaches its quantum end, or the stop check is due.  Every op
tape is translated to physical addresses once, when the kernel installs
it on a context at dispatch; a generator's addresses are translated op
by op.

A context switch is where the paper's software support runs: the kernel
calls :meth:`TimeCacheSystem.context_switch`, which saves the outgoing
task's s-bits, restores the incoming task's, and runs the timestamp
comparator; the returned bookkeeping cost plus the fixed switch cost is
charged to the incoming task's core-local time — mirroring how the paper
adds the measured 1.08 us DMA latency to each switch in gem5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.config import SimConfig
from repro.common.errors import ConfigError, SchedulerError, SimulationTimeout
from repro.core.timecache import TimeCacheSystem
from repro.cpu.cpu import HardwareContext, Peer, StepEvent
from repro.cpu.program import OpTape
from repro.os.process import Process, Task, TaskStatus
from repro.os.scheduler import RoundRobinScheduler
from repro.os.vm import PhysicalMemory


@dataclass
class RunSummary:
    """What a :meth:`Kernel.run` call produced."""

    steps: int
    context_switches: int
    per_task_instructions: Dict[str, int] = field(default_factory=dict)
    per_task_cycles: Dict[str, int] = field(default_factory=dict)
    per_ctx_local_time: Dict[int, int] = field(default_factory=dict)

    @property
    def total_instructions(self) -> int:
        return sum(self.per_task_instructions.values())

    @property
    def makespan(self) -> int:
        """Largest core-local completion time across contexts."""
        return max(self.per_ctx_local_time.values(), default=0)


class Kernel:
    """Simulated OS kernel driving the whole machine."""

    def __init__(self, config: SimConfig) -> None:
        config.validate()
        self.config = config
        self.system = TimeCacheSystem(config)
        self.phys = PhysicalMemory()
        n_ctx = config.hierarchy.num_hw_contexts
        self.contexts: List[HardwareContext] = [
            HardwareContext(i, self.system) for i in range(n_ctx)
        ]
        self.scheduler = RoundRobinScheduler(n_ctx, config.quantum_cycles)
        self._current: Dict[int, Optional[Task]] = {i: None for i in range(n_ctx)}
        #: task whose s-bits are live on each hw context (CR3 analogue)
        self._resident: Dict[int, Optional[int]] = {i: None for i in range(n_ctx)}
        self._slice_start: Dict[int, int] = {i: 0 for i in range(n_ctx)}
        #: contexts whose running task walks an op tape
        self._on_tape: Set[int] = set()
        self._dispatch_instr: Dict[int, int] = {i: 0 for i in range(n_ctx)}
        self._dispatch_time: Dict[int, int] = {i: 0 for i in range(n_ctx)}
        self.context_switches = 0
        self.tasks: List[Task] = []

    # ------------------------------------------------------------------
    # Setup API
    # ------------------------------------------------------------------
    def create_process(self, name: str) -> Process:
        from repro.os.vm import AddressSpace

        return Process(name, AddressSpace(name, self.phys))

    def fork_process(self, parent: Process, name: Optional[str] = None) -> Process:
        """Unix-style fork: the child shares every parent page copy-on-
        write.  Until a write breaks sharing, parent and child touch the
        same physical lines — exactly the sharing the paper's intro says
        TimeCache makes safe to exploit for memory savings.
        """
        from repro.os.vm import AddressSpace

        child_name = name if name is not None else f"{parent.name}.child"
        child = Process(child_name, AddressSpace(child_name, self.phys))
        # Mirror the parent's mappings page by page, COW-protected on
        # both sides for data; the model marks only the child COW and
        # leaves the parent in place (single-writer approximation).
        child.address_space.mirror_cow(parent.address_space)
        return child

    def submit(self, task: Task) -> None:
        """Admit a task to its (affinity) run queue."""
        ctx = self.scheduler.admit(task)
        task.affinity = ctx  # pin where it landed; no migration by default
        self.tasks.append(task)

    # ------------------------------------------------------------------
    # Dispatch / switch
    # ------------------------------------------------------------------
    def _dispatch(self, ctx_id: int) -> Optional[Task]:
        hw = self.contexts[ctx_id]
        task = self.scheduler.next_task(ctx_id, hw.local_time)
        if task is None:
            return None
        stream = task.generator()
        # Installed before the switch: a page fault on an op tape's
        # addresses raises here, before anything is charged or counted.
        hw.install(
            stream,
            task.translator(),
            task.pending_result,
            task.process.address_space,
        )
        if self._resident[ctx_id] != task.tid:
            cost = self.system.context_switch(
                self._resident[ctx_id], task.tid, ctx_id, now=hw.local_time
            )
            hw.local_time += self.config.context_switch_cycles + cost.total
            self._resident[ctx_id] = task.tid
            self.context_switches += 1
        if type(stream) is OpTape:
            self._on_tape.add(ctx_id)
        self._current[ctx_id] = task
        self._slice_start[ctx_id] = hw.local_time
        self._dispatch_instr[ctx_id] = hw.instructions
        self._dispatch_time[ctx_id] = hw.local_time
        return task

    def _undispatch(self, ctx_id: int) -> Task:
        hw = self.contexts[ctx_id]
        task = self._current[ctx_id]
        if task is None:
            raise SchedulerError(f"ctx{ctx_id}: nothing to undispatch")
        task.instructions += hw.instructions - self._dispatch_instr[ctx_id]
        task.cycles += hw.local_time - self._dispatch_time[ctx_id]
        task.pending_result = hw.uninstall()
        self._current[ctx_id] = None
        self._on_tape.discard(ctx_id)
        return task

    # ------------------------------------------------------------------
    # The stepping loop
    # ------------------------------------------------------------------
    def _pick_context(self) -> Tuple[Optional[int], Optional[int]]:
        """The busy context with the lowest core-local time (the first
        one on a tie), and the time at which another busy context would
        be picked instead (``None`` when no other context is busy).

        While the picked context runs, nothing else moves, so it stays
        picked below every lower-indexed busy context's time and at or
        below every higher-indexed one's.
        """
        current = self._current
        pending = self.scheduler.pending
        best: Optional[int] = None
        best_time = 0
        bound: Optional[int] = None
        for ctx_id, hw in enumerate(self.contexts):
            if current[ctx_id] is None and pending(ctx_id) == 0:
                continue  # idle: no running task, none queued or asleep
            now = hw.local_time
            if best is None:
                best, best_time = ctx_id, now
            elif now < best_time:
                # every context seen so far is lower-indexed and no earlier
                best, best_time, bound = ctx_id, now, best_time
            elif bound is None or now + 1 < bound:
                bound = now + 1
        return best, bound

    def _quantum_bound(self, ctx_id: int) -> Optional[int]:
        """The context's quantum end if tasks are queued or asleep behind
        its running one (the count cannot change while it runs), else
        ``None``: nobody to preempt for."""
        if self.scheduler.pending(ctx_id) > 0:
            return self._slice_start[ctx_id] + self.scheduler.quantum_cycles
        return None

    def _tape_peers(self, ctx_id: int) -> Optional[List[Peer]]:
        """Every other busy context with its quantum bound, if each of
        them walks an op tape; ``None`` if one runs a generator or waits
        to be dispatched."""
        peers: List[Peer] = []
        for other, task in self._current.items():
            if other == ctx_id:
                continue
            if task is None:
                if self.scheduler.pending(other) > 0:
                    return None
            elif other in self._on_tape:
                peers.append((self.contexts[other], self._quantum_bound(other)))
            else:
                return None
        return peers

    def instructions_executed(self) -> int:
        """Instructions retired so far, including the running slices."""
        total = sum(t.instructions for t in self.tasks)
        for ctx_id, task in self._current.items():
            if task is not None:
                hw = self.contexts[ctx_id]
                total += hw.instructions - self._dispatch_instr[ctx_id]
        return total

    def run(
        self,
        max_steps: int = 50_000_000,
        stop_when: Optional[Callable[["Kernel"], bool]] = None,
        stop_check_interval: int = 256,
        wall_clock_budget_s: Optional[float] = None,
        instruction_budget: Optional[int] = None,
    ) -> RunSummary:
        """Run until every task exits, ``stop_when`` fires, or ``max_steps``.

        ``stop_when`` is evaluated every ``stop_check_interval`` steps so
        open-ended programs (a looping attacker) can be stopped once the
        interesting task (the victim) finishes.

        ``wall_clock_budget_s`` / ``instruction_budget`` arm the watchdog:
        unlike ``max_steps`` (which truncates silently), exceeding either
        budget raises :class:`SimulationTimeout` so a sweep runner can
        record the failure and move on (checked every
        ``stop_check_interval`` steps, like ``stop_when``; an op makes at
        most one memory access, so a budget overshoots by at most one
        interval's ops).  An interval
        below 1 is a :class:`ConfigError`, raised before the first step.
        A negative budget is one too; a budget of 0 is allowed.

        A run with ``stop_when`` or either budget is *watched*: its
        slices end at every ``stop_check_interval`` step boundary, so
        the checks see the machine after exactly those step counts.  An
        unwatched run has nothing to check, and a slice ends only where
        the kernel must decide: an exit, a yield or sleep, a quantum end
        with tasks waiting, another context's turn, or ``max_steps``.
        """
        if stop_check_interval < 1:
            raise ConfigError(
                f"stop_check_interval must be >= 1, got {stop_check_interval}"
            )
        if wall_clock_budget_s is not None and wall_clock_budget_s < 0:
            raise ConfigError(
                f"wall_clock_budget_s must be >= 0, got {wall_clock_budget_s}"
            )
        if instruction_budget is not None and instruction_budget < 0:
            raise ConfigError(
                f"instruction_budget must be >= 0, got {instruction_budget}"
            )
        deadline = (
            time.monotonic() + wall_clock_budget_s
            if wall_clock_budget_s is not None
            else None
        )
        watched = (
            stop_when is not None
            or deadline is not None
            or instruction_budget is not None
        )
        quantum = self.scheduler.quantum_cycles
        steps = 0
        while steps < max_steps:
            if watched and steps % stop_check_interval == 0:
                if stop_when is not None and stop_when(self):
                    break
                if deadline is not None and time.monotonic() > deadline:
                    raise SimulationTimeout(
                        f"wall-clock budget {wall_clock_budget_s}s exceeded "
                        f"after {steps} steps"
                    )
                if (
                    instruction_budget is not None
                    and self.instructions_executed() > instruction_budget
                ):
                    raise SimulationTimeout(
                        f"instruction budget {instruction_budget} exceeded "
                        f"after {steps} steps"
                    )
            ctx_id, until = self._pick_context()
            if ctx_id is None:
                break  # machine fully idle: all tasks exited
            hw = self.contexts[ctx_id]
            task = self._current[ctx_id]
            if task is None:
                task = self._dispatch(ctx_id)
                if task is None:
                    # Only sleepers remain on this queue: skid the core's
                    # clock forward to the earliest wake time.
                    wake = self.scheduler.earliest_wake(ctx_id)
                    if wake is None:
                        raise SchedulerError(
                            f"ctx{ctx_id} claims work but has none"
                        )
                    hw.local_time = max(hw.local_time, wake)
                    continue
            # One slice: every op this context runs before its quantum
            # expires (if anyone waits), another context's turn comes, or
            # the next stop check is due (in a watched run).
            budget = max_steps - steps
            if watched:
                budget = min(
                    budget, stop_check_interval - steps % stop_check_interval
                )
            peers = self._tape_peers(ctx_id) if ctx_id in self._on_tape else None
            if peers is None:
                quantum_end = self._slice_start[ctx_id] + quantum
                if until is None or quantum_end < until:
                    if self.scheduler.pending(ctx_id) > 0:
                        until = quantum_end
                outcome = hw.step(budget, until)
            else:
                # Every busy context walks a tape: one call runs their
                # slices in turn, and names the context to decide for.
                outcome = hw.step(budget, self._quantum_bound(ctx_id), peers)
                ctx_id = outcome.ctx
                hw = self.contexts[ctx_id]
            steps += outcome.ops
            event = outcome.event
            if event is StepEvent.RUNNING:
                if (
                    hw.local_time >= self._slice_start[ctx_id] + quantum
                    and self.scheduler.pending(ctx_id) > 0
                ):
                    preempted = self._undispatch(ctx_id)
                    self.scheduler.requeue(preempted, ctx_id)
                continue
            if event is StepEvent.YIELDED:
                yielded = self._undispatch(ctx_id)
                self.scheduler.requeue(yielded, ctx_id)
                continue
            if event is StepEvent.SLEEPING:
                sleeper = self._undispatch(ctx_id)
                assert outcome.wake_at is not None
                self.scheduler.put_to_sleep(sleeper, ctx_id, outcome.wake_at)
                continue
            if event is StepEvent.EXITED:
                finished = self._undispatch(ctx_id)
                finished.exit()
                continue
            raise SchedulerError(f"unhandled step event {event}")
        return self._summary(steps)

    def _summary(self, steps: int) -> RunSummary:
        summary = RunSummary(steps=steps, context_switches=self.context_switches)
        for task in self.tasks:
            summary.per_task_instructions[task.name] = task.instructions
            summary.per_task_cycles[task.name] = task.cycles
        for ctx_id, hw in enumerate(self.contexts):
            summary.per_ctx_local_time[ctx_id] = hw.local_time
        return summary

    # ------------------------------------------------------------------
    def task_done(self, task: Task) -> bool:
        return task.status is TaskStatus.EXITED

    def all_done(self) -> bool:
        return all(t.status is TaskStatus.EXITED for t in self.tasks)
