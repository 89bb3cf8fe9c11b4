"""Per-hardware-context round-robin run queues.

The paper's single-core experiments time-slice two processes on one core;
the scheduler reproduces that with a cycle quantum per task.  Each
hardware context has its own queue (tasks are pinned by affinity, like
``taskset`` in the paper's methodology); the kernel asks the scheduler
who runs next whenever a quantum expires, a task yields, sleeps, or
exits.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.common.errors import SchedulerError
from repro.os.process import Task, TaskStatus


class RoundRobinScheduler:
    """FIFO run queues, one per hardware context, with sleep handling."""

    def __init__(self, num_contexts: int, quantum_cycles: int) -> None:
        if num_contexts <= 0:
            raise SchedulerError("need at least one hardware context")
        if quantum_cycles <= 0:
            raise SchedulerError("quantum must be positive")
        self.num_contexts = num_contexts
        self.quantum_cycles = quantum_cycles
        self._queues: Dict[int, Deque[Task]] = {
            ctx: deque() for ctx in range(num_contexts)
        }
        self._sleeping: Dict[int, List[Task]] = {
            ctx: [] for ctx in range(num_contexts)
        }
        #: observers (repro.obs), called in list order after each queue
        #: transition as ``(event, tid, ctx, local_time)`` with event one
        #: of "admit", "dispatch", "requeue", "sleep", "wake"; the time is
        #: -1 where the scheduler has no clock (admit/requeue).
        self.event_listeners: List[Callable[[str, int, int, int], None]] = []

    # ------------------------------------------------------------------
    def admit(self, task: Task, ctx: Optional[int] = None) -> int:
        """Enqueue a task; returns the context it was placed on."""
        task.assert_runnable()
        target = task.affinity if task.affinity is not None else ctx
        if target is None:
            # place on the least-loaded queue
            target = min(self._queues, key=lambda c: len(self._queues[c]))
        if not 0 <= target < self.num_contexts:
            raise SchedulerError(f"context {target} out of range")
        task.status = TaskStatus.READY
        self._queues[target].append(task)
        if self.event_listeners:
            for listener in self.event_listeners:
                listener("admit", task.tid, target, -1)
        return target

    def next_task(self, ctx: int, local_time: int) -> Optional[Task]:
        """Pop the next runnable task for ``ctx`` (waking sleepers first)."""
        self._wake_sleepers(ctx, local_time)
        queue = self._queues[ctx]
        while queue:
            task = queue.popleft()
            if task.status is TaskStatus.EXITED:
                continue
            task.status = TaskStatus.RUNNING
            if self.event_listeners:
                for listener in self.event_listeners:
                    listener("dispatch", task.tid, ctx, local_time)
            return task
        return None

    def requeue(self, task: Task, ctx: int) -> None:
        """Put a preempted/yielding task at the back of its queue."""
        if task.status is TaskStatus.EXITED:
            return
        task.status = TaskStatus.READY
        self._queues[ctx].append(task)
        if self.event_listeners:
            for listener in self.event_listeners:
                listener("requeue", task.tid, ctx, -1)

    def put_to_sleep(self, task: Task, ctx: int, wake_at: int) -> None:
        task.status = TaskStatus.SLEEPING
        task.wake_at = wake_at
        self._sleeping[ctx].append(task)
        if self.event_listeners:
            for listener in self.event_listeners:
                listener("sleep", task.tid, ctx, wake_at)

    def _wake_sleepers(self, ctx: int, local_time: int) -> None:
        still_asleep: List[Task] = []
        for task in self._sleeping[ctx]:
            if task.wake_at is not None and task.wake_at <= local_time:
                task.status = TaskStatus.READY
                task.wake_at = None
                self._queues[ctx].append(task)
                if self.event_listeners:
                    for listener in self.event_listeners:
                        listener("wake", task.tid, ctx, local_time)
            else:
                still_asleep.append(task)
        self._sleeping[ctx] = still_asleep

    # ------------------------------------------------------------------
    def pending(self, ctx: int) -> int:
        """Runnable + sleeping tasks still owned by the context."""
        return len(self._queues[ctx]) + len(self._sleeping[ctx])

    def earliest_wake(self, ctx: int) -> Optional[int]:
        sleepers = self._sleeping[ctx]
        if not sleepers:
            return None
        return min(t.wake_at for t in sleepers if t.wake_at is not None)

    def has_work(self) -> bool:
        return any(
            self._queues[c] or self._sleeping[c] for c in range(self.num_contexts)
        )
