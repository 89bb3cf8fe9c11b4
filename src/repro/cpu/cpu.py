"""The hardware-context executor (blocking, TimingSimpleCPU-style).

One :class:`HardwareContext` models one logical CPU (a core thread).  It
runs at most one task's program at a time — a generator, or an open-loop
program's :class:`~repro.cpu.program.OpTape` — advancing a core-local
cycle count by one cycle per instruction plus the full latency of every
memory operation — the blocking model the paper's gem5 evaluation uses.

Scheduling decisions (who runs next, quantum expiry, context-switch cost)
belong to the OS layer.  The kernel hands the executor a *slice* — an op
budget and a time bound — and the executor reports how the slice ended
so the kernel can react.  When every busy context walks an op tape, one
call walks them all, handing off between them in the kernel's pick
order, and returns only when the kernel has something to decide.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Tuple

from repro.common.errors import ProgramError
from repro.common.stats import StatGroup
from repro.core.timecache import TimeCacheSystem
from repro.cpu.isa import (
    Compute,
    Exit,
    Fence,
    Flush,
    Ifetch,
    Load,
    Rdtsc,
    SleepOp,
    Store,
    YieldOp,
)
from repro.cpu.program import (
    TAPE_COMPUTE,
    TAPE_IFETCH,
    TAPE_LOAD,
    TAPE_STORE,
    OpStream,
    OpTape,
)
from repro.memsys.hierarchy import AccessKind

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.os imports us)
    from repro.os.tlb import Tlb

_LOAD, _STORE, _IFETCH = AccessKind.LOAD, AccessKind.STORE, AccessKind.IFETCH

#: the time bound of a slice nothing else is waiting on
_NO_DEADLINE = float("inf")


class StepEvent(enum.Enum):
    """How the last operation of a step left the task."""

    RUNNING = "running"
    YIELDED = "yielded"
    SLEEPING = "sleeping"
    EXITED = "exited"


class StepOutcome(NamedTuple):
    """Result of one :meth:`HardwareContext.step` call."""

    event: StepEvent
    #: core-local wake time for SLEEPING, else None
    wake_at: Optional[int] = None
    #: operations the step executed (a generator's end counts as one)
    ops: int = 1
    #: the context whose op ended the step: the stepped one, or a peer
    ctx: int = 0


#: translates a task virtual address to a physical address
Translator = Callable[[int], int]

#: a context walked alongside the stepped one, and its own time bound
Peer = Tuple["HardwareContext", Optional[int]]


class HardwareContext:
    """One logical CPU executing one task program at a time."""

    def __init__(self, ctx_id: int, system: TimeCacheSystem) -> None:
        self.ctx_id = ctx_id
        self.system = system
        #: core-local cycle counter (monotone for the context's lifetime)
        self.local_time = 0
        self.stats = StatGroup(f"ctx{ctx_id}")
        bound = self.stats.bound_counter
        self._instructions = bound("instructions")
        self._loads = bound("loads")
        self._stores = bound("stores")
        self._ifetches = bound("ifetches")
        self._flushes = bound("flushes")
        self._gen: Optional[OpStream] = None
        self._translate: Optional[Translator] = None
        self._tlb: Optional["Tlb"] = None
        self._pending_result: object = None

    # ------------------------------------------------------------------
    def install(
        self,
        gen: OpStream,
        translate: Translator,
        tlb: Optional["Tlb"] = None,
        result: object = None,
    ) -> None:
        """Bind a task's generator and address translation to this context.

        With a ``tlb``, translations go through it and each page walk's
        cycles are charged to local time before the access issues.
        ``result`` is what the generator receives for the op it yielded
        last (``None`` for a fresh generator).
        """
        self._gen = gen
        self._translate = translate
        self._tlb = tlb
        self._pending_result = result

    def uninstall(self) -> object:
        """Unbind the task; returns the result its last op is still owed,
        for the ``install`` that resumes it."""
        result = self._pending_result
        self._gen = None
        self._translate = None
        self._tlb = None
        self._pending_result = None
        return result

    @property
    def busy(self) -> bool:
        return self._gen is not None

    @property
    def instructions(self) -> int:
        return self.stats.get("instructions")

    # ------------------------------------------------------------------
    def step(
        self,
        max_ops: int = 1,
        until: Optional[int] = None,
        peers: Sequence[Peer] = (),
    ) -> StepOutcome:
        """Execute up to ``max_ops`` operations of the installed task.

        The step ends after the first op whose end time reaches
        ``until``, after a yield, sleep or exit, or once ``max_ops`` ops
        ran; the outcome says how many did.  ``step()`` runs exactly one;
        a ``max_ops`` below 1 is a :class:`ProgramError`.  Every op issues
        at the same core-local time it would one call at a time, and the
        instruction and access counters are added once per call.

        ``peers`` are other contexts walking op tapes, each with its own
        ``until`` (``None``: no bound); this context must walk one too.
        The step then runs all the tapes in the order one-op steps would
        be picked — lowest local time first, lower ``ctx_id`` on a tie —
        handing off once the running context's time reaches the next
        one's turn, and ends when any of them reaches its own ``until``
        or exits, or when ``max_ops`` ops ran in all.  The outcome's
        ``ctx`` names the context whose op ended the step.
        """
        if max_ops < 1:
            raise ProgramError(
                f"ctx{self.ctx_id}: a step runs at least one op, "
                f"got max_ops={max_ops}"
            )
        gen = self._gen
        translate = self._translate
        if gen is None or translate is None:
            raise ProgramError(f"ctx{self.ctx_id}: no task installed")
        if until is None:
            until = _NO_DEADLINE
        if type(gen) is OpTape:
            return self._walk_tapes(max_ops, until, peers)
        if peers:
            raise ProgramError(f"ctx{self.ctx_id}: only an op tape walks with peers")
        send = gen.send
        tlb = self._tlb
        system = self.system
        access = system.access
        ctx = self.ctx_id
        now = self.local_time
        result = self._pending_result
        ops = instructions = loads = stores = ifetches = flushes = 0
        event = StepEvent.RUNNING
        wake_at = None
        try:
            while True:
                try:
                    op = send(result)
                except StopIteration:
                    ops += 1
                    event = StepEvent.EXITED
                    break
                ops += 1
                cls = type(op)
                if cls is Load:
                    kind = _LOAD
                    loads += 1
                elif cls is Compute:
                    count = op.instructions
                    now += count
                    instructions += count
                    result = None
                    if now >= until or ops >= max_ops:
                        break
                    continue
                elif cls is Ifetch:
                    kind = _IFETCH
                    ifetches += 1
                elif cls is Store:
                    kind = _STORE
                    stores += 1
                else:  # timing, ordering, flush, scheduling
                    if cls is Rdtsc:
                        now += 1
                        instructions += 1
                        result = now
                    elif cls is Fence:
                        now += 1
                        instructions += 1
                        result = None
                    elif cls is Flush:
                        if tlb is None:
                            paddr = translate(op.vaddr)
                        else:
                            paddr, walk = tlb.translate(op.vaddr, translate)
                            now += walk
                        result = system.flush(ctx, paddr, now)
                        now += 1 + result.latency
                        instructions += 1
                        flushes += 1
                    elif cls is YieldOp:
                        now += 1
                        instructions += 1
                        result = None
                        event = StepEvent.YIELDED
                        break
                    elif cls is SleepOp:
                        now += 1
                        instructions += 1
                        result = None
                        event = StepEvent.SLEEPING
                        wake_at = now + op.cycles
                        break
                    elif cls is Exit:
                        instructions += 1
                        result = None
                        event = StepEvent.EXITED
                        break
                    else:
                        raise ProgramError(f"unknown operation {op!r}")
                    if now >= until or ops >= max_ops:
                        break
                    continue
                # Load, Ifetch, Store
                if tlb is None:
                    paddr = translate(op.vaddr)
                else:
                    paddr, walk = tlb.translate(op.vaddr, translate)
                    now += walk
                result = access(ctx, paddr, kind, now)
                now += 1 + result.latency
                instructions += 1
                if now >= until or ops >= max_ops:
                    break
        finally:
            self.local_time = now
            self._pending_result = result
            if instructions:
                self._instructions.add(instructions)
            if loads:
                self._loads.add(loads)
            if stores:
                self._stores.add(stores)
            if ifetches:
                self._ifetches.add(ifetches)
            if flushes:
                self._flushes.add(flushes)
        return StepOutcome(event, wake_at, ops, ctx)

    def _walk_tapes(
        self, max_ops: int, until: float, peers: Sequence[Peer]
    ) -> StepOutcome:
        """:meth:`step` over op tapes — this context's and its peers' —
        reading ops by index.

        Between hand-offs each context keeps the generator loop's rules
        op for op: the same time per op, one ``ops`` per op, TLB walks
        charged before the access.  A context's index and local time are
        kept at each hand-off and its counters added once per call, all
        in ``finally`` blocks, so a raise leaves the state one-op steps
        would.  The tapes never read a result, so none is kept for them.
        """
        walkers = [(self, until)]
        if peers:
            walkers.extend(
                (hw, _NO_DEADLINE if bound is None else bound) for hw, bound in peers
            )
            # in ctx_id order: of two equal times, the first wins the tie
            walkers.sort(key=lambda walker: walker[0].ctx_id)
            if len({hw.ctx_id for hw, _ in walkers}) < len(walkers):
                raise ProgramError("peers must be distinct contexts")
        # per walker: what its run needs, and the other walkers' indices
        hws = []
        setups = []
        times = []
        counts = []  # instructions, loads, stores, ifetches
        for k, (hw, bound) in enumerate(walkers):
            tape = hw._gen
            if type(tape) is not OpTape:
                raise ProgramError(f"ctx{hw.ctx_id}: a peer must walk an op tape")
            rivals = list(range(len(walkers)))
            del rivals[k]
            setups.append(
                (hw.ctx_id, tape, tape.kinds, tape.args, hw._translate, hw._tlb,
                 bound, rivals)
            )
            hws.append(hw)
            times.append(hw.local_time)
            counts.append([0, 0, 0, 0])
        access = self.system.access
        k = hws.index(self)
        left = max_ops
        event = StepEvent.RUNNING
        try:
            while True:
                ctx, tape, kinds, args, translate, tlb, bound, rivals = setups[k]
                start = pos = tape.pos
                if pos >= len(kinds):  # walked past its exit, like a spent generator
                    left -= 1
                    event = StepEvent.EXITED
                    break
                now = times[k]
                # Run until this context's own bound, or until the rival
                # picked next — the lowest time, the lowest ctx_id on a
                # tie — would be picked instead: once this context's
                # time passes the rival's, or reaches it with the rival
                # first in ctx_id order.
                stop = bound
                if rivals:
                    rival = rivals[0]
                    for j in rivals:
                        if times[j] < times[rival]:
                            rival = j
                    turn = times[rival] + (rival > k)
                    if turn < stop:
                        stop = turn
                end = pos + left
                instructions = loads = stores = ifetches = 0
                try:
                    while True:
                        code = kinds[pos]
                        arg = args[pos]
                        pos += 1
                        if code == TAPE_COMPUTE:
                            now += arg
                            instructions += arg
                            if now >= stop or pos >= end:
                                break
                            continue
                        if code == TAPE_LOAD:
                            kind = _LOAD
                            loads += 1
                        elif code == TAPE_IFETCH:
                            kind = _IFETCH
                            ifetches += 1
                        elif code == TAPE_STORE:
                            kind = _STORE
                            stores += 1
                        else:  # TAPE_EXIT
                            instructions += 1
                            event = StepEvent.EXITED
                            break
                        if tlb is None:
                            paddr = translate(arg)
                        else:
                            paddr, walk = tlb.translate(arg, translate)
                            now += walk
                        now += 1 + access(ctx, paddr, kind, now).latency
                        instructions += 1
                        if now >= stop or pos >= end:
                            break
                finally:
                    tape.pos = pos
                    times[k] = now
                    tally = counts[k]
                    tally[0] += instructions
                    tally[1] += loads
                    tally[2] += stores
                    tally[3] += ifetches
                left -= pos - start
                if event is not StepEvent.RUNNING or not left or now >= bound:
                    break
                k = rival  # hand off
        finally:
            for hw, now, tally in zip(hws, times, counts):
                hw.local_time = now
                instructions, loads, stores, ifetches = tally
                if instructions:
                    hw._instructions.add(instructions)
                if loads:
                    hw._loads.add(loads)
                if stores:
                    hw._stores.add(stores)
                if ifetches:
                    hw._ifetches.add(ifetches)
        return StepOutcome(event, None, max_ops - left, ctx)
