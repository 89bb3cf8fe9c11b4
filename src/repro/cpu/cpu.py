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
order only where the order of their memory accesses changes cores, and
returns only when the kernel has something to decide.

Every memory op is one call to one of the context's *ports*: its load,
store and ifetch accessors, fetched once from
:meth:`~repro.core.timecache.TimeCacheSystem.access_ports` — the
engine's own, or the facade's when a defense remaps addresses there.  An
op tape is translated when it is installed, so that call is the only one
its memory op makes.
"""

from __future__ import annotations

import enum
from array import array
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
    TAPE_EXIT,
    TAPE_IFETCH,
    TAPE_LOAD,
    TAPE_STORE,
    OpStream,
    OpTape,
)
from repro.memsys.hierarchy import AccessKind, Port

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.os imports us)
    from repro.os.vm import AddressSpace

#: the access each tape code below ``TAPE_COMPUTE`` issues, by code; a
#: context's ports are kept in this order
_TAPE_ACCESS = (AccessKind.LOAD, AccessKind.STORE, AccessKind.IFETCH)

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
        self._pending_result: object = None
        #: an op tape's arguments with every address physical, the space
        #: they came from (None: the translator) and that space's
        #: generation then
        self._paddrs: Optional[array] = None
        self._space: Optional["AddressSpace"] = None
        self._generation = 0
        #: this context's ports, indexed by tape kind code
        #: (:data:`_TAPE_ACCESS`); fetched by the first step
        self._ports: Optional[Tuple[Port, ...]] = None

    # ------------------------------------------------------------------
    def install(
        self,
        gen: OpStream,
        translate: Translator,
        result: object = None,
        space: Optional["AddressSpace"] = None,
    ) -> None:
        """Bind a task's generator and address translation to this context.

        ``result`` is what the generator receives for the op it yielded
        last (``None`` for a fresh generator).

        An op tape is translated here, once: by ``space``, the address
        space ``translate`` belongs to, whose
        :meth:`~repro.os.vm.AddressSpace.physical_args` the walk fetches
        again whenever the mapping has changed, or else op by op through
        ``translate``.  A page fault on any of the tape's addresses
        raises here, before any op runs.
        """
        paddrs = None
        if type(gen) is OpTape:
            if space is None:
                paddrs = _translated(gen, translate)
            else:
                paddrs = space.physical_args(gen)
                self._generation = space.generation
        self._gen = gen
        self._translate = translate
        self._pending_result = result
        self._paddrs = paddrs
        self._space = space if paddrs is not None else None

    def uninstall(self) -> object:
        """Unbind the task; returns the result its last op is still owed,
        for the ``install`` that resumes it."""
        result = self._pending_result
        self._gen = None
        self._translate = None
        self._pending_result = None
        self._paddrs = None
        self._space = None
        return result

    def _access_ports(self) -> Tuple[Port, ...]:
        """This context's ports by tape kind code, fetched from the
        system once, by the first step: ``install`` accepts a task on a
        context the hierarchy does not have, as it always did, and only
        stepping it raises."""
        ports = self.system.access_ports(self.ctx_id)
        self._ports = tuple(ports.of(kind) for kind in _TAPE_ACCESS)
        return self._ports

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
        one's turn and its compute ops up to its next access have run
        ahead, and ends when any of them reaches its own ``until`` or
        exits, or when ``max_ops`` ops ran in all.  It may end before
        ``max_ops``: it leaves the state the outcome's ``ops`` one-op
        steps leave, never more.  The outcome's ``ctx`` names the
        context whose op ended the step.
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
        system = self.system
        ports = self._ports or self._access_ports()
        load = ports[TAPE_LOAD]
        store = ports[TAPE_STORE]
        ifetch = ports[TAPE_IFETCH]
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
                    port = load
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
                    port = ifetch
                    ifetches += 1
                elif cls is Store:
                    port = store
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
                        result = system.flush(ctx, translate(op.vaddr), now)
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
                result = port(translate(op.vaddr), now)
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
        op for op: the same time per op, one ``ops`` per op.  A memory op
        reads its physical address off the tape and makes one call, to
        the port its kind code indexes in the context's ports.  The running
        context's index, time and compute-burst instructions live in
        locals, the others' in flat lists, swapped at each hand-off; the
        counters are taken once per call from the kind codes each context
        walked, in a ``finally``, so a raise leaves the state one-op
        steps would: the raising access counts as its op's load, store
        or ifetch but retires no instruction.  The tapes never read a
        result, so none is kept for them.

        A compute op touches nothing another context sees, so before a
        hand-off the running context runs its next compute ops ahead of
        the rival's turn: up to its next access or its exit, short of
        the op that would reach its own bound, and with one op of the
        budget left for the rival.  They are charged to the budget as
        they run.  The call can then end before their turn comes: at
        every return the ``finally`` first puts back each other
        context's ops run ahead to a key — issue time, then ``ctx_id``
        — after that of the op that ended the call, and refunds them.
        Only a context's latest run-ahead can reach past that op: after
        an earlier one the context ran its next op in turn, and that op,
        like every op run in turn, came before the op that ended the
        call.
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
        # per walker: what its runs read, then its next op, its local time
        # and the instructions its compute bursts retired in this call
        hws = []
        setups = []
        positions = []
        times = []
        bursts = []
        for hw, bound in walkers:
            tape = hw._gen
            if type(tape) is not OpTape:
                raise ProgramError(f"ctx{hw.ctx_id}: a peer must walk an op tape")
            args = hw._paddrs
            space = hw._space
            if space is not None and space.generation != hw._generation:
                # the mapping changed since the tape was translated
                args = hw._paddrs = space.physical_args(tape)
                hw._generation = space.generation
            ports = hw._ports or hw._access_ports()
            setups.append((hw.ctx_id, tape.kinds, args, bound, ports))
            hws.append(hw)
            positions.append(tape.pos)
            times.append(hw.local_time)
            bursts.append(0)
        firsts = positions[:]
        # per walker: the index and time its latest run-ahead started at
        aheads = positions[:]
        ahead_times = times[:]
        walking = len(walkers)
        compute = TAPE_COMPUTE
        k = hws.index(self)
        ctx, kinds, args, bound, ports = setups[k]
        pos = positions[k]
        now = times[k]
        burst = 0
        left = max_ops
        event = StepEvent.RUNNING
        raised = False
        try:
            while True:
                if pos >= len(kinds):  # walked past its exit, like a spent generator
                    left -= 1
                    event = StepEvent.EXITED
                    code = TAPE_EXIT  # issued now, like the exit
                    break
                # Run until this context's own bound, or until the rival
                # picked next — the lowest time, the lowest ctx_id on a
                # tie — would be picked instead: once this context's
                # time passes the rival's, or reaches it with the rival
                # first in ctx_id order.
                stop = bound
                if walking > 1:
                    if walking == 2:
                        rival = 1 - k
                    else:
                        rival = 1 if k == 0 else 0
                        for j in range(rival + 1, walking):
                            if j != k and times[j] < times[rival]:
                                rival = j
                    turn = times[rival] + (rival > k)
                    if turn < stop:
                        stop = turn
                start = pos
                end = pos + left
                while True:
                    code = kinds[pos]
                    arg = args[pos]
                    pos += 1
                    if code < compute:
                        issued = now
                        now += 1 + ports[code](arg, now).latency
                    elif code == compute:
                        now += arg
                        burst += arg
                    else:  # TAPE_EXIT
                        event = StepEvent.EXITED
                        break
                    if now >= stop or pos >= end:
                        break
                left -= pos - start
                if event is not StepEvent.RUNNING or not left or now >= bound:
                    break
                # Run the next compute ops ahead: nothing another core
                # does can see them.  Stop at an access or the exit,
                # before the op that would reach the own bound, and with
                # one op of budget left for the rival.
                aheads[k] = pos
                ahead_times[k] = now
                while left > 1 and kinds[pos] == compute:
                    ahead = args[pos]
                    if now + ahead >= bound:
                        break
                    now += ahead
                    burst += ahead
                    pos += 1
                    left -= 1
                # hand off
                positions[k] = pos
                times[k] = now
                bursts[k] = burst
                k = rival
                ctx, kinds, args, bound, ports = setups[k]
                pos = positions[k]
                now = times[k]
                burst = bursts[k]
        except BaseException:
            raised = True  # inside the access of the op before ``pos``
            raise
        finally:
            positions[k] = pos
            times[k] = now
            bursts[k] = burst
            if walking > 1:
                # Put back, and refund, each other walker's ops run
                # ahead to a key — issue time, then ctx_id — after the
                # key of the op that ended the call.
                if code == compute:
                    issued = now - arg
                elif code > compute:
                    issued = now
                for j in range(walking):
                    mark = aheads[j]
                    last = positions[j]
                    if j == k or mark == last:
                        continue
                    walked_args = setups[j][2]
                    t = ahead_times[j]
                    while mark < last and (t < issued or t == issued and j < k):
                        t += walked_args[mark]
                        mark += 1
                    left += last - mark
                    bursts[j] -= times[j] - t
                    positions[j] = mark
                    times[j] = t
            for j, hw in enumerate(hws):
                first = firsts[j]
                last = hw._gen.pos = positions[j]
                hw.local_time = times[j]
                if last == first:
                    continue
                walked = setups[j][1]
                loads = walked.count(TAPE_LOAD, first, last)
                stores = walked.count(TAPE_STORE, first, last)
                ifetches = walked.count(TAPE_IFETCH, first, last)
                # the exit is the tape's last op and retires one instruction
                instructions = bursts[j] + loads + stores + ifetches
                instructions += (last == len(walked)) - (raised and j == k)
                if instructions:
                    hw._instructions.add(instructions)
                if loads:
                    hw._loads.add(loads)
                if stores:
                    hw._stores.add(stores)
                if ifetches:
                    hw._ifetches.add(ifetches)
        return StepOutcome(event, None, max_ops - left, ctx)


def _translated(tape: OpTape, translate: Translator) -> array:
    """``tape.args`` with each load, store and ifetch address put through
    ``translate`` (a copy; the tape is not changed)."""
    args = tape.args[:]
    for i, code in enumerate(tape.kinds):
        if code < TAPE_COMPUTE:
            args[i] = translate(args[i])
    return args
