"""Slices equal single ops.

``Kernel.run(stop_check_interval=1)`` with a ``stop_when`` that never
fires checks the machine after every op, so every slice is one op: the
per-op loop, and the reference here.  A watched run at a longer
interval cuts its slices at every check; the default run watches
nothing, so a slice runs to the next decision the kernel must make, and
one ``HardwareContext.step`` call walks every busy context's op tape in
turn, running compute ops ahead of another core's turn.  Whatever a run
leaves behind — its summary, every cache and engine counter, every
trace event — must not depend on which of them ran it, and every stop
check of a watched run must see each context as the one-op run sees it
after the same number of steps.
"""

import dataclasses
import itertools
import re
import types
from array import array

import pytest

from repro.common import scaled_experiment_config
from repro.common.errors import SimulationTimeout
from repro.core.timecache import TimeCacheSystem
from repro.cpu.cpu import HardwareContext, StepEvent
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
    TAPE_LOAD,
    TAPE_STORE,
    OpTape,
    Program,
    trace_program,
)
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.os import kernel as kernel_module
from repro.os.kernel import Kernel
from repro.os.process import Process, Task
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.parsec import build_parsec_workload
from repro.workloads.profiles import spec_profile
from repro.workloads.spec import build_spec_pair

SHARED = 0x100000
LINE = 64

#: the stop-check intervals ``observe`` runs at, the one-op reference
#: first; ``None`` is the default run, which watches nothing
ARMS = (1, 7, 256, None)


def _contexts_seen(kernel):
    """Every context's (local time, retired instructions, tape index)."""
    return tuple(
        (hw.local_time, hw.instructions, getattr(hw._gen, "pos", None))
        for hw in kernel.contexts
    )


def _run_watched(kernel, interval):
    """``kernel.run`` at ``interval`` with a ``stop_when`` that never
    fires, and what it saw at each check: the steps run so far and
    :func:`_contexts_seen`."""
    steps = [0]
    for hw in kernel.contexts:

        def counted(max_ops=1, until=None, peers=(), step=hw.step):
            outcome = step(max_ops, until, peers)
            steps[0] += outcome.ops
            return outcome

        hw.step = counted
    checks = []

    def stop_when(k):
        checks.append((steps[0], _contexts_seen(k)))
        return False

    summary = kernel.run(stop_when=stop_when, stop_check_interval=interval)
    return summary, checks


def observe(config, build):
    """(summary, stats snapshot, trace events, stop checks) per arm of
    :data:`ARMS`; the default run has no stop checks."""
    tids, pids = Task._next_tid, Process._next_pid
    runs = []
    for interval in ARMS:
        # same task and process ids in every run: the trace names them
        Task._next_tid, Process._next_pid = tids, pids
        kernel = Kernel(config)
        ring = RingBufferSink(capacity=1 << 22)
        Tracer(ring).attach_kernel(kernel)
        build(kernel)
        if interval is None:
            summary, checks = kernel.run(), None
        else:
            summary, checks = _run_watched(kernel, interval)
        assert kernel.all_done() and ring.dropped == 0
        events = [event.to_dict() for event in ring.events]
        runs.append((summary, kernel.system.stats_snapshot(), events, checks))
    return runs


def assert_slices_equal_single_ops(config, build):
    """Every arm's results equal the one-op run's, and a watched arm's
    checks see what the one-op run saw after the same steps; returns
    the default run's summary."""
    single, *sliced = observe(config, build)
    for interval, run in zip(ARMS[1:], sliced):
        assert run[0] == single[0]  # steps, instructions, cycles, local times
        assert run[1] == single[1]
        assert run[2] == single[2]
        if interval is not None:
            assert run[3] == [
                check for check in single[3] if check[0] % interval == 0
            ]
    return sliced[-1][0]


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_spec_pair(engine):
    config = scaled_experiment_config(quantum_cycles=3_000, engine=engine)
    summary = assert_slices_equal_single_ops(
        config, lambda k: build_spec_pair(k, "perlbench", "wrf", 6_000, seed=3)
    )
    assert summary.context_switches > 4


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_parsec_pair(engine):
    config = scaled_experiment_config(num_cores=2, engine=engine)
    assert_slices_equal_single_ops(
        config, lambda k: build_parsec_workload(k, "x264", 6_000, seed=5)
    )


# ----------------------------------------------------------------------
# An attacker scenario: every op kind, results that steer control flow
# ----------------------------------------------------------------------
def _attacker():
    lines = [SHARED + i * LINE for i in range(8)]
    for round_ in range(40):
        yield Flush(lines[round_ % 8])
        yield Fence()
        yield SleepOp(300 + 7 * round_)
        t0 = yield Rdtsc()
        yield Load(lines[round_ % 8])
        t1 = yield Rdtsc()
        kinds = (Load, Store, Load, Ifetch) * 2 if round_ % 2 else (Load,) * 8
        slow = 0
        for kind, line in zip(kinds, lines):
            slow += (yield kind(line)).latency
        if (t1 - t0) + slow > 400:
            yield Compute(1 + round_ % 5)
        else:
            yield YieldOp()
    yield Exit()


def _victim(seed):
    def factory():
        for i in range(300):
            line = SHARED + ((i * seed) % 16) * LINE
            yield Load(line) if i % 3 else Store(line)
            yield Compute(1 + (i + seed) % 7)
            if i % 41 == 0:
                yield YieldOp()
            if i % 97 == 0:
                yield Ifetch(SHARED + 32 * LINE)
        yield Exit()

    return factory


def _scenario(kernel):
    segment = kernel.phys.allocate_segment("shared", 64 * LINE)
    placements = [
        ("attacker", _attacker, 0),
        ("victim", _victim(3), 0),
        ("other", _victim(5), 1),
        ("sibling", _victim(7), 1),
    ]
    for name, factory, ctx in placements:
        process = kernel.create_process(name)
        process.address_space.map_segment(segment, SHARED)
        kernel.submit(process.spawn(Program(name, factory), affinity=ctx))


def _attack_config(engine="fast", **changes):
    config = scaled_experiment_config(
        num_cores=2, quantum_cycles=1_500, engine=engine
    )
    return dataclasses.replace(config, **changes)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_attacker_scenario(engine):
    summary = assert_slices_equal_single_ops(_attack_config(engine), _scenario)
    assert summary.context_switches > 20


# ----------------------------------------------------------------------
# Tape contexts walked in one call
# ----------------------------------------------------------------------
@pytest.fixture
def walks(monkeypatch):
    """How many peers each ``HardwareContext.step`` call walked with."""
    seen = []
    step = HardwareContext.step

    def counted(self, max_ops=1, until=None, peers=()):
        seen.append(len(peers))
        return step(self, max_ops, until, peers)

    monkeypatch.setattr(HardwareContext, "step", counted)
    return seen


def _tape_tasks(placements, seed=7):
    """SPEC-profile tape tasks: (benchmark, instructions, context) each."""

    def build(kernel):
        builder = WorkloadBuilder(kernel, seed=seed)
        for instance, (bench, instructions, ctx) in enumerate(placements):
            _, task = builder.build_process(
                spec_profile(bench), instance, instructions, affinity=ctx
            )
            kernel.submit(task)

    return build


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_four_tape_cores(engine, walks):
    """Four tapes of different lengths start tied (every core pays the
    same dispatch cost), and the shorter ones exit while the others
    walk on."""
    config = scaled_experiment_config(num_cores=4, engine=engine)
    build = _tape_tasks(
        [("wrf", 4_000, 0), ("lbm", 1_500, 1), ("namd", 3_000, 2),
         ("perlbench", 700, 3)]
    )
    assert_slices_equal_single_ops(config, build)
    assert max(walks) == 3


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_two_cores_time_slicing_tapes(engine, walks):
    """Quantum ends and hand-offs between cores fall in the same walk."""
    config = dataclasses.replace(
        scaled_experiment_config(num_cores=2, engine=engine),
        quantum_cycles=1_500,
    )
    build = _tape_tasks(
        [("wrf", 3_000, 0), ("milc", 2_500, 0), ("lbm", 2_000, 1),
         ("namd", 3_500, 1)]
    )
    summary = assert_slices_equal_single_ops(config, build)
    assert summary.context_switches > 10
    assert max(walks) == 1


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_two_cores_time_slicing_tapes_at_a_short_quantum(engine, walks):
    """At a 700-cycle quantum a walker's compute ops run ahead up to
    its quantum end: the op that would reach it waits for its turn."""
    config = dataclasses.replace(
        scaled_experiment_config(num_cores=2, engine=engine),
        quantum_cycles=700,
    )
    build = _tape_tasks(
        [("wrf", 3_000, 0), ("milc", 2_500, 0), ("lbm", 2_000, 1),
         ("namd", 3_500, 1)]
    )
    summary = assert_slices_equal_single_ops(config, build)
    assert summary.context_switches > 20
    assert max(walks) == 1


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_tape_core_beside_attacker_core(engine, walks):
    """A generator on one core keeps the other core's tape on the
    one-slice path; the results stay those of one-op steps."""

    def build(kernel):
        _tape_tasks([("wrf", 3_000, 0)])(kernel)
        segment = kernel.phys.allocate_segment("shared", 64 * LINE)
        process = kernel.create_process("attacker")
        process.address_space.map_segment(segment, SHARED)
        kernel.submit(process.spawn(Program("attacker", _attacker), affinity=1))

    assert_slices_equal_single_ops(_attack_config(engine), build)
    assert walks and max(walks) == 0


@pytest.mark.parametrize("defense", ["copy_on_access", "selective_flush"])
def test_defense_hooks(defense):
    """copy_on_access remaps addresses at the facade; selective_flush
    records touched lines in a post-access listener."""
    config = _attack_config().with_defense(defense)
    assert_slices_equal_single_ops(config, _scenario)


@pytest.mark.parametrize("defense", ["copy_on_access", "selective_flush"])
def test_defense_hooks_on_tapes(defense):
    """Two cores each time-slicing two tapes, walked in one call: under
    copy_on_access every walker's access goes through the facade's
    remap, and selective_flush's listener sees every one."""
    config = dataclasses.replace(
        scaled_experiment_config(num_cores=2, engine="fast"),
        quantum_cycles=1_500,
    ).with_defense(defense)
    build = _tape_tasks(
        [("wrf", 2_000, 0), ("milc", 1_500, 0), ("lbm", 1_500, 1),
         ("namd", 2_000, 1)]
    )
    summary = assert_slices_equal_single_ops(config, build)
    assert summary.context_switches > 6


def test_program_ending_without_exit():
    """A generator that just returns ends with StopIteration, which
    counts as one step, as an ``Exit`` op would."""
    ops = [Compute(3), Load(SHARED), Store(SHARED + LINE), Compute(2)] * 50

    def build(kernel):
        segment = kernel.phys.allocate_segment("data", 4 * LINE)
        for name in ("a", "b"):
            process = kernel.create_process(name)
            process.address_space.map_segment(segment, SHARED)
            kernel.submit(
                process.spawn(trace_program(name, ops), affinity=0)
            )

    config = scaled_experiment_config(quantum_cycles=200, engine="fast")
    summary = assert_slices_equal_single_ops(config, build)
    assert summary.steps == 2 * (len(ops) + 1)


def test_stop_checks_fall_on_interval_boundaries():
    """stop_when sees the machine exactly every ``stop_check_interval``
    ops, so a slice never runs past a check."""
    kernel = Kernel(scaled_experiment_config(engine="fast"))
    process = kernel.create_process("p")

    def forever():
        while True:
            yield Compute(1)

    kernel.submit(process.spawn(Program("loop", forever), affinity=0))
    seen = []

    def stop_when(k):
        seen.append(k.instructions_executed())
        return len(seen) == 5

    summary = kernel.run(stop_when=stop_when, stop_check_interval=10)
    assert seen == [0, 10, 20, 30, 40]
    assert summary.steps == 40


# ----------------------------------------------------------------------
# One walk against one-op steps, at every op budget
# ----------------------------------------------------------------------
def _tape(*ops):
    """An op tape of (kind code, argument) pairs, then its exit."""
    kinds = bytearray(code for code, _ in ops)
    kinds.append(TAPE_EXIT)
    return OpTape(kinds, array("q", [arg for _, arg in ops] + [0]))


_C, _L, _S = TAPE_COMPUTE, TAPE_LOAD, TAPE_STORE

#: Both cores start at time 0.  Core 0 runs its 2-cycle burst, then its
#: two 1-cycle bursts ahead (issued at 2 and 3) while core 1 runs its
#: bursts at 0, 1, 2 and 3; core 1 then runs its burst at 4 ahead, tied
#: with core 0's load at 4.  So a budget of 6 cuts at core 1's op at 2,
#: tied with core 0's op run ahead at 2 (kept: core 0 goes first), and a
#: budget of 9 at core 0's load at 4, tied with core 1's op run ahead at
#: 4 (put back).  The accesses after that hit and miss shared lines.
_TIED_TAPES = (
    _tape((_C, 2), (_C, 1), (_C, 1), (_L, SHARED), (_C, 1), (_C, 1),
          (_S, SHARED + LINE), (_C, 2), (_L, SHARED + 2 * LINE), (_C, 1)),
    _tape((_C, 1), (_C, 1), (_C, 1), (_C, 1), (_C, 1), (_L, SHARED + LINE),
          (_C, 3), (_C, 1), (_L, SHARED), (_C, 1), (_S, SHARED + 3 * LINE)),
)


def _two_tapes(max_ops, bounds, one_op):
    """(event, ops, ctx) and each context's (local time, counters, tape
    index) after one two-tape walk of ``max_ops`` ops under ``bounds``
    (each context's ``until``), or after as many one-op steps, each on
    the context the kernel would pick, stopped early where the walk
    must stop."""
    system = TimeCacheSystem(scaled_experiment_config(num_cores=2, engine="fast"))
    hws = [HardwareContext(i, system) for i in range(2)]
    for hw, tape in zip(hws, _TIED_TAPES):
        hw.install(tape.rewound(), lambda vaddr: vaddr)
    if one_op:
        ops = 0
        while ops < max_ops:
            hw = min(hws, key=lambda hw: (hw.local_time, hw.ctx_id))
            event = hw.step().event
            ops += 1
            bound = bounds[hw.ctx_id]
            if event is StepEvent.EXITED or (
                bound is not None and hw.local_time >= bound
            ):
                break
        outcome = (event, ops, hw.ctx_id)
    else:
        walk = hws[0].step(max_ops, bounds[0], [(hws[1], bounds[1])])
        outcome = (walk.event, walk.ops, walk.ctx)
    seen = [(hw.local_time, hw.stats.snapshot(), hw._gen.pos) for hw in hws]
    return outcome, seen, system.stats_snapshot()


@pytest.mark.parametrize("bounds", [(None, None), (3, None), (None, 3), (9, 6)])
def test_a_walk_at_every_budget_leaves_what_one_op_steps_leave(bounds):
    """A walk may return before its budget is spent (ops run ahead past
    the op that ended it are put back and refunded), never after, and
    always in the state the same number of one-op steps leave."""
    total = sum(len(tape.kinds) for tape in _TIED_TAPES)
    for max_ops in range(1, total + 2):
        walked = _two_tapes(max_ops, bounds, one_op=False)
        ops = walked[0][1]
        assert 1 <= ops <= max_ops
        assert walked == _two_tapes(ops, bounds, one_op=True)


# ----------------------------------------------------------------------
# The kernel's cut rule: stop checks only in watched runs
# ----------------------------------------------------------------------
def test_an_unwatched_run_steps_once_per_scheduling_decision(walks):
    """Nothing watched, nothing to check: a SPEC pair, time-sliced on
    one core, takes one call per task (each runs to its exit inside one
    quantum), and the two PARSEC threads one call before the second
    core's dispatch, one walking both tapes and one after an exit."""
    kernel = Kernel(scaled_experiment_config(engine="fast"))
    build_spec_pair(kernel, "perlbench", "wrf", 20_000, seed=3)
    kernel.run()
    assert kernel.all_done() and len(walks) == 2
    walks.clear()
    kernel = Kernel(scaled_experiment_config(num_cores=2, engine="fast"))
    build_parsec_workload(kernel, "x264", 20_000, seed=5)
    kernel.run()
    assert kernel.all_done() and len(walks) <= 3


INTERVAL = 50


def _parsec_kernel():
    kernel = Kernel(scaled_experiment_config(num_cores=2, engine="fast"))
    build_parsec_workload(kernel, "x264", 6_000, seed=5)
    return kernel


def _stopped_after(timeout):
    return int(re.search(r"after (\d+) steps", str(timeout.value)).group(1))


@pytest.mark.parametrize(
    "watch", ["stop_when", "instruction_budget", "wall_clock_budget_s"]
)
def test_a_watched_run_stops_after_the_same_steps(watch, monkeypatch):
    """Each of ``stop_when``, ``instruction_budget`` and
    ``wall_clock_budget_s`` alone watches a run: it stops at a check on
    an interval boundary, in the state the one-op run reaches after the
    same steps."""
    _, single = _run_watched(_parsec_kernel(), 1)
    seen = dict(single)
    kernel = _parsec_kernel()
    if watch == "stop_when":
        checks = []

        def stop_when(k):
            checks.append(_contexts_seen(k))
            return len(checks) == 20

        summary = kernel.run(stop_when=stop_when, stop_check_interval=INTERVAL)
        stopped, expected = summary.steps, 19 * INTERVAL
        assert checks == [seen[i * INTERVAL] for i in range(20)]
    elif watch == "instruction_budget":
        budget = 3_000
        with pytest.raises(SimulationTimeout) as timeout:
            kernel.run(stop_check_interval=INTERVAL, instruction_budget=budget)
        stopped = _stopped_after(timeout)
        expected = min(
            steps
            for steps, contexts in single
            if steps % INTERVAL == 0
            and sum(instructions for _, instructions, _ in contexts) > budget
        )
    else:
        # a clock one second on at every reading: the sixth check, five
        # intervals in, is the first past 5.5 s
        clock = itertools.count()
        monkeypatch.setattr(
            kernel_module, "time", types.SimpleNamespace(monotonic=lambda: next(clock))
        )
        with pytest.raises(SimulationTimeout) as timeout:
            kernel.run(stop_check_interval=INTERVAL, wall_clock_budget_s=5.5)
        stopped, expected = _stopped_after(timeout), 5 * INTERVAL
    assert stopped == expected
    assert _contexts_seen(kernel) == seen[stopped]
