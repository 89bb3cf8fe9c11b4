"""Op tapes against the generators they replace.

The SPEC and PARSEC programs are emitted once into op tapes and walked
by index.  ``_reference_profile_ops`` and ``_reference_thread_program``
below are the generators those programs used to be, kept as the reference:
every decoded tape must equal their ops, and a run walking the tapes
must leave the summary, every counter and every trace event a run of
the reference generators leaves.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import experiment
from repro.common import scaled_experiment_config
from repro.common.errors import ProgramError, SimulationError, SimulationTimeout
from repro.common.rng import DeterministicRng
from repro.core.timecache import TimeCacheSystem
from repro.cpu.cpu import HardwareContext, StepEvent
from repro.cpu.isa import Compute, Exit, Ifetch, Load, Store
from repro.cpu.program import (
    TAPE_COMPUTE,
    TAPE_EXIT,
    TAPE_IFETCH,
    TAPE_LOAD,
    TAPE_STORE,
    OpTape,
    Program,
    tape_program,
    trace_program,
)
from repro.cpu.tracing import record_program
from repro.defenses.builtin import CopyOnAccessDefense
from repro.memsys.fastengine import FastHierarchy
from repro.memsys.hierarchy import MemoryHierarchy
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.os.kernel import Kernel
from repro.os.process import Process, Task
from repro.os.vm import AddressSpace
from repro.workloads import generator, parsec
from repro.workloads.generator import (
    CODE_BASE,
    DATA_BASE,
    KERNEL_BASE,
    KERNEL_LINES,
    LIB_BASE,
    emit_profile_tape,
)
from repro.workloads.parsec import (
    SHARED_DATA_FRACTION,
    build_parsec_workload,
    emit_thread_tape,
)
from repro.workloads.profiles import (
    PARSEC_PROFILES,
    SPEC_PROFILES,
    parsec_profile,
    spec_profile,
)
from repro.workloads.spec import build_spec_pair

from tests.conftest import tiny_config


# ----------------------------------------------------------------------
# The reference generators
# ----------------------------------------------------------------------
def _reference_profile_ops(profile, instructions, rng, line_bytes):
    """A SPEC program's ops, without the trailing ``Exit``."""
    randint, random = rng.bound_draws()
    hot_lines = max(1, int(profile.data_lines * profile.hot_set_fraction))
    ws_lines = profile.data_lines
    lib_lines = profile.shared_lib_lines
    code_lines = profile.code_lines
    retired = 0
    stream_pos = randint(0, ws_lines - 1)
    stream_in_line = 0
    code_pos = 0
    since_ifetch = 0
    since_syscall = 0
    while retired < instructions:
        since_ifetch += 1
        if since_ifetch >= profile.ifetch_every:
            since_ifetch = 0
            if random() < 0.15 and lib_lines > 0:
                addr = LIB_BASE + randint(0, lib_lines - 1) * line_bytes
            else:
                code_pos = (code_pos + 1) % code_lines
                if random() < 0.1:
                    code_pos = randint(0, code_lines - 1)
                addr = CODE_BASE + code_pos * line_bytes
            yield Ifetch(addr)
            retired += 1
            continue
        since_syscall += 1
        if since_syscall >= profile.syscall_every:
            since_syscall = 0
            start = randint(0, KERNEL_LINES - 5)
            for k in range(4):
                yield Ifetch(KERNEL_BASE + (start + k) * line_bytes)
            retired += 4
            continue
        if random() < profile.mem_ratio:
            r = random()
            if r < profile.stream_fraction:
                stream_in_line += 1
                if stream_in_line >= profile.stream_accesses_per_line:
                    stream_in_line = 0
                    stream_pos = (stream_pos + 1) % ws_lines
                index = stream_pos
            elif random() < profile.hot_fraction:
                index = randint(0, hot_lines - 1)
            else:
                index = randint(0, ws_lines - 1)
            addr = DATA_BASE + index * line_bytes
            if random() < profile.write_ratio:
                yield Store(addr)
            else:
                yield Load(addr)
            retired += 1
        else:
            burst = randint(1, 4)
            yield Compute(burst)
            retired += burst


def _reference_spec_program(profile, instructions, rng, line_bytes):
    def factory():
        yield from _reference_profile_ops(profile, instructions, rng, line_bytes)
        yield Exit()

    return Program(profile.name, factory)


def _reference_thread_program(profile, thread_id, instructions, line_bytes, rng):
    """One PARSEC thread, ``Exit`` included."""
    ws = profile.data_lines
    shared_lines = max(1, int(ws * SHARED_DATA_FRACTION))
    private_lines = max(1, (ws - shared_lines) // 2)
    private_base_line = shared_lines + thread_id * private_lines
    hot_lines = max(1, int(private_lines * profile.hot_set_fraction))

    def factory():
        randint, random = rng.bound_draws()
        retired = 0
        stream_pos = 0
        stream_in_line = 0
        code_pos = thread_id
        since_ifetch = 0
        while retired < instructions:
            since_ifetch += 1
            if since_ifetch >= profile.ifetch_every:
                since_ifetch = 0
                r = random()
                if r < 0.1 and profile.shared_lib_lines > 0:
                    line = randint(0, profile.shared_lib_lines - 1)
                    yield Ifetch(LIB_BASE + line * line_bytes)
                elif r < 0.13:
                    line = randint(0, KERNEL_LINES - 1)
                    yield Ifetch(KERNEL_BASE + line * line_bytes)
                else:
                    code_pos = (code_pos + 1) % profile.code_lines
                    yield Ifetch(CODE_BASE + code_pos * line_bytes)
                retired += 1
                continue
            if random() < profile.mem_ratio:
                r = random()
                if r < 0.08:
                    index = randint(0, shared_lines - 1)
                    yield Load(DATA_BASE + index * line_bytes)
                else:
                    if random() < profile.stream_fraction:
                        stream_in_line += 1
                        if stream_in_line >= profile.stream_accesses_per_line:
                            stream_in_line = 0
                            stream_pos = (stream_pos + 1) % private_lines
                        index = private_base_line + stream_pos
                    elif random() < profile.hot_fraction:
                        index = private_base_line + randint(0, hot_lines - 1)
                    else:
                        index = private_base_line + randint(
                            0, private_lines - 1
                        )
                    addr = DATA_BASE + index * line_bytes
                    if random() < profile.write_ratio:
                        yield Store(addr)
                    else:
                        yield Load(addr)
                retired += 1
            else:
                burst = randint(1, 4)
                yield Compute(burst)
                retired += burst
        yield Exit()

    return Program(f"{profile.name}.t{thread_id}", factory)


def _as_tuples(ops):
    return [
        (type(op).__name__, getattr(op, "vaddr", getattr(op, "instructions", None)))
        for op in ops
    ]


def _decoded(tape):
    return _as_tuples(record_program(tape_program("tape", tape)))


# ----------------------------------------------------------------------
# Emitted tapes decode to the reference ops
# ----------------------------------------------------------------------
def _spec_reference(profile, instructions, seed, tag="x.0"):
    rng = DeterministicRng(seed).fork(tag)
    return _as_tuples(
        record_program(_reference_spec_program(profile, instructions, rng, 64))
    )


def _spec_tape(profile, instructions, seed, tag="x.0"):
    return emit_profile_tape(
        profile, instructions, 64, DeterministicRng(seed).fork(tag)
    )


def _parsec_reference(profile, thread_id, instructions, seed):
    rng = DeterministicRng(seed).fork(f"t{thread_id}")
    return _as_tuples(
        record_program(
            _reference_thread_program(profile, thread_id, instructions, 64, rng)
        )
    )


def _parsec_tape(profile, thread_id, instructions, seed):
    rng = DeterministicRng(seed).fork(f"t{thread_id}")
    return emit_thread_tape(profile, thread_id, instructions, 64, rng)


@pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
def test_spec_tape_decodes_to_reference_ops(name):
    profile = spec_profile(name)
    # long enough for every branch, the syscall burst included
    expected = _spec_reference(profile, 9_000, seed=0xBEEF)
    assert _decoded(_spec_tape(profile, 9_000, seed=0xBEEF)) == expected


@pytest.mark.parametrize("name", sorted(PARSEC_PROFILES))
@pytest.mark.parametrize("thread_id", [0, 1])
def test_parsec_tape_decodes_to_reference_ops(name, thread_id):
    profile = parsec_profile(name)
    expected = _parsec_reference(profile, thread_id, 6_000, seed=0xFACE)
    tape = _parsec_tape(profile, thread_id, 6_000, seed=0xFACE)
    assert _decoded(tape) == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    instructions=st.integers(min_value=0, max_value=3_000),
    spec=st.sampled_from(sorted(SPEC_PROFILES)),
    bench=st.sampled_from(sorted(PARSEC_PROFILES)),
    thread_id=st.sampled_from([0, 1]),
)
def test_tapes_match_reference_over_seeds_and_lengths(
    seed, instructions, spec, bench, thread_id
):
    profile = spec_profile(spec)
    assert _decoded(_spec_tape(profile, instructions, seed)) == _spec_reference(
        profile, instructions, seed
    )
    profile = parsec_profile(bench)
    assert _decoded(
        _parsec_tape(profile, thread_id, instructions, seed)
    ) == _parsec_reference(profile, thread_id, instructions, seed)


def test_tape_speaks_the_generator_protocol():
    profile = spec_profile("namd")
    tape = _spec_tape(profile, 500, seed=3)
    walker = tape.rewound()
    head = [next(walker), walker.send(None)]
    assert walker.pos == 2 and tape.pos == 0  # walkers share only the arrays
    assert _as_tuples(head + list(walker)) == _spec_reference(profile, 500, seed=3)
    with pytest.raises(StopIteration):
        next(walker)


@pytest.mark.parametrize(
    "kinds, args",
    [
        (bytearray([TAPE_LOAD]), array("q", [64])),  # no exit
        (bytearray(), array("q")),  # empty
        (bytearray([TAPE_LOAD, TAPE_EXIT]), array("q", [64])),  # lengths
        (bytearray([TAPE_EXIT]), array("i", [0])),  # not int64
        (bytearray([9, TAPE_EXIT]), array("q", [0, 0])),  # unknown code
        # compute bursts below 1, which Compute rejects
        (bytearray([TAPE_COMPUTE, TAPE_EXIT]), array("q", [-500, 0])),
        (bytearray([TAPE_LOAD, TAPE_COMPUTE, TAPE_EXIT]), array("q", [64, 0, 0])),
    ],
)
def test_malformed_tapes_are_rejected(kinds, args):
    with pytest.raises(ProgramError):
        OpTape(kinds, args)


@pytest.mark.parametrize("max_ops", [0, -5])
def test_stepping_a_tape_below_one_op_is_an_error(max_ops):
    """Both used to run one op."""
    kernel = Kernel(tiny_config())
    hw = HardwareContext(0, kernel.system)
    tape = OpTape(bytearray([TAPE_COMPUTE, TAPE_EXIT]), array("q", [7, 0]))
    hw.install(tape, lambda vaddr: vaddr)
    with pytest.raises(ProgramError, match="max_ops"):
        hw.step(max_ops=max_ops)
    assert (tape.pos, hw.local_time, hw.instructions) == (0, 0, 0)


def test_peers_are_distinct_tape_contexts():
    kernel = Kernel(tiny_config())
    a, b = HardwareContext(0, kernel.system), HardwareContext(1, kernel.system)
    a.install(_spec_tape(spec_profile("namd"), 200, seed=1), lambda v: v)
    b.install(iter([Exit()]), lambda v: v)
    with pytest.raises(ProgramError, match="op tape"):
        a.step(10, peers=[(b, None)])  # a generator peer
    with pytest.raises(ProgramError, match="op tape"):
        b.step(10, peers=[(a, None)])  # a generator stepped with peers
    with pytest.raises(ProgramError, match="distinct"):
        a.step(10, peers=[(a, None)])
    assert (a.local_time, a.instructions, a._gen.pos) == (0, 0, 0)


def test_stepping_a_spent_tape_exits_like_a_spent_generator():
    kernel = Kernel(tiny_config())
    hw = HardwareContext(0, kernel.system)
    tape = OpTape(bytearray([TAPE_EXIT]), array("q", [0]))
    hw.install(tape, lambda vaddr: vaddr)
    assert hw.step().event is StepEvent.EXITED
    outcome = hw.step(max_ops=10)
    assert (outcome.event, outcome.ops) == (StepEvent.EXITED, 1)
    assert hw.instructions == 1 and hw.local_time == 0


# ----------------------------------------------------------------------
# Whole runs: tape programs against reference-generator programs
# ----------------------------------------------------------------------
SPEC_PAIR = ("perlbench", "wrf", 6_000, 3)
PARSEC_PAIR = ("x264", 6_000, 5)


def _build_spec(kernel, reference):
    bench_a, bench_b, instructions, seed = SPEC_PAIR
    tasks = build_spec_pair(kernel, bench_a, bench_b, instructions, seed=seed)
    if reference:
        line_bytes = kernel.config.hierarchy.line_bytes
        rng = DeterministicRng(seed)
        for instance, (task, bench) in enumerate(zip(tasks, (bench_a, bench_b))):
            task.program = _reference_spec_program(
                spec_profile(bench),
                instructions,
                rng.fork(f"{bench}.{instance}"),
                line_bytes,
            )
    return tasks


def _build_parsec(kernel, reference):
    bench, instructions, seed = PARSEC_PAIR
    tasks = build_parsec_workload(kernel, bench, instructions, seed=seed)
    if reference:
        line_bytes = kernel.config.hierarchy.line_bytes
        rng = DeterministicRng(seed)
        for thread_id, task in enumerate(tasks):
            task.program = _reference_thread_program(
                parsec_profile(bench),
                thread_id,
                instructions,
                line_bytes,
                rng.fork(f"t{thread_id}"),
            )
    return tasks


def _never(kernel):
    return False


def _watch(interval):
    """``Kernel.run`` arguments for a run at ``interval``: interval 1
    is the one-op run, watched by a ``stop_when`` that never fires so
    that every slice is one op; at 256, the default, nothing but a
    budget is watched."""
    return {
        "stop_check_interval": interval,
        "stop_when": _never if interval == 1 else None,
    }


def _observe(config, build, reference, interval, instruction_budget=None):
    """(summary, stats snapshot, trace events) of one run; with an
    ``instruction_budget``, the run must time out, and the summary's
    place holds the timeout's message."""
    tids, pids = Task._next_tid, Process._next_pid
    try:
        kernel = Kernel(config)
        ring = RingBufferSink(capacity=1 << 22)
        Tracer(ring).attach_kernel(kernel)
        tasks = build(kernel, reference)
        assert all(
            isinstance(task.program.start(), OpTape) != reference for task in tasks
        )
        if instruction_budget is None:
            summary = kernel.run(**_watch(interval))
            assert kernel.all_done()
        else:
            with pytest.raises(SimulationTimeout) as timeout:
                kernel.run(**_watch(interval), instruction_budget=instruction_budget)
            summary = str(timeout.value)
            assert not kernel.all_done()
        assert ring.dropped == 0
        events = [event.to_dict() for event in ring.events]
        return summary, kernel.system.stats_snapshot(), events
    finally:
        # same task and process ids in every run: the trace names them
        Task._next_tid, Process._next_pid = tids, pids


@pytest.mark.parametrize("interval", [1, 256])
@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize(
    "workload",
    [
        "spec",
        "spec+copy_on_access",
        "spec+selective_flush",
        "parsec",
        "parsec_budget",
    ],
)
def test_tape_runs_equal_reference_runs(workload, engine, interval):
    """``parsec_budget`` stops the PARSEC runs mid-run on an instruction
    budget: the two-core tape walk must stop after the same step, in the
    same state, as the reference generators.  ``spec+<defense>`` runs
    the SPEC pair under a defense: ``copy_on_access`` remaps addresses
    at the facade, so the walk must call the facade's ``access`` and not
    the engine's; ``selective_flush`` records touched lines in a
    post-access listener."""
    workload, _, defense = workload.partition("+")
    budget = None
    if workload == "spec":
        config = scaled_experiment_config(quantum_cycles=3_000, engine=engine)
        if defense:
            config = config.with_defense(defense)
        build = _build_spec
    else:
        config = scaled_experiment_config(num_cores=2, engine=engine)
        build = _build_parsec
        if workload == "parsec_budget":
            budget = PARSEC_PAIR[1]  # of the two threads' 2 x 6_000
    tape_run = _observe(config, build, False, interval, budget)
    reference_run = _observe(config, build, True, interval, budget)
    assert tape_run[0] == reference_run[0]
    assert tape_run[1] == reference_run[1]
    assert tape_run[2] == reference_run[2]
    if budget is None:
        assert tape_run[0].total_instructions > 0
    else:
        assert f"instruction budget {budget} exceeded after" in tape_run[0]


class _AccessFault(Exception):
    """What the pre-access listener below raises."""


def _stopped_by_a_raising_access(config, build, reference, interval, nth):
    """Per context, its local time and counters, and per task the ops
    its program gave up, after a pre-access listener raised inside the
    ``nth`` access of the run."""
    tids, pids = Task._next_tid, Process._next_pid
    try:
        kernel = Kernel(config)
        tasks = build(kernel, reference)
        taken = {task.name: 0 for task in tasks}
        if reference:
            for task in tasks:
                factory = task.program._factory

                def counted(factory=factory, name=task.name):
                    for op in factory():
                        taken[name] += 1
                        yield op

                task.program = Program(task.program.name, counted)
        seen = []

        def listener(ctx, line, kind, now):
            seen.append(line)
            if len(seen) == nth:
                raise _AccessFault(f"access {nth}")

        kernel.system.hierarchy.pre_access_listeners.append(listener)
        with pytest.raises(_AccessFault):
            kernel.run(**_watch(interval))
        if not reference:
            taken = {task.name: task.generator().pos for task in tasks}
        contexts = [(hw.local_time, hw.stats.snapshot()) for hw in kernel.contexts]
        return contexts, taken, kernel.system.stats_snapshot()
    finally:
        Task._next_tid, Process._next_pid = tids, pids


@pytest.mark.parametrize("workload", ["spec", "parsec"])
def test_a_raising_access_leaves_what_the_reference_leaves(workload):
    """A raise inside an access stops the walk where the generator loop
    stops: the op counts as its load, store or ifetch and is taken off
    the tape, but retires no instruction and adds no latency.  The
    counters are taken once per walk, so this pins what they must come
    to."""
    if workload == "spec":
        config = scaled_experiment_config(quantum_cycles=3_000, engine="fast")
        build, nth = _build_spec, 2_000
    else:
        config = scaled_experiment_config(num_cores=2, engine="fast")
        build, nth = _build_parsec, 1_500
    reference = _stopped_by_a_raising_access(config, build, True, 256, nth)
    for interval in (1, 256):
        tape = _stopped_by_a_raising_access(config, build, False, interval, nth)
        assert tape == reference
    contexts, _, _ = reference
    accesses = sum(
        stats.get(f"ctx{i}.{kind}", 0)
        for i, (_, stats) in enumerate(contexts)
        for kind in ("loads", "stores", "ifetches")
    )
    assert accesses == nth  # the raising one included


# ----------------------------------------------------------------------
# Physical tapes: translated at dispatch, fetched again on a remap
# ----------------------------------------------------------------------
_TAPE_CODE = {
    Load: TAPE_LOAD,
    Store: TAPE_STORE,
    Ifetch: TAPE_IFETCH,
    Compute: TAPE_COMPUTE,
    Exit: TAPE_EXIT,
}


def _tape_of(ops):
    kinds = bytearray(_TAPE_CODE[type(op)] for op in ops)
    args = array(
        "q", [getattr(op, "vaddr", getattr(op, "instructions", 0)) for op in ops]
    )
    return OpTape(kinds, args)


def test_an_unmapped_tape_address_faults_at_dispatch():
    """The whole tape is translated when its task is dispatched, so a
    fault on its third memory op raises there, with the error
    ``translate`` gives for the first unmapped address in op order (not
    the lowest unmapped page), before any op runs or anything counts."""
    kernel = Kernel(tiny_config())
    process = kernel.create_process("p")
    segment = kernel.phys.allocate_segment("data", 2 * 4096)
    process.address_space.map_segment(segment, 0x10000)
    first_unmapped, lower_unmapped = 0x90_018, 0x50_000
    tape = _tape_of(
        [Load(0x10000), Compute(3), Store(0x11040), Ifetch(first_unmapped),
         Load(0x10008), Load(lower_unmapped), Exit()]
    )
    task = process.spawn(tape_program("p", tape), affinity=0)
    kernel.submit(task)
    untouched = kernel.system.stats_snapshot()
    with pytest.raises(SimulationError) as fault:
        kernel.run()
    with pytest.raises(SimulationError) as expected:
        process.address_space.translate(first_unmapped)
    assert str(fault.value) == str(expected.value)
    assert f"{first_unmapped:#x}" in str(fault.value)
    hw = kernel.contexts[0]
    assert (task.generator().pos, hw.local_time, hw.stats.snapshot()) == (0, 0, {})
    assert kernel.context_switches == 0
    assert kernel.system.stats_snapshot() == untouched


def test_a_tape_installed_with_a_translator_is_translated_through_it():
    kernel = Kernel(tiny_config())
    issued = []
    kernel.system.hierarchy.pre_access_listeners.append(
        lambda ctx, line, kind, now: issued.append(line)
    )
    hw = HardwareContext(0, kernel.system)
    tape = _tape_of([Load(0x40), Compute(2), Store(0x1000), Exit()])
    hw.install(tape, lambda vaddr: vaddr + 0x20_0000)
    assert hw.step(max_ops=10).event is StepEvent.EXITED
    assert issued == [0x20_0040 >> 6, 0x20_1000 >> 6]
    assert list(tape.args) == [0x40, 2, 0x1000, 0]  # the tape is unchanged

    def fault(vaddr):
        raise SimulationError(f"no page at {vaddr:#x}")

    with pytest.raises(SimulationError, match="0x40"):
        hw.install(tape.rewound(), fault)


def _remapped_between_runs(as_tape):
    """(both summaries, counters, trace events) of a task whose COW page
    goes private between two ``Kernel.run`` calls while it stays
    dispatched."""
    shared = 0x40_0000
    ops = []
    for i in range(300):
        line = shared + (i * 7 % 32) * 64
        ops += [Load(line) if i % 4 else Store(line), Compute(1 + i % 3)]
    ops.append(Exit())
    tids, pids = Task._next_tid, Process._next_pid
    try:
        kernel = Kernel(scaled_experiment_config(engine="fast"))
        ring = RingBufferSink(capacity=1 << 20)
        Tracer(ring).attach_kernel(kernel)
        segment = kernel.phys.allocate_segment("shared", 4096)
        process = kernel.create_process("p")
        process.address_space.map_segment_cow(segment, shared)
        program = (
            tape_program("p", _tape_of(ops)) if as_tape else trace_program("p", ops)
        )
        kernel.submit(process.spawn(program, affinity=0))
        first = kernel.run(max_steps=200)
        assert kernel._current[0] is not None  # still dispatched
        assert process.address_space.write_fault(shared)  # a fresh page
        second = kernel.run()
        assert kernel.all_done() and ring.dropped == 0
        events = [event.to_dict() for event in ring.events]
        return first, second, kernel.system.stats_snapshot(), events
    finally:
        Task._next_tid, Process._next_pid = tids, pids


def test_a_remap_between_runs_reaches_the_next_walk():
    """The generator loop translates every access, so the access after a
    COW break reaches the new page; a tape translated at dispatch must
    be translated again by the next walk (the space's ``generation``)."""
    tape_run = _remapped_between_runs(as_tape=True)
    assert tape_run == _remapped_between_runs(as_tape=False)
    assert tape_run[2]["LLC.cold_misses"] == 2 * 32  # both pages' 32 lines


# ----------------------------------------------------------------------
# One emission per program per experiment
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, module, name):
    calls = []
    emit = getattr(module, name)

    def counted(*args):
        calls.append(args[:-1])  # the inputs, without the rng
        return emit(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_spec_experiment_emits_each_program_once(monkeypatch):
    calls = _count_calls(monkeypatch, generator, "emit_profile_tape")
    config = scaled_experiment_config(engine="fast")
    first = experiment.run_spec_pair_experiment(config, "wrf", "wrf", 2_000)
    assert len(calls) == 2  # wrf.0 and wrf.1, for both configurations
    second = experiment.run_spec_pair_experiment(config, "wrf", "wrf", 2_000)
    assert len(calls) == 4  # nothing carried over between experiments
    assert first.baseline.stats == second.baseline.stats
    assert first.timecache.cycles == second.timecache.cycles


@pytest.mark.parametrize("defense", ["", "copy_on_access"])
def test_spec_experiment_makes_one_engine_call_per_memory_op(monkeypatch, defense):
    """The walk reads translated addresses off the tape and calls the
    engine's port for the op's kind itself, once per memory op: no
    per-op ``translate``, no ``access`` dispatcher, and no facade call
    but the ``copy_on_access`` remap in front of the port."""
    tapes = []
    emit = generator.emit_profile_tape

    def kept(*args):
        tapes.append(emit(*args))
        return tapes[-1]

    ported = []  # one entry per engine port call
    bind = FastHierarchy._bind

    def counted_bind(hierarchy, ctx, kind):
        port = bind(hierarchy, ctx, kind)

        def counted(addr, now):
            ported.append(kind)
            return port(addr, now)

        return counted

    remaps = []  # one entry per remap of an address at the facade
    attach = CopyOnAccessDefense.attach

    def counted_attach(defense_, system):
        state = attach(defense_, system)
        offset = system._addr_offset

        def counted_offset(ctx):
            remaps.append(ctx)
            return offset(ctx)

        system._addr_offset = counted_offset
        return state

    monkeypatch.setattr(generator, "emit_profile_tape", kept)
    monkeypatch.setattr(FastHierarchy, "_bind", counted_bind)
    monkeypatch.setattr(CopyOnAccessDefense, "attach", counted_attach)
    translations = _count_calls(monkeypatch, AddressSpace, "translate")
    facade = _count_calls(monkeypatch, TimeCacheSystem, "access")
    dispatcher = _count_calls(monkeypatch, MemoryHierarchy, "access")
    config = scaled_experiment_config(engine="fast")
    if defense:
        config = config.with_defense(defense)
    experiment.run_spec_pair_experiment(config, "wrf", "lbm", 2_000)
    memory_ops = sum(
        len(tape.kinds) - tape.kinds.count(TAPE_COMPUTE) - 1 for tape in tapes
    )
    assert len(tapes) == 2 and memory_ops > 1_000
    assert len(ported) == 2 * memory_ops  # baseline and TimeCache runs
    assert translations == [] and dispatcher == [] and facade == []
    assert len(remaps) == (len(ported) if defense else 0)


def test_parsec_experiment_emits_each_thread_once(monkeypatch):
    calls = _count_calls(monkeypatch, parsec, "emit_thread_tape")
    config = scaled_experiment_config(num_cores=2, engine="fast")
    experiment.run_parsec_experiment(config, "x264", 2_000)
    assert [args[1] for args in calls] == [0, 1]
    experiment.run_parsec_experiment(config, "x264", 2_000)
    assert [args[1] for args in calls] == [0, 1, 0, 1]


def test_builds_share_a_tape_only_for_the_same_stream():
    tapes = {}
    config = tiny_config()
    ta, _ = build_spec_pair(Kernel(config), "namd", "lbm", 500, seed=1, tapes=tapes)
    tb, _ = build_spec_pair(Kernel(config), "namd", "lbm", 500, seed=1, tapes=tapes)
    assert len(tapes) == 2
    assert ta.program.start().kinds is tb.program.start().kinds
    build_spec_pair(Kernel(config), "namd", "lbm", 500, seed=2, tapes=tapes)
    build_spec_pair(Kernel(config), "namd", "lbm", 600, seed=1, tapes=tapes)
    assert len(tapes) == 6
