"""Slices equal single ops.

``Kernel.run(stop_check_interval=1)`` ends every slice after one op,
which is the per-op loop; the default interval lets a slice run up to
256 ops in one ``HardwareContext.step`` call, and lets one call walk
every busy context's op tape in turn.  Whatever a run leaves behind —
its summary, every cache and engine counter, every trace event — must
not depend on which of the two ran it.
"""

import dataclasses

import pytest

from repro.common import scaled_experiment_config
from repro.cpu.cpu import HardwareContext
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
from repro.cpu.program import Program, trace_program
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.os.kernel import Kernel
from repro.os.process import Process, Task
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.parsec import build_parsec_workload
from repro.workloads.profiles import spec_profile
from repro.workloads.spec import build_spec_pair

SHARED = 0x100000
LINE = 64


def observe(config, build):
    """(summary, stats snapshot, trace events) per stop-check interval."""
    tids, pids = Task._next_tid, Process._next_pid
    runs = []
    for interval in (1, 256):
        # same task and process ids in both runs: the trace names them
        Task._next_tid, Process._next_pid = tids, pids
        kernel = Kernel(config)
        ring = RingBufferSink(capacity=1 << 22)
        Tracer(ring).attach_kernel(kernel)
        build(kernel)
        summary = kernel.run(stop_check_interval=interval)
        assert kernel.all_done() and ring.dropped == 0
        events = [event.to_dict() for event in ring.events]
        runs.append((summary, kernel.system.stats_snapshot(), events))
    return runs


def assert_slices_equal_single_ops(config, build):
    single, sliced = observe(config, build)
    assert sliced[0] == single[0]  # steps, instructions, cycles, local times
    assert sliced[1] == single[1]
    assert sliced[2] == single[2]
    return sliced[0]


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


def test_tlb_walks():
    config = _attack_config(tlb_entries=8, tlb_walk_cycles=30)
    assert_slices_equal_single_ops(config, _scenario)
    spec = dataclasses.replace(
        scaled_experiment_config(quantum_cycles=3_000, engine="fast"),
        tlb_entries=8,
    )
    assert_slices_equal_single_ops(
        spec, lambda k: build_spec_pair(k, "wrf", "lbm", 4_000, seed=9)
    )


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
