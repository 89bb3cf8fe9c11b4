"""Integration tests for the kernel: dispatch, quanta, switches, sleep."""

import pytest

from repro.common import scaled_experiment_config
from repro.common.errors import ConfigError, SimulationTimeout
from repro.cpu.isa import Compute, Exit, Load, Rdtsc, SleepOp, Store, YieldOp
from repro.cpu.program import Program
from repro.os.kernel import Kernel

from tests.conftest import tiny_config


def simple_program(name, ops):
    def factory():
        for op in ops:
            yield op

    return Program(name, factory)


def test_single_task_runs_to_completion(config):
    kernel = Kernel(config)
    process = kernel.create_process("p")
    task = process.spawn(simple_program("c", [Compute(100), Exit()]), affinity=0)
    kernel.submit(task)
    summary = kernel.run()
    assert kernel.all_done()
    assert summary.per_task_instructions[task.name] == 101


def test_two_tasks_round_robin_with_switches():
    kernel = Kernel(tiny_config(quantum=200))
    pa = kernel.create_process("a")
    pb = kernel.create_process("b")
    ta = pa.spawn(simple_program("a", [Compute(1000), Exit()]), affinity=0)
    tb = pb.spawn(simple_program("b", [Compute(1000), Exit()]), affinity=0)
    kernel.submit(ta)
    kernel.submit(tb)
    summary = kernel.run()
    assert kernel.all_done()
    # 1000 cycles each at quantum 200 -> multiple alternations
    assert summary.context_switches >= 4


def test_single_task_is_not_switched_against_itself(config):
    kernel = Kernel(config)
    process = kernel.create_process("p")
    task = process.spawn(
        simple_program("c", [Compute(50_000), Exit()]), affinity=0
    )
    kernel.submit(task)
    summary = kernel.run()
    assert summary.context_switches == 1  # only the initial dispatch


def test_yield_rotates_queue():
    kernel = Kernel(tiny_config(quantum=10**6))
    pa, pb = kernel.create_process("a"), kernel.create_process("b")
    order = []

    def make(tag, n):
        def factory():
            for _ in range(n):
                order.append(tag)
                yield YieldOp()
            yield Exit()

        return Program(tag, factory)

    ta = pa.spawn(make("A", 3), affinity=0)
    tb = pb.spawn(make("B", 3), affinity=0)
    kernel.submit(ta)
    kernel.submit(tb)
    kernel.run()
    assert order == ["A", "B", "A", "B", "A", "B"]


def test_sleep_blocks_until_wake(config):
    kernel = Kernel(config)
    pa, pb = kernel.create_process("a"), kernel.create_process("b")
    events = []

    def sleeper():
        events.append("sleep")
        yield SleepOp(10_000)
        events.append("woke")
        yield Exit()

    def worker():
        yield Compute(100)
        events.append("worked")
        yield Exit()

    ta = pa.spawn(Program("sleeper", sleeper), affinity=0)
    tb = pb.spawn(Program("worker", worker), affinity=0)
    kernel.submit(ta)
    kernel.submit(tb)
    kernel.run()
    assert events == ["sleep", "worked", "woke"]


def test_idle_core_skids_clock_to_wake(config):
    kernel = Kernel(config)
    process = kernel.create_process("p")
    task = process.spawn(
        simple_program("s", [SleepOp(50_000), Exit()]), affinity=0
    )
    kernel.submit(task)
    kernel.run()
    assert kernel.contexts[0].local_time >= 50_000


def test_memory_ops_translated_through_process(config):
    kernel = Kernel(config)
    process = kernel.create_process("p")
    seg = kernel.phys.allocate_segment("data", 4096)
    process.address_space.map_segment(seg, 0x10000)
    task = process.spawn(
        simple_program("w", [Store(0x10000), Load(0x10040), Exit()]),
        affinity=0,
    )
    kernel.submit(task)
    kernel.run()
    hier = kernel.system.hierarchy
    assert hier.l1d[0].resident(seg.phys_base >> 6)


def test_two_cores_progress_in_lockstep(two_core_config):
    kernel = Kernel(two_core_config)
    pa, pb = kernel.create_process("a"), kernel.create_process("b")
    ta = pa.spawn(simple_program("a", [Compute(5000), Exit()]), affinity=0)
    tb = pb.spawn(simple_program("b", [Compute(5000), Exit()]), affinity=1)
    kernel.submit(ta)
    kernel.submit(tb)
    summary = kernel.run()
    assert kernel.all_done()
    assert summary.per_ctx_local_time[0] > 0
    assert summary.per_ctx_local_time[1] > 0


def test_stop_when_predicate(config):
    kernel = Kernel(config)
    pa, pb = kernel.create_process("a"), kernel.create_process("b")

    def forever():
        while True:
            yield Compute(1)

    short = pa.spawn(simple_program("s", [Compute(500), Exit()]), affinity=0)
    loop = pb.spawn(Program("loop", forever), affinity=0)
    kernel.submit(short)
    kernel.submit(loop)
    kernel.run(stop_when=lambda k: k.task_done(short), max_steps=10**6)
    assert kernel.task_done(short)
    assert not kernel.task_done(loop)


def test_max_steps_bounds_runaway(config):
    kernel = Kernel(config)
    process = kernel.create_process("p")

    def forever():
        while True:
            yield Compute(1)

    kernel.submit(process.spawn(Program("f", forever), affinity=0))
    summary = kernel.run(max_steps=1000)
    assert summary.steps == 1000


@pytest.mark.parametrize("interval", [0, -1])
def test_stop_check_interval_below_one_is_rejected(config, interval):
    """0 used to divide by zero; -1 silently made every slice one op."""
    kernel = Kernel(config)
    process = kernel.create_process("p")
    task = process.spawn(simple_program("c", [Compute(10), Exit()]), affinity=0)
    kernel.submit(task)
    with pytest.raises(ConfigError, match="stop_check_interval"):
        kernel.run(stop_check_interval=interval)
    assert kernel.contexts[0].local_time == 0 and task.instructions == 0


@pytest.mark.parametrize(
    "budget",
    [{"wall_clock_budget_s": -1.0}, {"instruction_budget": -1}],
    ids=["wall_clock", "instructions"],
)
def test_negative_watchdog_budgets_are_rejected(config, budget):
    """Both used to raise SimulationTimeout at the first stop check."""
    kernel = Kernel(config)
    process = kernel.create_process("p")
    task = process.spawn(simple_program("c", [Compute(10), Exit()]), affinity=0)
    kernel.submit(task)
    with pytest.raises(ConfigError, match=next(iter(budget))):
        kernel.run(**budget)
    assert kernel.contexts[0].local_time == 0 and task.instructions == 0


def test_zero_instruction_budget_is_a_budget(config):
    kernel = Kernel(config)
    process = kernel.create_process("p")

    def forever():
        while True:
            yield Compute(1)

    kernel.submit(process.spawn(Program("f", forever), affinity=0))
    with pytest.raises(SimulationTimeout, match="after 10 steps"):
        kernel.run(stop_check_interval=10, instruction_budget=0)


def test_switch_cost_charged_to_local_time():
    cfg = tiny_config(quantum=100)
    kernel = Kernel(cfg)
    pa, pb = kernel.create_process("a"), kernel.create_process("b")
    ta = pa.spawn(simple_program("a", [Compute(400), Exit()]), affinity=0)
    tb = pb.spawn(simple_program("b", [Compute(400), Exit()]), affinity=0)
    kernel.submit(ta)
    kernel.submit(tb)
    summary = kernel.run()
    switches = summary.context_switches
    pure_work = 802
    overhead_per_switch = (
        cfg.context_switch_cycles + cfg.timecache.sbit_dma_cycles
    )
    assert kernel.contexts[0].local_time >= pure_work + switches * overhead_per_switch


def test_task_cycle_accounting_sums_to_core_time(config):
    kernel = Kernel(config)
    pa, pb = kernel.create_process("a"), kernel.create_process("b")
    ta = pa.spawn(simple_program("a", [Compute(3000), Exit()]), affinity=0)
    tb = pb.spawn(simple_program("b", [Compute(3000), Exit()]), affinity=0)
    kernel.submit(ta)
    kernel.submit(tb)
    summary = kernel.run()
    total_task_cycles = sum(summary.per_task_cycles.values())
    # switch costs are charged while no task is dispatched, so task cycles
    # are bounded by (and close to) the core's local time
    assert total_task_cycles <= kernel.contexts[0].local_time
    assert total_task_cycles >= 6000


def test_wall_clock_budget_interrupts_a_long_run(config):
    """The kernel checks the wall-clock budget every
    ``stop_check_interval`` steps, and no op makes more than one access,
    so a long run stops soon after its budget runs out."""
    kernel = Kernel(config)
    process = kernel.create_process("p")
    seg = kernel.phys.allocate_segment("data", 1 << 16)
    process.address_space.map_segment(seg, 0x10000)

    def loads():
        for i in range(2_000_000):
            yield Load(0x10000 + (i * 64) % (1 << 16))
        yield Exit()

    kernel.submit(process.spawn(Program("long", loads), affinity=0))
    with pytest.raises(SimulationTimeout, match="wall-clock budget"):
        kernel.run(wall_clock_budget_s=0.05)
    assert kernel.instructions_executed() < 2_000_000


def test_preempted_task_receives_its_last_result():
    """A task switched out right after an op gets that op's result when
    it resumes, not None (the rdtsc here is often the quantum's last op)."""
    kernel = Kernel(scaled_experiment_config(quantum_cycles=100, engine="fast"))
    pa, pb = kernel.create_process("a"), kernel.create_process("b")
    stamps = []

    def timer():
        for _ in range(50):
            yield Compute(49)
            stamps.append((yield Rdtsc()))
        yield Exit()

    def worker():
        for _ in range(50):
            yield Compute(40)
        yield Exit()

    ta = pa.spawn(Program("timer", timer), affinity=0)
    tb = pb.spawn(Program("worker", worker), affinity=0)
    kernel.submit(ta)
    kernel.submit(tb)
    summary = kernel.run()
    assert kernel.all_done()
    assert summary.context_switches > 20  # many preemptions happened
    assert None not in stamps
    assert stamps == sorted(stamps) and len(set(stamps)) == 50


def test_generous_budgets_let_the_run_finish():
    """Armed but unreached watchdog budgets change nothing."""
    summaries = []
    for budgets in ({}, {"wall_clock_budget_s": 600.0, "instruction_budget": 10**9}):
        kernel = Kernel(tiny_config(quantum=100))
        for name in ("a", "b"):
            process = kernel.create_process(name)
            kernel.submit(
                process.spawn(simple_program(name, [Compute(40)] * 30 + [Exit()]))
            )
        summaries.append(kernel.run(**budgets))
        assert kernel.all_done()
    assert summaries[0].steps == summaries[1].steps == 62
    assert summaries[0].makespan == summaries[1].makespan
