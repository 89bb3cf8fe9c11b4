"""Unit tests for the hardware-context executor."""

import pytest

from repro.common.errors import ProgramError
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

from tests.conftest import tiny_config

identity = lambda vaddr: vaddr  # noqa: E731 - trivial translator


@pytest.fixture
def ctx():
    return HardwareContext(0, TimeCacheSystem(tiny_config()))


def run_ops(ctx, ops):
    def gen():
        for op in ops:
            yield op

    ctx.install(gen(), identity)
    outcomes = []
    while True:
        outcome = ctx.step()
        outcomes.append(outcome)
        if outcome.event is StepEvent.EXITED:
            break
    return outcomes


def test_requires_installed_task(ctx):
    with pytest.raises(ProgramError):
        ctx.step()


def test_load_charges_latency(ctx):
    run_ops(ctx, [Load(0x1000), Exit()])
    lat = ctx.system.config.hierarchy.latency
    assert ctx.local_time == 1 + (lat.l1_hit + lat.l2_hit + lat.dram)
    assert ctx.stats.get("loads") == 1


def test_compute_counts_instructions(ctx):
    run_ops(ctx, [Compute(10), Exit()])
    assert ctx.stats.get("instructions") == 11  # 10 + Exit
    assert ctx.local_time == 10


def test_rdtsc_returns_local_time(ctx):
    seen = []

    def gen():
        t0 = yield Rdtsc()
        yield Compute(100)
        t1 = yield Rdtsc()
        seen.append(t1 - t0)
        yield Exit()

    ctx.install(gen(), identity)
    while ctx.step().event is not StepEvent.EXITED:
        pass
    assert seen == [101]  # 100 compute + 1 rdtsc


def test_load_result_sent_back(ctx):
    results = []

    def gen():
        r = yield Load(0x1000)
        results.append(r)
        yield Exit()

    ctx.install(gen(), identity)
    while ctx.step().event is not StepEvent.EXITED:
        pass
    assert results[0].level == "DRAM"


def test_yield_and_sleep_events(ctx):
    def gen():
        yield YieldOp()
        yield SleepOp(500)
        yield Exit()

    ctx.install(gen(), identity)
    assert ctx.step().event is StepEvent.YIELDED
    outcome = ctx.step()
    assert outcome.event is StepEvent.SLEEPING
    assert outcome.wake_at == ctx.local_time + 500
    assert ctx.step().event is StepEvent.EXITED


def test_generator_exhaustion_is_exit(ctx):
    def gen():
        yield Compute(1)

    ctx.install(gen(), identity)
    assert ctx.step().event is StepEvent.RUNNING
    assert ctx.step().event is StepEvent.EXITED


def test_fence_and_flush_and_store_and_ifetch(ctx):
    run_ops(ctx, [Store(0x1000), Ifetch(0x2000), Fence(), Flush(0x1000), Exit()])
    assert ctx.stats.get("stores") == 1
    assert ctx.stats.get("ifetches") == 1
    assert ctx.stats.get("flushes") == 1


def test_translation_applied(ctx):
    ctx.install(iter([Load(0x10)]), lambda v: v + 0x5000)
    # install expects a generator; wrap properly
    def gen():
        yield Load(0x10)

    ctx.install(gen(), lambda v: v + 0x5000)
    ctx.step()
    hier = ctx.system.hierarchy
    assert hier.l1d[0].resident(hier.line_addr(0x5010))


def test_uninstall_clears_state(ctx):
    def gen():
        yield Compute(1)

    ctx.install(gen(), identity)
    ctx.step()
    ctx.uninstall()
    assert not ctx.busy
    with pytest.raises(ProgramError):
        ctx.step()


def test_step_runs_a_slice_up_to_its_budget(ctx):
    def gen():
        while True:
            yield Compute(10)

    ctx.install(gen(), identity)
    assert ctx.step().ops == 1
    outcome = ctx.step(max_ops=5)
    assert (outcome.event, outcome.ops) == (StepEvent.RUNNING, 5)
    assert ctx.local_time == 60
    assert ctx.instructions == 60


@pytest.mark.parametrize("max_ops", [0, -5])
def test_step_below_one_op_is_an_error(ctx, max_ops):
    """Both used to run one op."""
    started = []

    def gen():
        started.append(True)
        yield Compute(10)

    ctx.install(gen(), identity)
    with pytest.raises(ProgramError, match="max_ops"):
        ctx.step(max_ops=max_ops)
    assert not started and ctx.local_time == 0 and ctx.instructions == 0


def test_step_stops_after_the_op_that_reaches_until(ctx):
    def gen():
        while True:
            yield Compute(10)

    ctx.install(gen(), identity)
    outcome = ctx.step(max_ops=100, until=25)
    assert outcome.ops == 3 and ctx.local_time == 30  # 30 is the first >= 25
    # a bound already passed still runs one op
    assert ctx.step(max_ops=100, until=0).ops == 1


def test_scheduling_ops_end_a_slice(ctx):
    def gen():
        yield Compute(1)
        yield YieldOp()
        yield Compute(1)
        yield SleepOp(50)
        yield Compute(1)
        yield Exit()
        yield Compute(1)  # never reached

    ctx.install(gen(), identity)
    assert ctx.step(max_ops=10) == (StepEvent.YIELDED, None, 2, 0)
    assert ctx.step(max_ops=10) == (StepEvent.SLEEPING, ctx.local_time + 50, 2, 0)
    assert ctx.step(max_ops=10) == (StepEvent.EXITED, None, 2, 0)
    assert ctx.instructions == 6


def test_uninstall_hands_back_the_pending_result(ctx):
    seen = []

    def gen():
        seen.append((yield Rdtsc()))
        yield Exit()

    program = gen()
    ctx.install(program, identity)
    ctx.step()
    owed = ctx.uninstall()
    assert owed == ctx.local_time == 1
    ctx.install(program, identity, result=owed)
    assert ctx.step().event is StepEvent.EXITED
    assert seen == [1]
