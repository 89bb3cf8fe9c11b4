"""Tracer attach/detach semantics and the emitted stream's integrity."""

import dataclasses

import pytest

from repro.common.config import scaled_experiment_config
from repro.core import TimeCacheSystem
from repro.core.context import SwitchCost
from repro.cpu.isa import Compute, Exit
from repro.cpu.program import Program
from repro.obs import EVENT_KINDS, RingBufferSink, Tracer
from repro.os.kernel import Kernel

from tests.conftest import tiny_config


def test_enabled_tracer_requires_sink():
    with pytest.raises(ValueError):
        Tracer()


def test_disabled_tracer_attaches_nothing():
    """The production default must leave every hot-path hook untouched."""
    system = TimeCacheSystem(scaled_experiment_config())
    before = list(system.hierarchy.post_access_listeners)
    tracer = Tracer(enabled=False)
    tracer.attach(system)
    assert system.hierarchy.post_access_listeners == before
    assert system.switch_listeners == []
    for cache in system.hierarchy.all_caches():
        assert cache.event_listeners == []
    tracer.emit("cache.fill")  # guard swallows it; no sink needed
    tracer.close()


def test_attach_detach_restores_hooks():
    system = TimeCacheSystem(scaled_experiment_config())
    ring = RingBufferSink()
    tracer = Tracer(ring)
    tracer.attach(system)
    assert system.switch_listeners == [tracer.on_context_switch]
    assert all(
        cache.event_listeners == [tracer._cache_event]
        for cache in system.hierarchy.all_caches()
    )
    system.load(0, 0x4000, now=10)
    assert ring.emitted > 0
    tracer.detach()
    assert system.switch_listeners == []
    assert system.hierarchy.post_access_listeners == []
    for cache in system.hierarchy.all_caches():
        assert cache.event_listeners == []
    emitted = ring.emitted
    system.load(0, 0x8000, now=20)  # after detach: silence
    assert ring.emitted == emitted


def test_traced_run_stream_integrity():
    """Known kinds only, monotone seq, fills for the cold misses, and a
    first-access miss once a switched-in task revisits a cached line."""
    system = TimeCacheSystem(scaled_experiment_config())
    ring = RingBufferSink()
    tracer = Tracer(ring).attach(system)
    now = 0
    for i in range(16):
        now += system.load(0, 0x10000 + (i % 8) * 64, now=now).latency
    system.context_switch(0, 1, 0, now=now)
    # task 1's s-bits are clear: this warm line reads as a first access
    result = system.load(0, 0x10000, now=now + 10)
    assert result.first_access
    tracer.close()
    events = ring.events
    assert events, "traced run emitted nothing"
    assert {e.kind for e in events} <= EVENT_KINDS
    assert [e.seq for e in events] == sorted(e.seq for e in events)
    assert any(e.kind == "cache.fill" for e in events)
    assert any(e.kind == "access.first_miss" for e in events)
    switch = next(e for e in events if e.kind == "ctx.switch")
    assert switch.args["incoming"] == 1
    assert switch.args["outgoing"] == 0


def test_rollover_switch_emits_epoch_and_flash_clear():
    ring = RingBufferSink()
    tracer = Tracer(ring)
    cost = SwitchCost(dma_cycles=64, comparator_cycles=8, rollover_reset=True)
    tracer.on_context_switch(0, 1, 0, 1000, cost)
    kinds = [e.kind for e in ring.events]
    assert kinds == ["ctx.switch", "rollover.epoch", "sbit.flash_clear"]
    assert ring.events[0].args["rollover"] is True
    assert ring.events[2].args["reason"] == "rollover"


def test_span_wraps_begin_end():
    ring = RingBufferSink()
    tracer = Tracer(ring)
    with tracer.span("probe", ctx=2):
        tracer.emit("cache.fill", ctx=2)
    kinds = [e.kind for e in ring.events]
    assert kinds == ["phase.begin", "cache.fill", "phase.end"]
    assert ring.events[0].args == {"name": "probe"}
    assert ring.events[2].args == {"name": "probe"}


def test_tracer_coexists_with_existing_listener():
    """A listener already on a cache's list (the invariant checker's
    style) keeps firing alongside the tracer's."""
    system = TimeCacheSystem(scaled_experiment_config())
    l1 = next(c for c in system.hierarchy.all_caches() if "L1D" in c.name)
    seen = []

    def listener(cache, event, s, w, c):
        seen.append(event)

    l1.event_listeners.append(listener)
    ring = RingBufferSink()
    tracer = Tracer(ring).attach(system)
    system.load(0, 0x4000, now=5)
    assert "fill" in seen
    assert any(e.kind == "cache.fill" and e.src == l1.name for e in ring.events)
    tracer.detach()
    assert l1.event_listeners == [listener]  # the earlier listener survives
    seen.clear()
    system.load(0, 0x9000, now=50)
    assert "fill" in seen


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_switch_listeners_see_the_cost(engine):
    """A plain switch listener receives the SwitchCost the switch
    returns, and the tracer records the same cost beside it."""
    config = scaled_experiment_config()
    config = dataclasses.replace(
        config, hierarchy=dataclasses.replace(config.hierarchy, engine=engine)
    )
    system = TimeCacheSystem(config)
    ring = RingBufferSink()
    seen = []
    system.switch_listeners.append(lambda *args: seen.append(args))
    tracer = Tracer(ring).attach(system)
    now = 0
    for i in range(16):
        now += system.load(0, 0x10000 + i * 64, now=now).latency
    returned = [system.context_switch(0, 1, 0, now=now)]
    returned.append(system.context_switch(1, 0, 0, now=now + 5_000))
    tracer.detach()
    assert [args[4] for args in seen] == returned
    assert [args[:4] for args in seen] == [(0, 1, 0, now), (1, 0, 0, now + 5_000)]
    switches = [e for e in ring.events if e.kind == "ctx.switch"]
    assert [
        (
            e.args["dma_cycles"],
            e.args["comparator_cycles"],
            e.args["rollover"],
        )
        for e in switches
    ] == [
        (cost.dma_cycles, cost.comparator_cycles, cost.rollover_reset)
        for cost in returned
    ]
    assert any(cost.dma_cycles for cost in returned)


def test_scheduler_listeners_compose():
    """A recorder on the scheduler's list sits beside the tracer's: both
    see every dispatch and requeue, and after ``detach`` only the
    recorder is left."""

    def compute():
        yield Compute(1000)
        yield Exit()

    kernel = Kernel(tiny_config(quantum=200))
    recorded = []

    def recorder(event, tid, ctx, now):
        recorded.append(event)

    kernel.scheduler.event_listeners.append(recorder)
    ring = RingBufferSink()
    tracer = Tracer(ring).attach_kernel(kernel)
    for name in ("a", "b"):
        program = Program(name, compute)
        task = kernel.create_process(name).spawn(program, affinity=0)
        kernel.submit(task)
    kernel.run()
    traced = [e.kind for e in ring.events if e.kind.startswith("sched.")]
    assert traced == ["sched." + event for event in recorded]
    assert {"dispatch", "requeue"} <= set(recorded)
    tracer.detach()
    assert kernel.scheduler.event_listeners == [recorder]
