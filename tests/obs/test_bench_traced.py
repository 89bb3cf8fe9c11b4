"""The tracing-overhead benchmark and its <5% disabled-overhead gate."""

import inspect

import pytest

from repro.analysis.bench import (
    BENCHMARKS,
    DISABLED_OVERHEAD_PAIRS,
    ENGINE_AWARE,
    bench_hierarchy_access_traced,
)
from repro.common import scaled_experiment_config
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.os.kernel import Kernel

#: the acceptance bound: a constructed-but-disabled tracer must not
#: slow the raw-access hot path by 5% or more
DISABLED_OVERHEAD_BOUND = 0.05


def test_traced_bench_is_registered():
    assert BENCHMARKS["hierarchy_access_traced"] is bench_hierarchy_access_traced
    assert "hierarchy_access_traced" in ENGINE_AWARE


def _hook_slots(kernel):
    """Every listener, hook and tracer slot a tracer could fill, by owner."""
    system = kernel.system
    owners = {
        "system": system,
        "hierarchy": system.hierarchy,
        "scheduler": kernel.scheduler,
    }
    owners.update((cache.name, cache) for cache in system.hierarchy.all_caches())
    slots = {}
    for owner, obj in owners.items():
        for name in dir(obj):
            if not any(word in name for word in ("listener", "hook", "tracer")):
                continue
            value = getattr(obj, name)
            if not inspect.ismethod(value):
                slots[owner, name] = value
    return slots


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_disabled_tracer_leaves_every_hook_as_a_plain_system_has_it(engine):
    """The exact half of the gate: attaching a disabled tracer changes no
    listener list, hook or tracer slot, so the hot path is the plain
    path by construction."""
    config = scaled_experiment_config(num_cores=2, engine=engine)
    plain = Kernel(config)
    disabled = Kernel(config)
    Tracer(enabled=False).attach_kernel(disabled)
    Tracer(enabled=False).attach(disabled.system)
    assert _hook_slots(disabled) == _hook_slots(plain)
    # the comparison sees the seams an enabled tracer does fill
    enabled = Kernel(config)
    Tracer(RingBufferSink()).attach_kernel(enabled)
    assert _hook_slots(enabled) != _hook_slots(plain)


def test_disabled_tracing_overhead_under_five_percent():
    """The timing half: the median of per-pair disabled/plain ratios over
    alternating back-to-back pairs, so host-speed changes cancel."""
    result = bench_hierarchy_access_traced(quick=True)
    assert result.skipped is None
    assert len(result.runs) == DISABLED_OVERHEAD_PAIRS >= 10
    assert result.extra["pairs"] == DISABLED_OVERHEAD_PAIRS
    assert result.extra["overhead_disabled"] < DISABLED_OVERHEAD_BOUND, (
        "a disabled tracer must leave the hot path untouched; measured "
        f"{result.extra['overhead_disabled']:.1%}"
    )
    # the enabled arm actually traced something
    assert result.extra["events"] > 0
    assert result.extra["enabled_median_s"] > 0
