"""A finished experiment or attack is freed by reference counting alone.

Nothing an experiment builds — the hierarchies and their ports, the
caches and their counter groups, the kernels, processes and tasks, the
op tapes — may sit in a reference cycle: garbage left to the cyclic
collector stays until a generation-2 collection, so peak memory would
follow the collector's timing instead of the run.  The same holds for
every tournament attack: its programs close over addresses, thresholds
and lists, never over the scenario that holds their kernel.  A traced
run is no exception: the tracer holds the system and kernel it hooks
only weakly.
"""

import gc
from collections import Counter

import pytest

from repro.analysis.experiment import (
    run_parsec_experiment,
    run_spec_pair_experiment,
)
from repro.analysis.tournament import ATTACKS, cell_config
from repro.attacks.flush_reload import run_microbenchmark_attack
from repro.common.config import scaled_experiment_config
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer

EXPERIMENTS = {
    "spec_pair": lambda engine: run_spec_pair_experiment(
        scaled_experiment_config(engine=engine), "wrf", "wrf", instructions=5_000
    ),
    "parsec": lambda engine: run_parsec_experiment(
        scaled_experiment_config(num_cores=2, engine=engine),
        "fluidanimate",
        instructions_per_thread=5_000,
    ),
}


def _run_without_collector(run):
    """``run()``'s result and the objects it left to the cyclic collector,
    counted by type."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        leaked = Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return result, leaked


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_a_finished_experiment_leaves_no_cyclic_garbage(experiment, engine):
    result, leaked = _run_without_collector(
        lambda: EXPERIMENTS[experiment](engine)
    )
    assert result.timecache.instructions > 0
    assert not leaked, leaked.most_common(10)


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("attack", list(ATTACKS))
def test_a_finished_attack_leaves_no_cyclic_garbage(attack, engine):
    config = cell_config(attack, "timecache", engine)
    (neg, pos), leaked = _run_without_collector(
        lambda: ATTACKS[attack].collect(config, 7, True)
    )
    assert neg and pos
    assert not leaked, leaked.most_common(10)


def test_a_finished_traced_run_leaves_no_cyclic_garbage():
    sink = RingBufferSink()
    outcome, leaked = _run_without_collector(
        lambda: run_microbenchmark_attack(
            scaled_experiment_config(), shared_lines=32, tracer=Tracer(sink)
        )
    )
    assert outcome.probe_total == 32
    assert sink.events
    assert not leaked, leaked.most_common(10)
