"""A finished experiment is freed by reference counting alone.

Nothing an experiment builds — the hierarchies and their ports, the
caches and their counter groups, the kernels, processes and tasks, the
op tapes — may sit in a reference cycle: garbage left to the cyclic
collector stays until a generation-2 collection, so peak memory would
follow the collector's timing instead of the run.
"""

import gc
from collections import Counter

import pytest

from repro.analysis.experiment import (
    run_parsec_experiment,
    run_spec_pair_experiment,
)
from repro.common.config import scaled_experiment_config

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


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_a_finished_experiment_leaves_no_cyclic_garbage(experiment, engine):
    run = EXPERIMENTS[experiment]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run(engine)
        gc.collect()
        leaked = Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert result.timecache.instructions > 0
    assert not leaked, leaked.most_common(10)
