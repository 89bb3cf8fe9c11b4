"""The session's counters: a ``StatGroup`` of stats plus the s-bit census."""

import numpy as np
import pytest

from repro.common.config import scaled_experiment_config
from repro.obs import ObsSession, merge_counts
from repro.obs.spans import session_scope
from repro.os.kernel import Kernel
from repro.workloads.spec import build_spec_pair

ENGINES = ("object", "fast")


def test_snapshot_is_sorted_and_detached():
    counters = ObsSession("t").counters
    counters.counter("b.two").add()
    counters.counter("a.one").add()
    snap = counters.snapshot()
    assert list(snap) == ["sim.a.one", "sim.b.two"]
    counters.counter("a.one").add()  # mutating must not touch the snapshot
    assert snap["sim.a.one"] == 1


def test_merge_counts_sums_keywise_sorted():
    merged = merge_counts({"b": 1, "a": 2}, {"a": 3, "c": 4})
    assert merged == {"a": 5, "b": 1, "c": 4}
    assert list(merged) == ["a", "b", "c"]


@pytest.fixture(scope="module")
def spec_pair_runs():
    """One SPEC pair (lbm + wrf, TimeCache on) per engine, each under its
    own session: ``{engine: (session, system)}``."""
    runs = {}
    for engine in ENGINES:
        with session_scope(ObsSession(engine)) as session:
            kernel = Kernel(scaled_experiment_config(engine=engine))
            build_spec_pair(kernel, "lbm", "wrf", 3_000)
            kernel.run()
        session.finalize()
        runs[engine] = (session, kernel.system)
    return runs


def test_session_counters_are_engine_equivalent(spec_pair_runs):
    object_counts, fast_counts = (
        spec_pair_runs[engine][0].counters.snapshot() for engine in ENGINES
    )
    assert object_counts == fast_counts
    assert "sim.LLC.set_group.3.sbits_set" in fast_counts
    system = spec_pair_runs["fast"][1]
    stats = {f"sim.{k}": v for k, v in system.stats_snapshot().items()}
    assert {k: v for k, v in fast_counts.items() if ".set_group." not in k} == stats


@pytest.mark.parametrize("engine", ENGINES)
def test_sbit_census_sums_to_popcount_and_occupancy(spec_pair_runs, engine):
    session, system = spec_pair_runs[engine]
    counts = session.counters.snapshot()
    hierarchy = system.hierarchy
    sbits_seen = 0
    for cache in [*hierarchy.l1i, *hierarchy.l1d, hierarchy.llc]:
        prefix = f"sim.{cache.name}.set_group."

        def total(leaf):
            return sum(
                v for k, v in counts.items()
                if k.startswith(prefix) and k.endswith(leaf)
            )

        sbits = np.ascontiguousarray(cache.sbits, dtype=np.int64)
        popcount = int(np.unpackbits(sbits.view(np.uint8)).sum())
        assert total(".sbits_set") == popcount, cache.name
        assert total(".valid_lines") == int(cache.valid.sum()), cache.name
        sbits_seen += popcount
    assert sbits_seen > 0
