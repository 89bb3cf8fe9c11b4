"""Tests for the sweep drivers and attack scaffolding helpers."""

import dataclasses

import pytest

from repro.analysis.runner import (
    batched_replay_run,
    hot_cold_reference_trace,
    llc_sensitivity_sweep,
    single_config,
)
from repro.attacks.base import AttackOutcome, hit_threshold
from repro.common.rng import DeterministicRng
from repro.core.timecache import TimeCacheSystem
from repro.cpu import isa
from repro.cpu.tracing import replay_ops
from repro.robustness.campaign import campaign_config

from tests.conftest import tiny_config


def test_single_config_valid():
    cfg = single_config(llc_kib=64, num_cores=2)
    cfg.validate()
    assert cfg.hierarchy.num_cores == 2
    assert cfg.hierarchy.llc.size_bytes == 64 * 1024


def test_llc_sweep_structure():
    sweep = llc_sensitivity_sweep(
        pairs=[("namd", "namd")],
        llc_sizes_kib=(16, 32),
        instructions=5_000,
    )
    assert set(sweep) == {16, 32}
    for results in sweep.values():
        assert len(results) == 1
        assert results[0].label == "2Xnamd"


class TestHitThreshold:
    def test_sits_between_hit_and_miss_paths(self):
        cfg = tiny_config()
        lat = cfg.hierarchy.latency
        threshold = hit_threshold(cfg)
        assert lat.l1_hit + lat.l2_hit < threshold < lat.dram


class TestAttackOutcome:
    def test_hit_fraction(self):
        outcome = AttackOutcome(probe_hits=3, probe_total=4)
        assert outcome.hit_fraction == 0.75
        assert outcome.verdict()

    def test_empty_outcome(self):
        outcome = AttackOutcome(probe_hits=0, probe_total=0)
        assert outcome.hit_fraction == 0.0
        assert not outcome.verdict()


class TestPartitionGeometry:
    def test_last_domain_absorbs_remainder_ways(self):
        from repro.core.timecache import TimeCacheSystem

        system = TimeCacheSystem(tiny_config().with_partitioning(domains=3))
        hier = system.hierarchy  # 8 LLC ways across 3 domains: 2+2+4
        assert list(hier.domain_ways(0)) == [0, 1]
        assert list(hier.domain_ways(1)) == [2, 3]
        assert list(hier.domain_ways(2)) == [4, 5, 6, 7]

    def test_all_ways_covered_exactly_once(self):
        from repro.core.timecache import TimeCacheSystem

        system = TimeCacheSystem(tiny_config().with_partitioning(domains=3))
        hier = system.hierarchy
        covered = []
        for domain in range(3):
            covered.extend(hier.domain_ways(domain))
        assert sorted(covered) == list(range(hier.llc.ways))


def test_choose_victim_in_rejects_empty_range():
    from repro.common.errors import SimulationError
    from repro.memsys.cacheset import CacheSet

    cset = CacheSet(0, ways=4)
    for way in range(4):
        cset.install(way, tag=way, now=way)
    with pytest.raises(SimulationError):
        cset.choose_victim_in(range(0, 0))


def test_choose_victim_in_prefers_free_allowed_way():
    from repro.memsys.cacheset import CacheSet

    cset = CacheSet(0, ways=4)
    cset.install(0, tag=9, now=0)
    assert cset.choose_victim_in(range(0, 2)) == 1  # the free one


def test_choose_victim_in_lru_within_allowed():
    from repro.memsys.cacheset import CacheSet

    cset = CacheSet(0, ways=4)
    for way, touch in zip(range(4), [5, 1, 9, 0]):
        cset.install(way, tag=way, now=touch)
    # globally way 3 is LRU (touch 0), but outside the allowed range
    assert cset.choose_victim_in(range(0, 2)) == 1


class TestBatchedReplay:
    """The batched-replay driver: batch/scalar and engine equivalence,
    serial vs parallel sweep equivalence (``--jobs N``)."""

    def test_run_is_invariant_to_batching_and_engine(self):
        from repro.analysis.runner import batched_replay_run

        runs = {
            (engine, batch): batched_replay_run(
                accesses=1_500, engine=engine, batch=batch
            )
            for engine in ("object", "fast")
            for batch in (True, False)
        }
        reference = runs[("object", False)]
        for key, run in runs.items():
            assert run == reference, f"batched replay diverges for {key}"

    def test_run_shape(self):
        from repro.analysis.runner import batched_replay_run

        run = batched_replay_run(accesses=800)
        assert run["accesses"] == 800
        assert sum(run["levels"].values()) == 800
        assert run["final_now"] > 800  # every access costs >= 1 cycle

    def test_sweep_parallel_equals_serial(self):
        from repro.analysis.runner import batched_replay_run
        from repro.robustness.supervisor import SupervisedSweepExecutor, SweepJob

        sweep_jobs = [
            SweepJob(
                label=f"replay{i}",
                fn=batched_replay_run,
                args=(1_000, "fast", True, 7 + i),
            )
            for i in range(3)
        ]
        serial, parallel = (
            SupervisedSweepExecutor(jobs, retries=0, base_seed=7).map(sweep_jobs)
            for jobs in (1, 2)
        )
        assert serial == parallel
        # distinct seeds -> the cells are genuinely different traces
        assert serial[0] != serial[1]


def _draw_by_draw_trace(
    accesses, hot_lines, hot_fraction, pool_lines, line_bytes, seed
):
    """The hot/cold trace as first written: one ``rng.random()`` and one
    ``rng.randint`` call per access."""
    rng = DeterministicRng(seed)
    base = 0x10000
    start = rng.randint(0, pool_lines - hot_lines)
    hots = [base + (start + i) * line_bytes for i in range(hot_lines)]
    trace = []
    for _ in range(accesses):
        if rng.random() < hot_fraction:
            trace.append(hots[rng.randint(0, hot_lines - 1)])
        else:
            trace.append(base + rng.randint(0, pool_lines - 1) * line_bytes)
    return trace


class TestHotColdTrace:
    @pytest.mark.parametrize("seed", [1, 7, 11])
    @pytest.mark.parametrize("hot_fraction", [0.995, 0.9])
    @pytest.mark.parametrize(
        "hot_lines,pool_lines",
        [(8, 256), (1, 1), (1, 7), (3, 100), (5, 5), (6, 33)],
    )
    def test_equals_the_draw_by_draw_reference(
        self, seed, hot_fraction, hot_lines, pool_lines
    ):
        args = (3_000, hot_lines, hot_fraction, pool_lines, 64, seed)
        trace = hot_cold_reference_trace(*args)
        assert trace.typecode == "q"
        assert list(trace) == _draw_by_draw_trace(*args)

    @pytest.mark.parametrize(
        "hot_lines,pool_lines", [(0, 256), (-1, 256), (9, 8), (1, 0)]
    )
    @pytest.mark.parametrize("hot_fraction", [0.0, 1.0])
    def test_rejects_an_empty_hot_set_or_a_smaller_pool(
        self, monkeypatch, hot_lines, pool_lines, hot_fraction
    ):
        """An empty hot set used to fail only at its first hot draw (or
        never, at ``hot_fraction=0``); it now fails before any draw."""

        def no_draws(self):
            raise AssertionError("drew before checking its arguments")

        monkeypatch.setattr(DeterministicRng, "bound_draws", no_draws)
        with pytest.raises(ValueError, match="hot_lines"):
            hot_cold_reference_trace(
                100, hot_lines, hot_fraction, pool_lines, seed=3
            )


def _replay_ops_summary(accesses, engine, batch, seed, hot_fraction):
    """``batched_replay_run``'s summary, computed as it first was: the
    trace wrapped in ``Load`` ops for ``replay_ops``, summed in three
    passes."""
    config = campaign_config(seed=seed)
    config = dataclasses.replace(
        config, hierarchy=dataclasses.replace(config.hierarchy, engine=engine)
    )
    system = TimeCacheSystem(config)
    trace = hot_cold_reference_trace(
        accesses,
        hot_fraction=hot_fraction,
        line_bytes=config.hierarchy.line_bytes,
        seed=seed,
    )
    results, now = replay_ops(
        system, [isa.Load(addr) for addr in trace], batch=batch
    )
    levels = {}
    for result in results:
        levels[result.level] = levels.get(result.level, 0) + 1
    return {
        "accesses": len(results),
        "levels": levels,
        "first_accesses": sum(1 for r in results if r.first_access),
        "total_latency": sum(r.latency for r in results),
        "final_now": now,
        "stats": system.stats_snapshot(),
    }


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("seed,hot_fraction", [(3, 0.995), (4, 0.9)])
def test_replay_run_equals_replay_ops_over_loads(
    monkeypatch, engine, batch, seed, hot_fraction
):
    """The address array replays exactly as ``Load`` ops through
    ``replay_ops`` do, without building a single ``Load``."""
    expected = _replay_ops_summary(1_500, engine, batch, seed, hot_fraction)

    def no_load(vaddr):
        raise AssertionError(f"built Load({vaddr:#x})")

    monkeypatch.setattr(isa, "Load", no_load)
    run = batched_replay_run(1_500, engine, batch, seed, hot_fraction)
    assert run == expected
    assert list(run["levels"]) == list(expected["levels"])
