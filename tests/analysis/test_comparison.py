"""The Section VIII comparison: baseline, TimeCache and CAT partitioning
with flush, each a registered defense, costed by the tournament's
overhead cell and attacked by the reuse microbenchmark."""

import pytest

from repro.analysis import tournament as tm
from repro.attacks.flush_reload import run_microbenchmark_attack
from repro.common import scaled_experiment_config

ARMS = ("baseline", "timecache", "partition_flush")


@pytest.fixture(scope="module")
def cells():
    return {
        arm: tm.run_overhead_cell(
            arm, "object", 12_000, 0xBEEF, bench="perlbench", llc_kib=32
        )
        for arm in ARMS
    }


def test_all_three_configurations_ran(cells):
    assert set(cells) == set(ARMS)
    for cell in cells.values():
        assert cell["sim_cycles"] > 0 and cell["control_cycles"] > 0
        assert cell["instructions"] == 12_000
    # every arm normalizes against the same control run
    assert len({cell["control_cycles"] for cell in cells.values()}) == 1


def test_baseline_leaks_and_defenses_block():
    config = scaled_experiment_config(num_cores=1, quantum_cycles=60_000)

    def hits(arm):
        return run_microbenchmark_attack(
            config.with_defense(arm), shared_lines=32, sleep_cycles=50_000
        ).probe_hits

    assert hits("baseline") > 0
    assert hits("timecache") == 0
    assert hits("partition_flush") == 0


def test_both_defenses_cost_time(cells):
    assert cells["baseline"]["slowdown"] == 1.0
    assert cells["timecache"]["slowdown"] >= 1.0
    assert cells["partition_flush"]["slowdown"] >= 1.0
    # half the LLC per domain: partitioning misses more than the control
    part = cells["partition_flush"]
    assert part["llc_mpki"] > part["control_llc_mpki"]


def test_render_mentions_everything(cells):
    outcome = tm.TournamentOutcome(
        cells={cell["label"]: cell for cell in cells.values()},
        sweep=None,
        labels=[cell["label"] for cell in cells.values()],
    )
    text = tm.render_matrix(outcome, ["flush_reload"], ARMS, ["object"])
    for arm in ARMS:
        assert arm in text
    assert f"{cells['partition_flush']['slowdown']:.4f}" in text
