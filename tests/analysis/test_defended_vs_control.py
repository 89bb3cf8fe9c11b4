"""One runner and one knob: every machine names a registered defense,
``baseline()`` is the control, and a Table II row and a tournament
overhead cell are the same defended-vs-control measurement."""

import dataclasses

import pytest

from repro.analysis import tournament as tm
from repro.analysis.experiment import run_spec_pair_experiment
from repro.common.config import SimConfig, scaled_experiment_config
from repro.common.errors import ConfigError
from repro.core import TimeCacheSystem
from repro.defenses import Defense, defense_names, get_defense

#: the 2Xwrf slowdown of each registered defense at 8,000 instructions
#: (fast engine, seed 7, one core, 32 KiB LLC): the quick tournament's
#: overhead cells, and ``partition_flush``'s and ``ftm``'s at that scale
SLOWDOWNS = {
    "timecache": 1.2397,
    "baseline": 1.0,
    "selective_flush": 2.6520,
    "copy_on_access": 1.4631,
    "ftm": 1.0,
    "partition_flush": 2.3475,
}


def _cell_config():
    return scaled_experiment_config(
        num_cores=1, llc_kib=32, quantum_cycles=60_000, engine="fast"
    )


def test_every_registered_defense_has_a_pinned_slowdown():
    assert sorted(SLOWDOWNS) == sorted(defense_names())


@pytest.mark.parametrize("defense", sorted(SLOWDOWNS))
def test_experiment_is_the_overhead_cell(defense):
    """A Table II row under ``defense`` and its tournament overhead cell
    read one slowdown: neither compares a defense against itself."""
    result = run_spec_pair_experiment(
        _cell_config().with_defense(defense), "wrf", "wrf", 8000, seed=7
    )
    cell = tm.run_overhead_cell(defense, "fast", 8000, 7)
    assert result.normalized_time == cell["slowdown"]
    assert cell["slowdown"] == pytest.approx(SLOWDOWNS[defense], abs=5e-5)
    assert cell["sim_cycles"] == result.timecache.cycles
    assert cell["control_cycles"] == result.baseline.cycles


@pytest.mark.parametrize("defense", sorted(SLOWDOWNS))
def test_baseline_is_the_control(defense):
    config = _cell_config()
    assert config.with_defense(defense).baseline() == config.with_defense(
        "baseline"
    )


@pytest.mark.parametrize("defense", sorted(SLOWDOWNS))
def test_enabled_follows_the_defense(defense):
    config = _cell_config().with_defense(defense)
    assert config.defense == defense
    assert config.timecache.enabled is (defense == "timecache")
    assert get_defense(defense).uses_sbits is (defense == "timecache")
    # no plugin reshapes a config beyond the declaration and the name
    assert type(get_defense(defense)).configure is Defense.configure


def test_a_config_names_timecache_by_default():
    config = scaled_experiment_config()
    assert config.defense == "timecache" and config.timecache.enabled
    system = TimeCacheSystem(config)
    assert system.defense is get_defense("timecache")
    assert system.defense_state is None
    assert system._addr_offset is None
    assert TimeCacheSystem(config.baseline()).defense is get_defense("baseline")


@pytest.mark.parametrize(
    "config, message",
    [
        (SimConfig(defense=""), "unknown defense ''"),
        (SimConfig(defense="nosuch"), "unknown defense 'nosuch'"),
        (
            SimConfig().with_timecache(enabled=False),
            "timecache.enabled=False disagrees with defense 'timecache'",
        ),
        (
            SimConfig().baseline().with_timecache(enabled=True),
            "timecache.enabled=True disagrees with defense 'baseline'",
        ),
        (
            dataclasses.replace(SimConfig(), defense="selective_flush"),
            "timecache.enabled=True disagrees with defense 'selective_flush'",
        ),
    ],
    ids=["empty", "unregistered", "timecache_off", "baseline_on", "flush_on"],
)
def test_validate_holds_enabled_to_the_defense(config, message):
    with pytest.raises(ConfigError, match=message):
        config.validate()
    with pytest.raises(ConfigError, match=message):
        TimeCacheSystem(config)


def test_ablation_knobs_survive_a_change_of_defense():
    config = _cell_config().with_timecache(
        timestamp_bits=16, constant_time_flush=True
    )
    for name in ("baseline", "timecache"):
        timecache = config.with_defense(name).timecache
        assert timecache.timestamp_bits == 16
        assert timecache.constant_time_flush
    assert config.baseline().with_defense("timecache") == config
