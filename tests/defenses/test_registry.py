"""Defense protocol + registry: registration, lookup, switch-cost merging."""

import pytest

from repro.common import scaled_experiment_config
from repro.common.errors import ConfigError
from repro.core import TimeCacheSystem
from repro.core.context import SwitchCost
from repro.defenses import (
    Defense,
    defense_names,
    get_defense,
    is_control_defense,
    merge_switch_costs,
    register_defense,
    unregister_defense,
)


# ----------------------------------------------------------------------
# registry basics
# ----------------------------------------------------------------------
def test_shipped_zoo_registered_in_presentation_order():
    names = defense_names()
    # timecache and the control anchor the pre-protocol matrix prefix
    assert names[:2] == ["timecache", "baseline"]
    assert "selective_flush" in names
    assert "copy_on_access" in names


def test_get_defense_unknown_raises_typed_error():
    with pytest.raises(ConfigError, match="unknown defense"):
        get_defense("nocache")


def test_is_control_defense():
    assert is_control_defense("baseline")
    assert not is_control_defense("timecache")
    assert not is_control_defense("never_registered")


def test_register_rejects_duplicates_unless_replace():
    class Dup(Defense):
        name = "timecache"

    with pytest.raises(ConfigError, match="already registered"):
        register_defense(Dup())
    # replace=True is the escape hatch; restore the real one afterwards
    original = get_defense("timecache")
    try:
        register_defense(Dup(), replace=True)
        assert isinstance(get_defense("timecache"), Dup)
    finally:
        register_defense(original, replace=True)


def test_register_rejects_empty_name():
    with pytest.raises(ConfigError, match="non-empty name"):
        register_defense(Defense())


def test_tournament_axis_is_the_gated_tuple_and_more_enter_by_name():
    """The tournament's default axis is ``DEFENSES``, the committed
    baseline's four arms; any registered defense, a late one too,
    enters through ``defenses=``."""
    from repro.analysis import tournament as tm

    assert tm.DEFENSES == (
        "timecache", "baseline", "selective_flush", "copy_on_access",
    )
    assert defense_names()[:4] == list(tm.DEFENSES)
    assert defense_names()[4:] == ["ftm", "partition_flush"]

    class Throwaway(Defense):
        name = "throwaway_defense"

    register_defense(Throwaway())
    try:
        jobs = tm.tournament_jobs(attacks=["flush_reload"], engines=("object",))
        assert [job.label for job in jobs] == [
            f"flush_reload|{name}|object" for name in tm.DEFENSES
        ]
        jobs = tm.tournament_jobs(
            attacks=["flush_reload"],
            engines=("object",),
            defenses=("throwaway_defense",),
        )
        assert [job.label for job in jobs] == [
            "flush_reload|throwaway_defense|object"
        ]
    finally:
        unregister_defense("throwaway_defense")


# ----------------------------------------------------------------------
# config transform
# ----------------------------------------------------------------------
def test_configure_stamps_defense_name():
    config = get_defense("timecache").configure(scaled_experiment_config())
    assert config.defense == "timecache"
    assert config.timecache.enabled
    control = get_defense("baseline").configure(scaled_experiment_config())
    assert control.defense == "baseline"
    assert not control.timecache.enabled


def test_with_defense_shortcut():
    config = scaled_experiment_config().with_defense("selective_flush")
    assert config.defense == "selective_flush"
    assert not config.timecache.enabled


def test_legacy_empty_defense_attaches_nothing():
    system = TimeCacheSystem(scaled_experiment_config())
    assert system.defense is None
    assert system.defense_state is None
    assert system._addr_offset is None


# ----------------------------------------------------------------------
# every defense runs on the fast engine
# ----------------------------------------------------------------------
def test_scalar_declaration_is_the_announced_fallback():
    # selective_flush attaches per-access listeners; both engines run
    # batches through their scalar access, so it constructs on fast.
    system = TimeCacheSystem(
        scaled_experiment_config(engine="fast").with_defense(
            "selective_flush"
        )
    )
    assert system.hierarchy.post_access_listeners


# ----------------------------------------------------------------------
# switch-cost merging
# ----------------------------------------------------------------------
def test_merge_switch_costs_sums_and_ors():
    merged = merge_switch_costs(
        SwitchCost(dma_cycles=100, comparator_cycles=35, rollover_reset=False),
        SwitchCost(dma_cycles=40, comparator_cycles=0, rollover_reset=True),
    )
    assert merged.dma_cycles == 140
    assert merged.comparator_cycles == 35
    assert merged.rollover_reset is True
