"""Fault models, deterministic injection, and the detection matrix."""

import pytest

from repro.analysis.cli import main
from repro.common.errors import FaultInjectionError, InvariantViolation
from repro.common.rng import DeterministicRng
from repro.core.timecache import TimeCacheSystem
from repro.robustness.campaign import (
    _drive,
    campaign_config,
    run_fault_campaign,
    run_single_injection,
)
from repro.robustness.faults import (
    ALL_FAULT_MODELS,
    DroppedComparatorClear,
    FaultInjector,
    SBitCorruption,
    SwitchStateLoss,
    TcCorruption,
)
from repro.robustness.invariants import InvariantChecker


def _fresh():
    return TimeCacheSystem(campaign_config())


class TestInjector:
    def test_fires_exactly_once_at_chosen_switch(self):
        system = _fresh()
        injector = FaultInjector(
            system, SBitCorruption(), DeterministicRng(5), at_switch=3
        ).attach()
        _drive(system, DeterministicRng(5), rounds=6)
        assert injector.fired
        assert len(injector.events) == 1
        assert injector.events[0].switch_no == 3
        assert injector.switches == 6

    def test_rejects_nonpositive_trigger(self):
        with pytest.raises(FaultInjectionError):
            FaultInjector(
                _fresh(), SBitCorruption(), DeterministicRng(1), at_switch=0
            )

    def test_detach_stops_observing(self):
        system = _fresh()
        injector = FaultInjector(
            system, SBitCorruption(), DeterministicRng(5), at_switch=99
        ).attach()
        injector.detach()
        _drive(system, DeterministicRng(5), rounds=4)
        assert injector.switches == 0
        assert not system.switch_listeners

    def test_same_seed_same_fault(self):
        events = []
        for _ in range(2):
            system = _fresh()
            injector = FaultInjector(
                system, SBitCorruption(), DeterministicRng(41), at_switch=2
            ).attach()
            _drive(system, DeterministicRng(9), rounds=4)
            events.append(injector.events[0])
        a, b = events
        assert (a.mode, a.cache, a.set_idx, a.way, a.description) == (
            b.mode,
            b.cache,
            b.set_idx,
            b.way,
            b.description,
        )


class TestModels:
    @pytest.mark.parametrize("model_cls", ALL_FAULT_MODELS)
    def test_every_model_produces_an_event(self, model_cls):
        system = _fresh()
        injector = FaultInjector(
            system, model_cls(), DeterministicRng(17), at_switch=3
        ).attach()
        try:
            _drive(system, DeterministicRng(17), rounds=6)
        except InvariantViolation:
            pytest.fail("no checker attached; nothing should raise")
        event = injector.events[0]
        assert event.model == model_cls.name
        assert event.mode

    def test_dropped_clear_filter_self_disarms(self):
        system = _fresh()
        FaultInjector(
            system, DroppedComparatorClear(), DeterministicRng(23), at_switch=2
        ).attach()
        _drive(system, DeterministicRng(23), rounds=6)
        # After the budgeted comparisons the comparator must be clean again.
        assert system.context_engine.comparator.reset_mask_filter is None

    def test_switch_filters_self_disarm(self):
        for _ in range(3):  # whatever mode the rng picks, it is one-shot
            system = _fresh()
            FaultInjector(
                system, SwitchStateLoss(), DeterministicRng(29), at_switch=2
            ).attach()
            _drive(system, DeterministicRng(29), rounds=6)
            assert system.context_engine.save_filter is None
            assert system.context_engine.restore_filter is None

    def test_tc_corruption_is_detected_by_checker(self):
        # Pin the mode by retrying seeds until an in-domain corruption is
        # drawn; determinism makes the found seed stable forever.
        for seed in range(40):
            outcome = run_single_injection(TcCorruption, seed)
            if outcome.event is not None and outcome.event.mode.startswith(
                "corrupt"
            ):
                assert outcome.outcome == "detected"
                return
            if outcome.outcome == "detected":
                continue
        pytest.fail("no corrupt-mode draw in 40 seeds")


class TestCampaign:
    def test_quick_campaign_zero_silent(self):
        matrix = run_fault_campaign(per_model=3, seed=1)
        assert matrix.total == 3 * len(ALL_FAULT_MODELS)
        assert matrix.silent_total == 0

    def test_campaign_is_deterministic(self):
        a = run_fault_campaign(per_model=2, seed=5)
        b = run_fault_campaign(per_model=2, seed=5)
        assert [(o.model, o.seed, o.outcome) for o in a.outcomes] == [
            (o.model, o.seed, o.outcome) for o in b.outcomes
        ]

    def test_every_model_detected_at_least_once_at_scale(self):
        matrix = run_fault_campaign(per_model=10, seed=2)
        for model_cls in ALL_FAULT_MODELS:
            row = matrix.counts[model_cls.name]
            assert row["detected"] >= 1, model_cls.name
            assert row["silent"] == 0

    def test_render_mentions_every_model(self):
        matrix = run_fault_campaign(per_model=1, seed=3)
        table = matrix.render()
        for model_cls in ALL_FAULT_MODELS:
            assert model_cls.name in table

    def test_dropped_clear_with_checker_detects(self):
        """End to end: dropped comparator clears leave stale visibility
        that the post-switch subset scan must catch."""
        for seed in range(10):
            outcome = run_single_injection(DroppedComparatorClear, seed)
            if outcome.outcome == "detected":
                assert "entitlement" in outcome.violation or outcome.violation
                return
        pytest.fail("dropped clears never detected across 10 seeds")


def test_checker_and_injector_compose_without_interference():
    """An attached injector that never fires must leave a checked run
    perfectly clean."""
    system = _fresh()
    FaultInjector(
        system, SBitCorruption(), DeterministicRng(31), at_switch=10_000
    ).attach()
    checker = InvariantChecker(system).attach()
    _drive(system, DeterministicRng(31), rounds=6)
    checker.scan_all()


class TestFaultsCli:
    def test_injections_run_per_model(self, capsys):
        assert main(["faults", "--injections", "1"]) == 0
        out = capsys.readouterr().out
        assert "\n4 injections: 4 detected or benign, 0 silent" in out

    def test_quick_runs_three_per_model(self, capsys):
        assert main(["faults", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "\n12 injections: 12 detected or benign, 0 silent" in out

    def test_an_explicit_injections_count_wins_over_quick(self, capsys):
        """``--quick --injections 1`` used to run 3 per model, as
        ``--quick`` alone does; ``chaos`` lets the explicit count win
        too."""
        assert main(["faults", "--quick", "--injections", "1"]) == 0
        out = capsys.readouterr().out
        assert "\n4 injections: 4 detected or benign, 0 silent" in out

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_injections_below_one_is_a_config_error(self, capsys, value):
        """``--injections 0`` used to print "0 injections … 0 silent" and
        exit 0: a zero-silent gate that checked nothing."""
        assert main(["faults", "--injections", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"fatal: ConfigError: --injections must be >= 1, got {value}" in err
