"""The exception hierarchy contract: one root catches everything."""

import inspect

import pytest

from repro.common import errors
from repro.common.errors import (
    ConfigError,
    FaultInjectionError,
    InvariantViolation,
    ProgramError,
    ReproError,
    SchedulerError,
    SimulationError,
)


def _all_library_exceptions():
    return [
        obj
        for _, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, Exception) and obj.__module__ == errors.__name__
    ]


def test_every_library_exception_is_under_the_root():
    classes = _all_library_exceptions()
    assert ReproError in classes
    for cls in classes:
        assert issubclass(cls, ReproError), f"{cls.__name__} escapes ReproError"


@pytest.mark.parametrize(
    "cls",
    [
        ConfigError,
        SimulationError,
        SchedulerError,
        ProgramError,
        FaultInjectionError,
    ],
)
def test_each_exception_is_catchable_via_root(cls):
    with pytest.raises(ReproError):
        raise cls("boom")


def test_invariant_violation_is_a_simulation_error():
    # The checker reports broken simulator state, so generic handlers for
    # SimulationError (and ReproError) must both see it.
    assert issubclass(InvariantViolation, SimulationError)
    with pytest.raises(ReproError):
        raise InvariantViolation("bad state")


def test_invariant_violation_carries_diagnostics():
    violation = InvariantViolation(
        "task holds a bit it never earned",
        invariant="sbit-subset-of-entitlement",
        cache="L1D0",
        set_idx=3,
        way=1,
        ctx=0,
        task=42,
    )
    assert violation.invariant == "sbit-subset-of-entitlement"
    assert violation.cache == "L1D0"
    assert (violation.set_idx, violation.way) == (3, 1)
    assert violation.ctx == 0 and violation.task == 42
    text = str(violation)
    assert "sbit-subset-of-entitlement" in text
    assert "L1D0" in text and "set=3" in text and "task=42" in text


def test_invariant_violation_message_without_location():
    violation = InvariantViolation("broken", invariant="tc-in-domain")
    assert str(violation) == "tc-in-domain: broken"


def test_distinct_categories_do_not_cross_catch():
    with pytest.raises(ConfigError):
        try:
            raise ConfigError("cfg")
        except SchedulerError:  # pragma: no cover - must not trigger
            pytest.fail("ConfigError caught as SchedulerError")
    with pytest.raises(FaultInjectionError):
        try:
            raise FaultInjectionError("misused")
        except SimulationError:  # pragma: no cover - must not trigger
            pytest.fail("FaultInjectionError caught as SimulationError")
