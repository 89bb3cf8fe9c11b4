"""AttackOutcome's statistical verdict and the removed ``leaked`` alias."""

import pytest

from repro.attacks.base import DEFAULT_AUC_LEAK_CUTOFF, AttackOutcome


# ----------------------------------------------------------------------
# AUC implied by the hit fraction
# ----------------------------------------------------------------------
def test_leak_auc_fallback_maps_hit_fraction():
    assert AttackOutcome(0, 10).leak_auc() == pytest.approx(0.5)
    assert AttackOutcome(5, 10).leak_auc() == pytest.approx(0.75)
    assert AttackOutcome(10, 10).leak_auc() == pytest.approx(1.0)


def test_leak_auc_no_probes_is_noninformative():
    assert AttackOutcome(0, 0).leak_auc() == pytest.approx(0.5)
    assert AttackOutcome(0, 0).verdict() is False


def test_verdict_threshold_on_fallback():
    # cutoff 0.55 ⇔ hit fraction 10%: 1/10 hits sits exactly at the
    # cutoff (verdict is strict), 2/10 clears it.
    assert AttackOutcome(1, 10).verdict() is False
    assert AttackOutcome(2, 10).verdict() is True
    assert AttackOutcome(1, 10).verdict(cutoff=0.54) is True


# ----------------------------------------------------------------------
# removed alias
# ----------------------------------------------------------------------
def test_leaked_raises_even_on_clean_outcomes():
    # ``leaked`` is gone: a stale caller gets an AttributeError, never
    # the old single-threshold answer, whatever the outcome holds.
    with pytest.raises(AttributeError):
        AttackOutcome(0, 0).leaked


def test_default_cutoff_is_below_tournament_cutoff():
    from repro.security.stats import LEAK_AUC_CUTOFF

    assert DEFAULT_AUC_LEAK_CUTOFF < LEAK_AUC_CUTOFF
