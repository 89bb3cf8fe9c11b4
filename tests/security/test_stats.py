"""Unit tests for the leakage-scoring statistics.

AUC values are checked against hand-computable synthetic distributions,
mutual information against exact entropy arithmetic, and the bootstrap
against its own determinism contract.  Every score is also checked for
exact equality against a rank-based, one-replicate-at-a-time reference.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import LeakageStatsError, ReproError
from repro.security import stats
from repro.security.stats import (
    BOOT_BLOCK_DRAWS,
    BootstrapCI,
    auc_separation,
    bootstrap_auc,
    mutual_information_bits,
    roc_auc,
    roc_curve,
    score_populations,
)


# ----------------------------------------------------------------------
# roc_auc
# ----------------------------------------------------------------------
def test_auc_identical_distributions_is_half():
    samples = [5, 5, 5, 5, 5, 5]
    assert roc_auc(samples, samples) == pytest.approx(0.5)


def test_auc_identical_multivalue_distributions_is_half():
    samples = [1, 2, 3, 4, 5, 6]
    assert roc_auc(samples, list(samples)) == pytest.approx(0.5)


def test_auc_disjoint_distributions():
    low = [1, 2, 3]
    high = [10, 11, 12]
    assert roc_auc(low, high) == pytest.approx(1.0)
    assert roc_auc(high, low) == pytest.approx(0.0)


def test_auc_hand_computed_with_ties():
    # neg = [1, 3], pos = [2, 3]: of the 4 (neg, pos) pairs —
    # (1,2) pos wins, (1,3) pos wins, (3,2) neg wins, (3,3) tie (half)
    # → AUC = (1 + 1 + 0 + 0.5) / 4 = 0.625
    assert roc_auc([1, 3], [2, 3]) == pytest.approx(0.625)


def test_auc_matches_brute_force_on_random_samples():
    rng = np.random.default_rng(42)
    neg = rng.integers(0, 12, size=37)
    pos = rng.integers(3, 15, size=23)
    wins = sum(
        1.0 if p > n else 0.5 if p == n else 0.0 for n in neg for p in pos
    )
    assert roc_auc(neg, pos) == pytest.approx(wins / (len(neg) * len(pos)))


def test_auc_matches_trapezoid_area_under_roc_curve():
    rng = np.random.default_rng(7)
    neg = rng.integers(0, 10, size=40)
    pos = rng.integers(4, 14, size=40)
    points = roc_curve(neg, pos)
    area = sum(
        (x1 - x0) * (y0 + y1) / 2.0
        for (x0, y0), (x1, y1) in zip(points, points[1:])
    )
    assert roc_auc(neg, pos) == pytest.approx(area)


def test_auc_separation_folds_direction():
    low, high = [1, 2, 3], [10, 11, 12]
    assert auc_separation(low, high) == pytest.approx(1.0)
    assert auc_separation(high, low) == pytest.approx(1.0)
    assert auc_separation(low, low) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# degenerate input raises the typed error
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fn",
    [roc_auc, auc_separation, mutual_information_bits, roc_curve],
)
@pytest.mark.parametrize("neg,pos", [([], [1, 2]), ([1, 2], []), ([], [])])
def test_empty_class_raises_typed_error(fn, neg, pos):
    with pytest.raises(LeakageStatsError):
        fn(neg, pos)


def test_bootstrap_empty_class_raises_typed_error():
    with pytest.raises(LeakageStatsError):
        bootstrap_auc([], [1, 2])


def test_leakage_stats_error_is_a_repro_error():
    assert issubclass(LeakageStatsError, ReproError)


def test_bootstrap_rejects_bad_parameters():
    with pytest.raises(LeakageStatsError):
        bootstrap_auc([1], [2], n_boot=0)
    with pytest.raises(LeakageStatsError):
        bootstrap_auc([1], [2], alpha=1.5)


# ----------------------------------------------------------------------
# mutual information
# ----------------------------------------------------------------------
def test_mi_identical_distributions_is_zero():
    samples = [4, 4, 4, 4]
    assert mutual_information_bits(samples, samples) == pytest.approx(0.0)


def test_mi_fully_separated_balanced_classes_is_one_bit():
    # Latency determines the class exactly; balanced classes → H=1 bit.
    # The contingency table has no sparse cells, so Miller-Madow's
    # correction is exactly zero here: (2 - 2 - 2 + 1 + 1)/(2N) ... use
    # the uncorrected estimator for the exact identity.
    neg = [10] * 8
    pos = [90] * 8
    assert mutual_information_bits(neg, pos, miller_madow=False) == (
        pytest.approx(1.0)
    )


def test_mi_hand_computed_partial_overlap():
    # neg = [0, 0, 1, 1], pos = [1, 1, 2, 2]; N = 8.
    # Joint counts: (neg,0)=2 (neg,1)=2 (pos,1)=2 (pos,2)=2 → H_joint=2.
    # H_class = 1; symbols 0:2, 1:4, 2:2 → H_sym = 1.5.  MI = 0.5 bits.
    mi = mutual_information_bits([0, 0, 1, 1], [1, 1, 2, 2], miller_madow=False)
    assert mi == pytest.approx(0.5)


def test_miller_madow_correction_value():
    # neg=[0,1], pos=[2,2]; N=4.  Plug-in: H_class=1, H_sym=1.5,
    # H_joint=1.5 → MI = 1.0 bit (latency determines class exactly).
    # K_joint=3, K_class=2, K_symbol=3 → correction =
    # (3 - 2 - 3 + 1) / (2 * 4 * ln 2) = -1/(8 ln 2) bits.
    plain = mutual_information_bits([0, 1], [2, 2], miller_madow=False)
    corrected = mutual_information_bits([0, 1], [2, 2])
    assert plain == pytest.approx(1.0)
    assert corrected == pytest.approx(1.0 - 1.0 / (8.0 * math.log(2.0)))


def test_mi_clamped_to_class_entropy():
    rng = np.random.default_rng(3)
    neg = rng.integers(0, 1000, size=30)
    pos = rng.integers(0, 1000, size=30)
    mi = mutual_information_bits(neg, pos)
    assert 0.0 <= mi <= 1.0


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------
def test_bootstrap_deterministic_under_fixed_seed():
    rng = np.random.default_rng(11)
    neg = list(rng.integers(0, 20, size=25))
    pos = list(rng.integers(10, 30, size=25))
    a = bootstrap_auc(neg, pos, n_boot=100, seed=123)
    b = bootstrap_auc(neg, pos, n_boot=100, seed=123)
    assert a == b


def test_bootstrap_seed_changes_the_interval():
    rng = np.random.default_rng(11)
    neg = list(rng.integers(0, 20, size=25))
    pos = list(rng.integers(10, 30, size=25))
    a = bootstrap_auc(neg, pos, n_boot=100, seed=123)
    b = bootstrap_auc(neg, pos, n_boot=100, seed=124)
    assert (a.low, a.high) != (b.low, b.high)


def test_bootstrap_interval_brackets_point_and_orders():
    rng = np.random.default_rng(5)
    neg = list(rng.integers(0, 15, size=40))
    pos = list(rng.integers(5, 20, size=40))
    ci = bootstrap_auc(neg, pos, n_boot=200, seed=9)
    assert isinstance(ci, BootstrapCI)
    assert 0.5 <= ci.low <= ci.high <= 1.0
    assert ci.point == pytest.approx(auc_separation(neg, pos))


def test_bootstrap_degenerate_separation_is_tight():
    # Identical constant populations: every resample scores exactly 0.5.
    ci = bootstrap_auc([7] * 10, [7] * 10, n_boot=50, seed=0)
    assert ci.low == ci.high == ci.point == pytest.approx(0.5)


# ----------------------------------------------------------------------
# score_populations
# ----------------------------------------------------------------------
def test_score_populations_verdict_uses_ci_lower_bound():
    separated = score_populations([1] * 20, [50] * 20, n_boot=50, seed=1)
    assert separated["leak"] is True
    assert separated["separation"] == pytest.approx(1.0)
    identical = score_populations([5] * 20, [5] * 20, n_boot=50, seed=1)
    assert identical["leak"] is False
    assert identical["mi_bits"] == pytest.approx(0.0)


def test_score_populations_is_json_ready():
    import json

    score = score_populations([1, 2, 3], [4, 5, 6], n_boot=20, seed=2)
    json.dumps(score)  # no numpy scalars may survive into the payload


# ----------------------------------------------------------------------
# the rank-based, per-replicate reference
# ----------------------------------------------------------------------
# The scorer counts symbols and draws a block of replicates per
# ``rng.integers`` call.  The reference below ranks every resample and
# draws twice per replicate; the committed security baseline was made
# with it, so every score must equal it exactly (``==``, not approx).
def _average_ranks(values):
    """1-based ranks with ties sharing their group's average rank."""
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    new_group = np.empty(values.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=new_group[1:])
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    average = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = average[group]
    return ranks


def _reference_auc(negatives, positives):
    neg = np.asarray(negatives, dtype=np.float64)
    pos = np.asarray(positives, dtype=np.float64)
    ranks = _average_ranks(np.concatenate([neg, pos]))
    u = float(ranks[neg.size:].sum()) - pos.size * (pos.size + 1) / 2.0
    return u / (neg.size * pos.size)


def _reference_separation(neg, pos):
    auc = _reference_auc(neg, pos)
    return max(auc, 1.0 - auc)


def _reference_bootstrap(negatives, positives, n_boot, seed, alpha=0.05):
    neg = np.asarray(negatives, dtype=np.float64)
    pos = np.asarray(positives, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    replicates = np.empty(n_boot, dtype=np.float64)
    for i in range(n_boot):
        neg_resample = neg[rng.integers(0, neg.size, size=neg.size)]
        pos_resample = pos[rng.integers(0, pos.size, size=pos.size)]
        replicates[i] = _reference_separation(neg_resample, pos_resample)
    low, high = np.percentile(
        replicates, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)]
    )
    return BootstrapCI(
        point=_reference_separation(neg, pos),
        low=float(low),
        high=float(high),
        n_boot=n_boot,
        seed=seed,
        alpha=alpha,
    )


def _reference_mi(negatives, positives, miller_madow=True):
    neg = np.asarray(negatives, dtype=np.float64)
    pos = np.asarray(positives, dtype=np.float64)
    total = neg.size + pos.size
    symbols, inverse = np.unique(
        np.concatenate([neg, pos]), return_inverse=True
    )
    joint = np.zeros((2, symbols.size), dtype=np.int64)
    np.add.at(joint[0], inverse[: neg.size], 1)
    np.add.at(joint[1], inverse[neg.size:], 1)

    def entropy(counts):
        probabilities = counts[counts > 0] / total
        return float(-(probabilities * np.log2(probabilities)).sum())

    class_counts = joint.sum(axis=1)
    symbol_counts = joint.sum(axis=0)
    h_class = entropy(class_counts)
    info = h_class + entropy(symbol_counts) - entropy(joint.ravel())
    if miller_madow:
        info += (
            np.count_nonzero(joint)
            - np.count_nonzero(class_counts)
            - np.count_nonzero(symbol_counts)
            + 1
        ) / (2.0 * total * math.log(2.0))
    return max(0.0, min(info, h_class))


def _population(seed, n_neg, n_pos, low, high):
    rng = np.random.default_rng(seed)
    return (
        [int(v) for v in rng.integers(low, high, size=n_neg)],
        [int(v) for v in rng.integers(low + 3, high + 3, size=n_pos)],
    )


REFERENCE_CASES = {
    "equal-sizes": _population(11, 25, 25, 0, 20),
    "unequal-sizes": _population(12, 37, 9, 0, 12),
    # a bound of 1 consumes no draws: the other class's stream must
    # not shift
    "one-positive": _population(13, 12, 1, 0, 8),
    "one-negative": _population(14, 1, 12, 0, 8),
    "all-tied": ([7] * 10, [7] * 6),
    # the spectre cell's shape: one replicate is 768 draws, so a
    # 200-replicate bootstrap spans twenty blocks
    "spectre-765+3": _population(15, 765, 3, 215, 232),
}


def _n_boot(kind, neg, pos):
    per_block = max(1, BOOT_BLOCK_DRAWS // (len(neg) + len(pos)))
    # "ragged": two full blocks and a partial one
    return {"single": 1, "default": 200, "ragged": 2 * per_block + 3}[kind]


@pytest.mark.parametrize(
    "neg,pos", REFERENCE_CASES.values(), ids=list(REFERENCE_CASES)
)
def test_point_scores_equal_the_rank_reference(neg, pos):
    assert roc_auc(neg, pos) == _reference_auc(neg, pos)
    assert auc_separation(neg, pos) == _reference_separation(neg, pos)
    for miller_madow in (True, False):
        assert mutual_information_bits(
            neg, pos, miller_madow=miller_madow
        ) == _reference_mi(neg, pos, miller_madow=miller_madow)


@pytest.mark.parametrize("kind", ["single", "default", "ragged"])
@pytest.mark.parametrize(
    "neg,pos", REFERENCE_CASES.values(), ids=list(REFERENCE_CASES)
)
def test_bootstrap_equals_the_per_replicate_reference(neg, pos, kind):
    n_boot = _n_boot(kind, neg, pos)
    assert bootstrap_auc(neg, pos, n_boot=n_boot, seed=17) == (
        _reference_bootstrap(neg, pos, n_boot, seed=17)
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=15),
    st.lists(st.integers(0, 6), min_size=1, max_size=15),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
)
def test_scores_equal_the_reference_on_small_integer_populations(
    neg, pos, n_boot, seed, block_draws
):
    """Any population, seed and block size: the draws, and so every
    replicate, match the one-replicate-at-a-time reference."""
    with mock.patch.object(stats, "BOOT_BLOCK_DRAWS", block_draws):
        ci = bootstrap_auc(neg, pos, n_boot=n_boot, seed=seed)
    assert ci == _reference_bootstrap(neg, pos, n_boot, seed)
    assert roc_auc(neg, pos) == _reference_auc(neg, pos)
    assert mutual_information_bits(neg, pos) == _reference_mi(neg, pos)


def test_bootstrap_scratch_memory_stays_bounded():
    """Blocking is what keeps a cell's memory flat: the 765 + 3
    population peaks near 0.4 MiB at n_boot=500, where drawing all 500
    replicates in one call peaks near 15 MiB."""
    neg, pos = REFERENCE_CASES["spectre-765+3"]
    bootstrap_auc(neg, pos, n_boot=500, seed=3)  # warm-up: lazy set-up
    tracemalloc.start()
    try:
        bootstrap_auc(neg, pos, n_boot=500, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
