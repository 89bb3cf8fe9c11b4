"""Statistical leakage scoring over probe-latency distributions.

The paper's security argument — and CacheBar's evaluation methodology
(Zhou et al., CCS'16) — frames a cache side channel as a
*distinguishability game*: the attacker observes probe latencies and
must decide whether the victim's secret-dependent activity happened.  A
defense works exactly when the latency distribution the attacker sees
with an active victim is indistinguishable from the one it sees without.
This module scores that game from two latency samples:

* :func:`roc_auc` — the area under the ROC curve of the optimal
  single-threshold distinguisher, computed as the Mann-Whitney U
  statistic with ties counting one half.  0.5 means the two
  populations are statistically identical (the attacker can only
  guess); 1.0 (or 0.0 — direction is arbitrary) means perfectly
  separable;
* :func:`auc_separation` — the direction-folded AUC
  ``max(auc, 1 - auc)``, so "how distinguishable" reads on one scale
  from 0.5 (no leak) to 1.0 (full leak) regardless of which class has
  the lower latencies;
* :func:`mutual_information_bits` — the plug-in estimate of
  ``I(class; latency)`` in bits per probe, with the Miller-Madow bias
  correction.  For a balanced binary secret this is bounded by 1 bit:
  0 bits means the probe carries nothing, 1 bit means each probe
  reveals the victim's activity outright;
* :func:`bootstrap_auc` — a seeded percentile bootstrap confidence
  interval over the folded AUC, so a verdict ("leaks" / "does not
  leak") rests on an interval rather than a point estimate a single
  noisy seed could flip.

Latencies are simulated cycle counts — small exact integers — so each
distinct value is one symbol (no binning heuristics): every score reads
the pooled sample's class-by-symbol count table, and all scores are
bit-reproducible given the same samples and bootstrap seed.  Degenerate
input (an empty class) raises
:class:`~repro.common.errors.LeakageStatsError` rather than returning a
number that looks meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import LeakageStatsError

#: folded-AUC separation at or above which a channel counts as leaking
LEAK_AUC_CUTOFF = 0.6

#: resampled values per bootstrap block: one ``rng.integers`` call and
#: one count table cover at most this many (or one replicate, if that
#: is larger), so a cell's scratch memory does not grow with ``n_boot``
BOOT_BLOCK_DRAWS = 8192


def _as_populations(
    negatives: Sequence[float], positives: Sequence[float], what: str
) -> Tuple[np.ndarray, np.ndarray]:
    neg = np.asarray(negatives, dtype=np.float64)
    pos = np.asarray(positives, dtype=np.float64)
    if neg.ndim != 1 or pos.ndim != 1:
        raise LeakageStatsError(f"{what}: samples must be one-dimensional")
    if neg.size == 0 or pos.size == 0:
        raise LeakageStatsError(
            f"{what}: needs samples from both classes "
            f"(got {neg.size} negative, {pos.size} positive)"
        )
    return neg, pos


def _symbol_codes(neg: np.ndarray, pos: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each pooled sample's symbol (index among the distinct values, in
    ascending order), negatives first, and the number of symbols."""
    symbols, codes = np.unique(np.concatenate([neg, pos]), return_inverse=True)
    return codes, symbols.size


def _count_table(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The 2 x K class-by-symbol counts: row 0 negatives, row 1 positives."""
    codes, k = _symbol_codes(neg, pos)
    return np.stack(
        [
            np.bincount(codes[: neg.size], minlength=k),
            np.bincount(codes[neg.size:], minlength=k),
        ]
    )


def _twice_u(neg_counts: np.ndarray, pos_counts: np.ndarray) -> np.ndarray:
    """Twice the positives' Mann-Whitney U from per-symbol counts (last
    axis): a positive beats every negative on a lower symbol and ties,
    for half, each one on its own — ``2U = Σ pos · (2·below + neg)``."""
    neg_below = np.cumsum(neg_counts, axis=-1) - neg_counts
    return (pos_counts * (2 * neg_below + neg_counts)).sum(axis=-1)


def _auc(twice_u: np.ndarray, n_neg: int, n_pos: int) -> np.ndarray:
    # U is a half-integer, exact in float64, just as the positives'
    # average-rank sum is; the division is the only rounding step.
    return (twice_u / 2.0) / (n_neg * n_pos)


def roc_auc(negatives: Sequence[float], positives: Sequence[float]) -> float:
    """P(positive sample > negative sample), ties counting one half.

    The Mann-Whitney estimator of the ROC area, counted per symbol of
    the pooled sample — the same number as ranking it (average ranks
    on ties) and subtracting the minimum positive rank sum.  Identical
    distributions score 0.5; fully separated ones score 1.0 (positives
    higher) or 0.0 (lower).
    """
    neg, pos = _as_populations(negatives, positives, "roc_auc")
    counts = _count_table(neg, pos)
    return float(_auc(_twice_u(counts[0], counts[1]), neg.size, pos.size))


def auc_separation(
    negatives: Sequence[float], positives: Sequence[float]
) -> float:
    """Direction-folded AUC: ``max(auc, 1 - auc)`` in [0.5, 1.0].

    An attacker is free to invert its decision rule, so a channel where
    victim activity *lowers* probe latency (flush+reload) and one where
    it *raises* it (flush+flush) are equally distinguishable.
    """
    auc = roc_auc(negatives, positives)
    return max(auc, 1.0 - auc)


def roc_curve(
    negatives: Sequence[float], positives: Sequence[float]
) -> List[Tuple[float, float]]:
    """The ROC polyline as (false-positive, true-positive) rate pairs.

    Points for every distinct decision threshold over the pooled sample,
    with the positive decision being ``value >= threshold``; endpoints
    (0, 0) and (1, 1) are always included.  Mostly a diagnostic — the
    scorecard records the scalar AUC — but tests use it to confirm the
    AUC matches the trapezoid area under this curve.
    """
    neg, pos = _as_populations(negatives, positives, "roc_curve")
    thresholds = np.unique(np.concatenate([neg, pos]))[::-1]
    points = [(0.0, 0.0)]
    for threshold in thresholds:
        fpr = float(np.count_nonzero(neg >= threshold)) / neg.size
        tpr = float(np.count_nonzero(pos >= threshold)) / pos.size
        points.append((fpr, tpr))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    probabilities = counts[counts > 0] / total
    return float(-(probabilities * np.log2(probabilities)).sum())


def mutual_information_bits(
    negatives: Sequence[float],
    positives: Sequence[float],
    *,
    miller_madow: bool = True,
) -> float:
    """Plug-in estimate of ``I(class; latency)`` in bits per probe.

    Latency values are discrete symbols (simulated cycles), so the joint
    distribution is a 2 x K contingency table of exact counts and the
    plug-in estimate is ``H(class) + H(latency) - H(class, latency)``.

    The plug-in estimator is biased upward on finite samples (spurious
    structure in sparse cells reads as information); ``miller_madow``
    applies the standard first-order correction — each entropy term gets
    ``(K_nonzero - 1) / (2N)`` nats added — which for the MI combination
    subtracts ``(K_joint - K_class - K_latency + 1) / (2N ln 2)`` bits.
    The result is clamped to ``[0, H(class)]``: the correction may
    otherwise push a near-zero MI slightly negative, and no binary
    observation can carry more than the class entropy.
    """
    neg, pos = _as_populations(negatives, positives, "mutual_information")
    total = neg.size + pos.size
    joint = _count_table(neg, pos)
    class_counts = joint.sum(axis=1)
    symbol_counts = joint.sum(axis=0)
    h_class = _entropy_bits(class_counts, total)
    h_symbol = _entropy_bits(symbol_counts, total)
    h_joint = _entropy_bits(joint.ravel(), total)
    info = h_class + h_symbol - h_joint
    if miller_madow:
        k_joint = int(np.count_nonzero(joint))
        k_class = int(np.count_nonzero(class_counts))
        k_symbol = int(np.count_nonzero(symbol_counts))
        info += (k_joint - k_class - k_symbol + 1) / (
            2.0 * total * math.log(2.0)
        )
    return max(0.0, min(info, h_class))


@dataclass(frozen=True)
class BootstrapCI:
    """A percentile bootstrap interval over the folded AUC."""

    point: float
    low: float
    high: float
    n_boot: int
    seed: int
    alpha: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "point": self.point,
            "low": self.low,
            "high": self.high,
            "n_boot": float(self.n_boot),
            "seed": float(self.seed),
            "alpha": self.alpha,
        }


def bootstrap_auc(
    negatives: Sequence[float],
    positives: Sequence[float],
    *,
    n_boot: int = 500,
    seed: int = 0,
    alpha: float = 0.05,
) -> BootstrapCI:
    """Seeded percentile bootstrap CI for :func:`auc_separation`.

    Each replicate resamples both classes independently with
    replacement and re-scores the folded AUC; the interval is the
    ``[alpha/2, 1 - alpha/2]`` percentile span.  The generator is a
    ``PCG64`` seeded explicitly, so the interval is a pure function of
    ``(samples, n_boot, seed, alpha)`` — the tournament's verdicts
    cannot drift between a local run and CI.

    A replicate draws ``n`` indices below ``n`` (negatives), then ``m``
    below ``m`` (positives), and is scored from its per-symbol counts.
    Replicates go in blocks of at most :data:`BOOT_BLOCK_DRAWS` draws
    (or one replicate), one ``rng.integers`` call per block with a
    per-draw bound.  NumPy draws each bounded integer from one shared
    32-bit stream, so a block consumes ``PCG64`` exactly as one call
    per class and replicate would: the interval does not depend on the
    block size.
    """
    neg, pos = _as_populations(negatives, positives, "bootstrap_auc")
    if n_boot < 1:
        raise LeakageStatsError(f"n_boot must be >= 1, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise LeakageStatsError(f"alpha must be in (0, 1), got {alpha}")
    n, m = neg.size, pos.size
    codes, k = _symbol_codes(neg, pos)
    per_replicate = n + m
    block = max(1, BOOT_BLOCK_DRAWS // per_replicate)
    # Per draw of a full block: its bound, where its class starts in the
    # pooled sample, and the first count-table slot of its (replicate,
    # class) row — replicate r's negatives count in row 2r, positives
    # in row 2r + 1.
    bounds = np.tile(np.repeat([n, m], [n, m]), block)
    class_start = np.tile(np.repeat([0, n], [n, m]), block)
    row_start = np.repeat(np.arange(2 * block) * k, np.tile([n, m], block))
    rng = np.random.Generator(np.random.PCG64(seed))
    replicates = np.empty(n_boot, dtype=np.float64)
    for first in range(0, n_boot, block):
        reps = min(block, n_boot - first)
        size = reps * per_replicate
        draws = rng.integers(0, bounds[:size])
        draws += class_start[:size]
        slots = codes[draws]
        slots += row_start[:size]
        counts = np.bincount(slots, minlength=2 * reps * k).reshape(reps, 2, k)
        auc = _auc(_twice_u(counts[:, 0], counts[:, 1]), n, m)
        replicates[first:first + reps] = np.maximum(auc, 1.0 - auc)
    low, high = np.percentile(
        replicates, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)]
    )
    return BootstrapCI(
        point=auc_separation(neg, pos),
        low=float(low),
        high=float(high),
        n_boot=n_boot,
        seed=seed,
        alpha=alpha,
    )


def score_populations(
    negatives: Sequence[float],
    positives: Sequence[float],
    *,
    n_boot: int = 500,
    seed: int = 0,
) -> Dict[str, object]:
    """The full per-cell score the tournament records.

    One call, one JSON-ready dict: directional AUC, folded separation,
    its bootstrap interval (at :func:`bootstrap_auc`'s default
    ``alpha``), mutual information, sample sizes, and the leak verdict.
    The verdict is interval-based — ``leak`` is True only when the
    *lower* confidence bound clears :data:`LEAK_AUC_CUTOFF`, so a single
    lucky resample cannot promote noise into a leak (nor, on the gate's
    sanity direction, demote a real leak — that check uses the upper
    bound).  Every cell records the ``alpha`` and ``leak_cutoff`` it was
    scored at.
    """
    ci = bootstrap_auc(negatives, positives, n_boot=n_boot, seed=seed)
    return {
        "auc": roc_auc(negatives, positives),
        "separation": ci.point,
        "ci_low": ci.low,
        "ci_high": ci.high,
        "mi_bits": mutual_information_bits(negatives, positives),
        "n_neg": len(negatives),
        "n_pos": len(positives),
        "n_boot": n_boot,
        "alpha": ci.alpha,
        "leak": bool(ci.low >= LEAK_AUC_CUTOFF),
        "leak_cutoff": LEAK_AUC_CUTOFF,
    }
