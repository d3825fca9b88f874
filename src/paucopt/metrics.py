"""Exact empirical ranking metrics.

Covers full AUC, one-way partial AUC (small false-positive rates), two-way
partial AUC (joint TPR/FPR constraints), the top/bottom score selections
they rank over and the ROC sweep, each in O(n log n) from sorted scores
without a pair matrix; the pair-enumerating and per-threshold-loop oracles
they must match bit for bit live in the tests. Also covers the pairwise
squared-surrogate risk over the constrained pair set, which enumerates pairs
on purpose as the reference for the instance-wise reformulation, and its
closed-form instance-wise optimum.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import row_blocks


class MetricError(ValueError):
    """Raised when a metric precondition fails (empty class, bad fraction, zero floor)."""


@dataclass(frozen=True)
class PaucReport:
    metric_kind: str  # "AUC" | "OPAUC" | "TPAUC"
    alpha: float
    beta: float
    value: float
    n_pos_used: int
    n_neg_used: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class ClosedFormOptimum:
    a_star: float
    b_star: float
    gamma_star: float
    min_value: float


def _as_scores(scores) -> np.ndarray:
    out = np.asarray(scores, dtype=np.float64).ravel()
    if out.size == 0:
        raise MetricError("empty class")
    return out


def _count(n: int, frac: float, side: str, name: str) -> int:
    """floor(n * frac) for frac in (0, 1], which must be at least 1; side and
    name spell it in errors, as in floor(n_neg*beta)."""
    if not 0.0 < frac <= 1.0:
        raise MetricError(f"{name} must lie in (0,1], got {frac!r}")
    # tolerate IEEE round-off in products like 10*0.7 = 6.999...
    k = int(np.floor(n * frac + 1e-9))
    if k < 1:
        raise MetricError(f"floor(n_{side}*{name}) = 0 for n_{side}={n}, {name}={frac}")
    return k


def top_negatives(scores_neg, beta: float) -> np.ndarray:
    """The floor(n_neg*beta) largest negative scores, largest first."""
    neg = _as_scores(scores_neg)
    k = _count(len(neg), beta, "neg", "beta")
    cut = len(neg) - k
    return np.sort(np.partition(neg, cut)[cut:])[::-1]


def bottom_positives(scores_pos, alpha: float) -> np.ndarray:
    """The floor(n_pos*alpha) smallest positive scores, smallest first."""
    pos = _as_scores(scores_pos)
    k = _count(len(pos), alpha, "pos", "alpha")
    return np.sort(np.partition(pos, k - 1)[:k])


def _pair_value(pos: np.ndarray, neg: np.ndarray) -> float:
    # 0-1 loss is 1{f_pos < f_neg}: strict inequality, ties rank correctly.
    # searchsorted(side="left") counts the positives strictly below each
    # negative (the Mann-Whitney U count); sorting puts NaN last, so a NaN
    # positive is never counted and a NaN negative is dropped, as `<` does.
    below = np.searchsorted(np.sort(pos), neg[~np.isnan(neg)], side="left")
    bad = int(below.sum()) / (len(pos) * len(neg))
    return float(1.0 - bad)


def _selected(scores_pos, scores_neg, alpha, beta, metric_kind,
              kinds=("OPAUC", "TPAUC")):
    """The scores metric_kind, one of kinds, ranks over: the bottom-alpha positives
    for TPAUC (else all) and the top-beta negatives (all for AUC)."""
    if metric_kind not in kinds:
        raise MetricError(f"unknown metric kind {metric_kind!r}")
    pos, neg = _as_scores(scores_pos), _as_scores(scores_neg)
    if metric_kind == "TPAUC":
        pos = bottom_positives(pos, alpha)
    if metric_kind != "AUC":
        neg = top_negatives(neg, beta)
    return pos, neg


def _report(metric_kind, scores_pos, scores_neg, alpha=1.0, beta=1.0) -> PaucReport:
    pos, neg = _selected(scores_pos, scores_neg, alpha, beta, metric_kind,
                         ("AUC", "OPAUC", "TPAUC"))
    return PaucReport(metric_kind, alpha, beta, _pair_value(pos, neg), len(pos), len(neg))


def empirical_auc(scores_pos, scores_neg) -> PaucReport:
    """Full AUC with strict-inequality 0-1 loss."""
    return _report("AUC", scores_pos, scores_neg)


def empirical_opauc(scores_pos, scores_neg, beta: float) -> PaucReport:
    """Partial AUC over all positives x the top-beta fraction of negatives."""
    return _report("OPAUC", scores_pos, scores_neg, beta=beta)


def empirical_tpauc(scores_pos, scores_neg, alpha: float, beta: float) -> PaucReport:
    """Partial AUC over bottom-alpha positives x top-beta negatives."""
    return _report("TPAUC", scores_pos, scores_neg, alpha, beta)


def pairwise_surrogate_risk(scores_pos, scores_neg, alpha: float, beta: float,
                            metric_kind: str = "OPAUC") -> float:
    """Mean squared-margin loss (1 - (f_pos - f_neg))^2 over the constrained pairs."""
    sel_pos, sel_neg = _selected(scores_pos, scores_neg, alpha, beta, metric_kind)
    diff = 1.0 - (sel_pos[:, None] - sel_neg[None, :])
    return float(np.mean(diff ** 2))


def closed_form_optimum(scores_pos, scores_neg, alpha: float, beta: float,
                        metric_kind: str = "OPAUC") -> ClosedFormOptimum:
    """Closed-form minimum of the instance-wise reformulation.

    The optimal centers are the selected-class score means; the saddle value
    satisfies pairwise_surrogate_risk = 1 + min_value.
    """
    sel_pos, sel_neg = _selected(scores_pos, scores_neg, alpha, beta, metric_kind)
    a_star, b_star = float(sel_pos.mean()), float(sel_neg.mean())
    delta = b_star - a_star
    e_a = float(np.mean((sel_pos - a_star) ** 2))
    e_b = float(np.mean((sel_neg - b_star) ** 2))
    return ClosedFormOptimum(a_star, b_star, delta,
                             e_a + e_b + delta ** 2 + 2.0 * delta)


def _ranked(scores: np.ndarray) -> np.ndarray:
    """scores' non-NaN values in ascending order: scores' own head when they
    are sorted already, as np.sort leaves them (NaN last), else a sorted copy's."""
    head = scores[:len(scores) - np.count_nonzero(np.isnan(scores))]
    if np.isnan(head).any() or np.any(head[1:] < head[:-1]):
        return np.sort(scores)[:len(head)]
    return head


def _share_at_or_above(ranked: np.ndarray, size: int, thresholds: np.ndarray) -> np.ndarray:
    """0, then for each threshold t the fraction of a class of size scores, whose
    non-NaN scores are ranked, that are >= t; NaN is never >= t. The counts are
    taken one row_blocks block at a time."""
    share = np.empty(len(thresholds) + 1)
    share[0] = 0.0
    for block in row_blocks(len(thresholds), 1):
        at_or_above = np.searchsorted(ranked, thresholds[block], side="left")
        np.subtract(len(ranked), at_or_above, out=at_or_above)
        np.divide(at_or_above, size, out=share[block.start + 1:block.stop + 1])
    return share


def roc_points(scores_pos, scores_neg) -> tuple[np.ndarray, np.ndarray]:
    """ROC sweep: the (0,0) endpoint, then one (FPR, TPR) point per score
    threshold, as two float64 arrays.

    Points run in threshold-descending order, giving exactly
    n_pos + n_neg + 1 of them; a point at a tied threshold counts every
    instance with score >= threshold as predicted positive.

    Besides its inputs the call holds the thresholds and the two results,
    three n-length arrays, and a sorted copy of a class only when that class
    is not sorted already (cmd_evaluate passes both sorted).
    """
    pos, neg = _as_scores(scores_pos), _as_scores(scores_neg)
    ranked_pos, ranked_neg = _ranked(pos), _ranked(neg)
    # descending, NaN last: the negated scores sorted in place, negated back
    thresholds = np.concatenate([pos, neg])
    np.negative(thresholds, out=thresholds)
    thresholds.sort()
    np.negative(thresholds, out=thresholds)
    return (_share_at_or_above(ranked_neg, len(neg), thresholds),
            _share_at_or_above(ranked_pos, len(pos), thresholds))


def roc_curve(scores_pos, scores_neg) -> list[tuple[float, float]]:
    """roc_points as a list of (FPR, TPR) rows."""
    return list(zip(*(a.tolist() for a in roc_points(scores_pos, scores_neg))))
