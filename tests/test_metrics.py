import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paucopt.metrics import (
    MetricError,
    PaucReport,
    bottom_positives,
    closed_form_optimum,
    empirical_auc,
    empirical_opauc,
    empirical_tpauc,
    pairwise_surrogate_risk,
    roc_curve,
    roc_points,
    top_negatives,
)

POS = [0.9, 0.4]
NEG = [0.8, 0.3, 0.1]


def neg_quantile_threshold(scores_neg, beta: float) -> float:
    """Empirical upper score quantile: the k-th largest negative score."""
    return float(top_negatives(scores_neg, beta)[-1])


def pos_quantile_threshold(scores_pos, alpha: float) -> float:
    """Empirical lower score quantile: the k-th smallest positive score."""
    return float(bottom_positives(scores_pos, alpha)[-1])


# Slow oracles: the pair-matrix and per-threshold-loop forms of the exact
# metrics. The library counts the same pairs and thresholds from sorted
# scores in O(n log n) and must agree with these bit for bit.

def oracle_pair_value(pos: np.ndarray, neg: np.ndarray) -> float:
    # 0-1 loss is 1{f_pos < f_neg}: strict inequality, ties rank correctly
    bad = (pos[:, None] < neg[None, :]).mean()
    return float(1.0 - bad)


def oracle_top_negatives(neg: np.ndarray, k: int) -> np.ndarray:
    return np.sort(neg)[::-1][:k]


def oracle_bottom_positives(pos: np.ndarray, k: int) -> np.ndarray:
    return np.sort(pos)[:k]


def oracle_roc_curve(pos: np.ndarray, neg: np.ndarray):
    allscores = np.concatenate([pos, neg])
    order = np.argsort(-allscores, kind="stable")
    rows = [(0.0, 0.0)]
    for t in allscores[order]:
        tpr = float((pos >= t).mean())
        fpr = float((neg >= t).mean())
        rows.append((fpr, tpr))
    return rows


def assert_roc_points_match_oracle(pos: np.ndarray, neg: np.ndarray):
    """roc_points gives two float64 arrays of n + 1 points that hold the loop
    oracle's FPR and TPR columns bit for bit."""
    points = roc_points(pos, neg)
    columns = np.array(oracle_roc_curve(pos, neg)).T
    assert len(points) == 2
    for got, want in zip(points, columns):
        assert got.dtype == np.float64 and got.shape == (len(pos) + len(neg) + 1,)
        assert got.view(np.int64).tolist() == np.ascontiguousarray(want).view(np.int64).tolist()


def oracle_reports(pos: np.ndarray, neg: np.ndarray, k_pos: int, k_neg: int,
                   alpha: float, beta: float):
    sel_pos = oracle_bottom_positives(pos, k_pos)
    sel_neg = oracle_top_negatives(neg, k_neg)
    return (
        PaucReport("AUC", 1.0, 1.0, oracle_pair_value(pos, neg), len(pos), len(neg)),
        PaucReport("OPAUC", 1.0, beta, oracle_pair_value(pos, sel_neg),
                   len(pos), k_neg),
        PaucReport("TPAUC", alpha, beta, oracle_pair_value(sel_pos, sel_neg),
                   k_pos, k_neg),
    )


@st.composite
def tie_heavy_case(draw):
    """Scores on a coarse half-integer grid, and a fraction giving k >= 1."""
    grid = st.integers(-4, 4).map(lambda i: i / 2.0)
    pos = np.array(draw(st.lists(grid, min_size=1, max_size=40)))
    neg = np.array(draw(st.lists(grid, min_size=1, max_size=40)))
    k_pos = draw(st.integers(1, len(pos)))
    k_neg = draw(st.integers(1, len(neg)))
    # a fraction just above k/n, so floor(n * fraction) = k
    alpha = min(1.0, (k_pos + draw(st.sampled_from([0.0, 0.25, 0.5]))) / len(pos))
    beta = min(1.0, (k_neg + draw(st.sampled_from([0.0, 0.25, 0.5]))) / len(neg))
    return pos, neg, k_pos, k_neg, alpha, beta


class TestAgainstOracles:
    @given(tie_heavy_case())
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_exact(self, case):
        pos, neg, k_pos, k_neg, alpha, beta = case
        assert (empirical_auc(pos, neg), empirical_opauc(pos, neg, beta),
                empirical_tpauc(pos, neg, alpha, beta)) == oracle_reports(
                    pos, neg, k_pos, k_neg, alpha, beta)
        top, bottom = top_negatives(neg, beta), bottom_positives(pos, alpha)
        assert top.tolist() == oracle_top_negatives(neg, k_neg).tolist()
        assert bottom.tolist() == oracle_bottom_positives(pos, k_pos).tolist()
        assert (neg_quantile_threshold(neg, beta)
                == float(oracle_top_negatives(neg, k_neg)[-1]))
        assert (pos_quantile_threshold(pos, alpha)
                == float(oracle_bottom_positives(pos, k_pos)[-1]))
        assert roc_curve(pos, neg) == oracle_roc_curve(pos, neg)
        assert_roc_points_match_oracle(pos, neg)

    def test_nan_and_infinite_scores(self):
        pos = np.array([np.nan, 0.5, -np.inf, 0.5, np.inf])
        neg = np.array([0.5, np.nan, np.inf, -1.0, np.nan, -np.inf])
        assert empirical_auc(pos, neg).value == oracle_pair_value(pos, neg)
        assert roc_curve(pos, neg) == oracle_roc_curve(pos, neg)
        assert_roc_points_match_oracle(pos, neg)
        for k in range(1, len(neg) + 1):
            np.testing.assert_array_equal(top_negatives(neg, k / len(neg)),
                                          oracle_top_negatives(neg, k))

    def test_scale_without_pair_matrix(self):
        # 2e4 x 1.8e5 pairs would need a ~3.6 GB boolean matrix
        rng = np.random.default_rng(0)
        pos = np.round(rng.normal(1.0, 1.0, 20_000), 2)
        neg = np.round(rng.normal(0.0, 1.0, 180_000), 2)
        for fn in (empirical_auc, roc_points, roc_curve):
            t0 = time.perf_counter()
            fn(pos, neg)
            assert time.perf_counter() - t0 < 2.0, fn.__name__


class TestQuantiles:
    def test_neg_threshold(self):
        assert neg_quantile_threshold(NEG, 0.4) == 0.8

    def test_neg_full_range(self):
        assert neg_quantile_threshold(NEG, 1.0) == 0.1

    def test_neg_ties(self):
        assert neg_quantile_threshold([0.5, 0.5, 0.1], 0.67) == 0.5

    def test_pos_threshold(self):
        assert pos_quantile_threshold(POS, 0.5) == 0.4

    def test_pos_full_range(self):
        assert pos_quantile_threshold(POS, 1.0) == 0.9

    def test_pos_singleton(self):
        assert pos_quantile_threshold([0.7], 1.0) == 0.7

    def test_floor_zero_rejected(self):
        with pytest.raises(MetricError):
            neg_quantile_threshold(NEG, 0.1)

    def test_quantile_consistency_distinct_scores(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            neg = rng.permutation(np.linspace(0, 1, 17))
            beta = rng.uniform(1 / 17, 1.0)
            thr = neg_quantile_threshold(neg, beta)
            assert (neg >= thr).sum() == int(17 * beta + 1e-9)


@pytest.mark.parametrize("make,message", [
    (lambda: empirical_auc([], NEG), "empty class"),
    (lambda: empirical_opauc(POS, [], 0.5), "empty class"),
    (lambda: empirical_tpauc(POS, NEG, 0.4, 0.4),
     r"floor\(n_pos\*alpha\) = 0 for n_pos=2, alpha=0.4"),
    (lambda: empirical_opauc(POS, NEG, 0.3),
     r"floor\(n_neg\*beta\) = 0 for n_neg=3, beta=0.3"),
    (lambda: empirical_opauc(POS, NEG, 1.5), r"beta must lie in \(0,1\], got 1.5"),
    (lambda: empirical_tpauc(POS, NEG, float("nan"), 0.5), "alpha must lie in"),
    (lambda: pairwise_surrogate_risk(POS, NEG, 1.0, 1.0, "AUC"), "unknown metric kind 'AUC'"),
    (lambda: closed_form_optimum(POS, NEG, 1.0, 1.0, "AUC"), "unknown metric kind 'AUC'"),
    (lambda: closed_form_optimum(POS, NEG, 1.0, 1.0, "opauc"), "unknown metric kind 'opauc'"),
], ids=["auc-empty", "opauc-empty", "alpha-floor", "beta-floor", "beta-above-one",
        "alpha-nan", "risk-auc", "optimum-auc", "optimum-lowercase"])
def test_invalid_input_raises(make, message):
    with pytest.raises(MetricError, match=message):
        make()


class TestPartialAuc:
    def test_opauc_example(self):
        assert empirical_opauc(POS, NEG, 0.4).value == 0.5

    def test_opauc_beta_one_is_auc(self):
        assert empirical_opauc(POS, NEG, 1.0).value == pytest.approx(5 / 6)

    def test_tpauc_example(self):
        assert empirical_tpauc(POS, NEG, 0.5, 0.4).value == 0.0

    def test_tpauc_degenerates_to_auc(self):
        assert empirical_tpauc(POS, NEG, 1.0, 1.0).value == pytest.approx(5 / 6)

    def test_separated_scores(self):
        rep = empirical_opauc([0.9, 0.8], [0.2, 0.1], 0.5)
        assert rep.value == 1.0
        assert empirical_tpauc([0.9, 0.8], [0.2, 0.1], 0.5, 0.5).value == 1.0

    def test_ties_rank_correctly(self):
        # strict inequality in the 0-1 loss: equal scores are not inversions
        assert empirical_auc([0.5], [0.5]).value == 1.0

    def test_report_fields(self):
        rep = empirical_tpauc(POS, NEG, 0.5, 0.4)
        assert rep.n_pos_used == 1
        assert rep.n_neg_used == 1
        assert rep.metric_kind == "TPAUC"

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_degenerations_random(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 1, int(rng.integers(1, 20)))
        neg = rng.uniform(0, 1, int(rng.integers(1, 20)))
        beta = rng.uniform(1 / len(neg), 1.0)
        assert (empirical_tpauc(pos, neg, 1.0, beta).value
                == empirical_opauc(pos, neg, beta).value)
        assert (empirical_opauc(pos, neg, 1.0).value
                == empirical_auc(pos, neg).value)


class TestPairwiseRisk:
    def test_hand_example(self):
        assert pairwise_surrogate_risk(POS, NEG, 1.0, 0.4) == pytest.approx(1.385)

    def test_all_equal_scores(self):
        assert pairwise_surrogate_risk([0.5] * 3, [0.5] * 4, 1.0, 1.0) == 1.0

    def test_wide_margin(self):
        assert pairwise_surrogate_risk([0.9], [0.1], 1.0, 1.0) == pytest.approx(0.04)


class TestClosedFormOptimum:
    def test_hand_example(self):
        opt = closed_form_optimum(POS, NEG, 1.0, 0.4)
        assert opt.a_star == pytest.approx(0.65)
        assert opt.b_star == pytest.approx(0.8)
        assert opt.gamma_star == pytest.approx(0.15)
        assert opt.min_value == pytest.approx(0.385)

    def test_matches_pairwise_risk(self):
        risk = pairwise_surrogate_risk(POS, NEG, 1.0, 0.4)
        opt = closed_form_optimum(POS, NEG, 1.0, 0.4)
        assert risk == pytest.approx(1.0 + opt.min_value, abs=1e-10)

    def test_zero_variance_identical_means(self):
        opt = closed_form_optimum([0.5, 0.5], [0.5, 0.5], 1.0, 1.0)
        assert opt.min_value == pytest.approx(0.0)

    def test_singletons(self):
        opt = closed_form_optimum([0.9], [0.2], 1.0, 1.0)
        d = 0.2 - 0.9
        assert opt.min_value == pytest.approx(d ** 2 + 2 * d)

    def test_gamma_is_mean_gap(self):
        opt = closed_form_optimum(POS, NEG, 0.5, 0.4, "TPAUC")
        assert abs(opt.gamma_star - (opt.b_star - opt.a_star)) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equivalence_random(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 1, int(rng.integers(1, 25)))
        neg = rng.uniform(0, 1, int(rng.integers(1, 25)))
        alpha = rng.uniform(1 / len(pos), 1.0)
        beta = rng.uniform(1 / len(neg), 1.0)
        for kind, al in (("OPAUC", 1.0), ("TPAUC", alpha)):
            risk = pairwise_surrogate_risk(pos, neg, al, beta, kind)
            opt = closed_form_optimum(pos, neg, al, beta, kind)
            assert risk == pytest.approx(1.0 + opt.min_value, abs=1e-10)


# a coarse grid, so ties are common, with both zeros, NaN and the infinities
_ROC_GRID = st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.nan, np.inf,
                                      -np.inf]), min_size=1, max_size=40)


class TestRocPoints:
    @given(_ROC_GRID, _ROC_GRID)
    @settings(max_examples=300, deadline=None)
    def test_sorted_and_unsorted_classes_match_oracle(self, pos, neg):
        pos, neg = np.array(pos), np.array(neg)
        given_bits = [pos.tobytes(), neg.tobytes()]
        assert_roc_points_match_oracle(pos, neg)
        # sorted as cmd_evaluate passes them, NaN last
        assert_roc_points_match_oracle(np.sort(pos), np.sort(neg))
        assert [pos.tobytes(), neg.tobytes()] == given_bits

    @pytest.mark.parametrize("ordered", [True, False], ids=["sorted", "unsorted"])
    def test_peak_allocation_beside_its_inputs(self, ordered):
        n = 200_000
        scores = np.random.default_rng(7).standard_normal(n)
        pos, neg = scores[:n // 10], scores[n // 10:]
        if ordered:
            pos, neg = np.sort(pos), np.sort(neg)
        tracemalloc.start()
        try:
            roc_points(pos, neg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The thresholds and the two results, three n-length float arrays, and
        # one block's counts (under 1 MB); unsorted classes add their sorted
        # copies, n floats in all. Five n-length arrays at once read 8 MB.
        arrays = 3 if ordered else 4
        assert peak <= arrays * 8 * (n + 1) + (1 << 20), peak


class TestRocCurve:
    def test_row_count(self):
        rows = roc_curve(POS, NEG)
        assert len(rows) == len(POS) + len(NEG) + 1

    def test_endpoints(self):
        rows = roc_curve(POS, NEG)
        assert rows[0] == (0.0, 0.0)
        assert rows[-1] == (1.0, 1.0)

    def test_monotone(self):
        rng = np.random.default_rng(3)
        rows = roc_curve(rng.uniform(0, 1, 10), rng.uniform(0, 1, 15))
        fprs = [r[0] for r in rows]
        tprs = [r[1] for r in rows]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)
