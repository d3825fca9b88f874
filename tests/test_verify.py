import json
import math

import numpy as np
import pytest

from paucopt.metrics import closed_form_optimum, pairwise_surrogate_risk
from paucopt.objectives import ObjectiveConfig, softplus
from paucopt.verify import (
    check_hinge_weight_identity,
    check_monotone_branches,
    check_softplus_gap,
    reports_to_json,
    run_all_checks,
    topk_threshold_min,
    _threshold_objective_min_hinge,
    _threshold_objective_min_soft,
)


class TestReformulationEquivalence:
    def test_d0_dataset_exact(self):
        risk = pairwise_surrogate_risk([0.9, 0.4], [0.8, 0.3, 0.1], 1.0, 0.4)
        opt = closed_form_optimum([0.9, 0.4], [0.8, 0.3, 0.1], 1.0, 0.4)
        assert abs(risk - (1.0 + opt.min_value)) < 1e-14

    def test_constant_scores(self):
        risk = pairwise_surrogate_risk([0.3] * 4, [0.3] * 6, 1.0, 0.5)
        opt = closed_form_optimum([0.3] * 4, [0.3] * 6, 1.0, 0.5)
        assert risk == 1.0
        assert opt.min_value == pytest.approx(0.0)


class TestTopkThreshold:
    def test_top1(self):
        assert topk_threshold_min(np.array([3.0, 2.0, 1.0]), 1) == 3.0

    def test_k_equals_n(self):
        x = np.array([3.0, 2.0, 1.0])
        assert topk_threshold_min(x, 3) == pytest.approx(2.0)


class TestSoftplusGap:
    def test_inner_minimizers_agree_in_the_limit(self):
        rng = np.random.default_rng(0)
        losses = rng.uniform(0, 3, 25)
        hinge = _threshold_objective_min_hinge(losses, 0.4)
        soft = _threshold_objective_min_soft(losses, 0.4, 1024.0)
        assert abs(soft - hinge) <= 7e-4  # ln2/1024

    def test_gap_within_bound_each_kappa(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            losses = rng.uniform(0, 4, 20)
            beta = rng.uniform(0.1, 1.0)
            hinge = _threshold_objective_min_hinge(losses, beta)
            for kappa in (2.0, 8.0, 32.0):
                soft = _threshold_objective_min_soft(losses, beta, kappa)
                assert 0.0 <= soft - hinge <= math.log(2) / kappa + 1e-12

    @pytest.mark.parametrize("kappa", [2.0, 32.0])
    def test_losses_above_the_box_take_its_upper_end(self, kappa):
        # every loss lies far above s' = 5, so the derivative is negative on
        # the whole box and the minimum sits at its upper end
        losses, beta = np.full(10, 100.0), 0.3
        lo, hi = ObjectiveConfig().boxes["s_prime"]
        soft = _threshold_objective_min_soft(losses, beta, kappa)
        assert soft == beta * hi + np.mean(softplus(losses - hi, kappa))
        grid = np.linspace(lo, hi, 5001)
        on_grid = beta * grid + np.mean(softplus(losses[None, :] - grid[:, None], kappa), axis=1)
        assert soft <= on_grid.min()

    def test_growing_gap_fails_the_check(self, monkeypatch):
        # a gap of 0.001*k at the k-th kappa stays below ln2/kappa throughout,
        # so only the rule that it must not grow along the sweep can fail it
        step = {2: 1, 4: 2, 8: 3, 16: 4, 32: 5}

        def growing(losses, beta, kappa):
            return _threshold_objective_min_hinge(losses, beta) + 0.001 * step[kappa]

        monkeypatch.setattr("paucopt.verify._threshold_objective_min_soft", growing)
        rep = check_softplus_gap(trials=3, seed=0)
        assert not rep.passed
        assert rep.max_deviation == pytest.approx(0.001, abs=1e-12)


class TestSmallChecks:
    def test_monotone_branches(self):
        rep = check_monotone_branches(1000, seed=0)
        assert rep.passed

    def test_hand_monotone_case(self):
        from paucopt.objectives import neg_branch_N
        assert neg_branch_N(0.2, 1.0, 0.0) <= neg_branch_N(0.8, 1.0, 0.0)

    def test_hinge_weight_identity(self):
        rep = check_hinge_weight_identity(1000, seed=0)
        assert rep.passed
        assert rep.max_deviation == 0.0


def run_checks(**kwargs):
    return [check() for check in run_all_checks(**kwargs)]


class TestRunAll:
    def test_all_pass_and_serialize(self):
        reports = run_checks(seed=0, trials=50)
        assert all(r.passed for r in reports)
        doc = json.loads(reports_to_json(reports))
        assert {d["name"] for d in doc} == {
            "reformulation_equivalence", "topk_threshold", "softplus_gap",
            "monotone_branches", "hinge_weight_identity"}

    def test_only_filter(self):
        reports = run_checks(seed=0, only={"topk_threshold"}, trials=10)
        assert [r.name for r in reports] == ["topk_threshold"]
        assert reports[0].trials == 10

    def test_deterministic(self):
        a = run_checks(seed=3, trials=20)
        b = run_checks(seed=3, trials=20)
        assert [r.max_deviation for r in a] == [r.max_deviation for r in b]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        # each check would run no trial and report a pass
        with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
            run_all_checks(trials=trials)

