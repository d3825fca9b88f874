import json
import math

import numpy as np
import pytest

from paucopt.data import generate_synthetic, split, SplitSpec
from paucopt.metrics import closed_form_optimum, pairwise_surrogate_risk
from paucopt.objectives import ObjectiveConfig
from paucopt.scorer import init_scorer, warmup_logistic
from paucopt.solver import SolverConfig
from paucopt.verify import (
    check_hinge_weight_identity,
    check_monotone_branches,
    check_reformulation_equivalence,
    check_softplus_gap,
    check_topk_threshold,
    reports_to_json,
    run_all_checks,
    run_bias_sweep,
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

    def test_500_trials_pass(self):
        rep = check_reformulation_equivalence(500, seed=0)
        assert rep.passed
        assert rep.max_deviation <= 1e-10


class TestTopkThreshold:
    def test_top1(self):
        assert topk_threshold_min(np.array([3.0, 2.0, 1.0]), 1) == 3.0

    def test_k_equals_n(self):
        x = np.array([3.0, 2.0, 1.0])
        assert topk_threshold_min(x, 3) == pytest.approx(2.0)

    def test_500_trials_pass(self):
        rep = check_topk_threshold(500, seed=0)
        assert rep.passed


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

    def test_full_check_passes(self):
        rep = check_softplus_gap(trials=100, seed=0)
        assert rep.passed


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


class TestRunAll:
    def test_all_pass_and_serialize(self):
        reports = run_all_checks(seed=0, trials=50)
        assert all(r.passed for r in reports)
        doc = json.loads(reports_to_json(reports))
        assert {d["name"] for d in doc} == {
            "reformulation_equivalence", "topk_threshold", "softplus_gap",
            "monotone_branches", "hinge_weight_identity"}

    def test_only_filter(self):
        reports = run_all_checks(seed=0, only={"topk_threshold"}, trials=10)
        assert len(reports) == 1

    def test_deterministic(self):
        a = run_all_checks(seed=3, trials=20)
        b = run_all_checks(seed=3, trials=20)
        assert [r.max_deviation for r in a] == [r.max_deviation for r in b]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        # each check would run no trial and report a pass
        with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
            run_all_checks(trials=trials)


@pytest.mark.slow
class TestBiasSweep:
    def test_orderings(self):
        seed = 0
        ds = generate_synthetic(2000, 0.3, 5, 1.0, seed=seed)
        tr, _, _ = split(ds, SplitSpec(seed=seed))
        scorer = warmup_logistic(init_scorer("linear", 5, seed=seed), tr, 2,
                                 0.3, seed=seed)
        base = ObjectiveConfig("OPAUC", "surrogate", 1.0, 0.3, 2.0, 0.1,
                               prior_p=tr.prior_p)
        cfg = SolverConfig(nu=0.05, lam=1.0, k_coef=1.0, m_coef=27.0, T=3000,
                           batch_pos=32, batch_neg=224, seed=seed,
                           freeze_theta=True, eval_every=3000)
        rows = run_bias_sweep(tr, scorer, [2.0, 32.0], base, cfg)
        dev = {(r["kind"], r["kappa"]): r["beta_dev"] for r in rows}
        hinge_dev = [v for (k, _), v in dev.items() if k == "unbiased"][0]
        assert hinge_dev <= dev[("surrogate", 2.0)]
        assert dev[("surrogate", 32.0)] <= dev[("surrogate", 2.0)]
