import math

import numpy as np
import pytest

import paucopt.objectives
from paucopt.data import Dataset, Minibatch, generate_synthetic, stratified_sample
from paucopt.objectives import (
    MaxVars,
    MinVars,
    ObjectiveConfig,
    ObjectiveError,
    best_response,
    evaluate,
    hinged_ids,
    neg_branch_N,
    pos_branch_P,
    softplus,
)
from paucopt.scorer import ScorerParams, init_scorer, param_count, score_batch
from paucopt.solver import SolverConfig, asgda_step, init_state

from points import evaluate_at


def project_min(mv, cfg):
    """A MinVars clamped onto the box the solver clamps tau onto."""
    return mv.with_flat(np.clip(mv.flat(), *cfg.tau_box(mv.theta.n_params)))


def const_scorer_ds(*scores_and_labels):
    """1-feature dataset + zero-weight linear scorer so every f = 0.5."""
    labels = np.array([y for _, y in scores_and_labels])
    feats = np.zeros((len(labels), 1))
    return ScorerParams("linear", (1, 1), np.zeros(2)), Dataset(feats, labels)


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(0.0, 2.0) == pytest.approx(math.log(2) / 2)

    def test_large_argument_no_overflow(self):
        assert softplus(10.0, 4.0) == pytest.approx(10.0, abs=1e-12)
        assert softplus(1000.0, 32.0) == 1000.0

    def test_very_negative(self):
        assert softplus(-1000.0, 32.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 8.0, 32.0])
    def test_hinge_gap_bound_on_grid(self, kappa):
        x = np.linspace(-5, 5, 2001)
        gap = softplus(x, kappa) - np.maximum(x, 0.0)
        assert gap.min() >= 0.0
        assert gap.max() <= math.log(2) / kappa + 1e-12
        # supremum attained at the kink
        assert softplus(0.0, kappa) == pytest.approx(math.log(2) / kappa)


class TestBranches:
    def test_hand_values(self):
        assert pos_branch_P(0.5, 0.5, 0.0) == pytest.approx(-1.0)
        assert neg_branch_N(0.5, 0.5, 0.0) == pytest.approx(1.0)

    def test_neg_branch_monotone_on_admissible_gamma(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            b = rng.uniform(0, 1)
            g = rng.uniform(b - 1, 1)
            f1, f2 = np.sort(rng.uniform(0, 1, 2))
            assert neg_branch_N(f1, b, g) <= neg_branch_N(f2, b, g) + 1e-12

    def test_pos_branch_decreasing_on_admissible_gamma(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = rng.uniform(0, 1, 2)
            g = rng.uniform(max(-a, b - 1), 1)
            f1, f2 = np.sort(rng.uniform(0, 1, 2))
            assert pos_branch_P(f2, a, g) <= pos_branch_P(f1, a, g) + 1e-12

    def test_monotonicity_fails_just_outside_the_domain(self):
        # the ranges above are exactly the domain: for gamma < b - 1, N
        # decreases on [0, b - 1 - gamma); for gamma < -a, P increases above
        # a + 1 + gamma
        assert neg_branch_N(0.1, 0.8, -0.5) == pytest.approx(0.59)
        assert neg_branch_N(0.2, 0.8, -0.5) == pytest.approx(0.56)
        assert pos_branch_P(0.85, 0.5, -0.7) == pytest.approx(-0.3875)
        assert pos_branch_P(0.95, 0.5, -0.7) == pytest.approx(-0.3675)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            # N(f) = f^2 - 2*eps*f + b^2 at gamma = b - 1 - eps: N(eps) = N(0) - eps^2;
            # P(f) = (f - 1 + eps)^2 + const at gamma = -a - eps: P(1) = P(1 - eps) + eps^2
            a, b = rng.uniform(0, 0.98), rng.uniform(0.02, 1)
            eps = rng.uniform(0.01, b)
            assert neg_branch_N(eps, b, b - 1 - eps) < neg_branch_N(0.0, b, b - 1 - eps)
            eps = rng.uniform(0.01, 1 - a)
            assert pos_branch_P(1.0, a, -a - eps) > pos_branch_P(1.0 - eps, a, -a - eps)


class TestConfig:
    def test_bad_formulation(self):
        with pytest.raises(ObjectiveError):
            ObjectiveConfig(formulation="exact")

    def test_surrogate_requires_positive_kappa(self):
        with pytest.raises(ObjectiveError):
            ObjectiveConfig(formulation="surrogate", kappa=0.0)

    def test_unbiased_allows_zero_kappa(self):
        ObjectiveConfig(formulation="unbiased", kappa=0.0)

    def test_surrogate_requires_finite_kappa(self):
        # softplus at an infinite sharpness divides inf by inf
        with pytest.raises(ObjectiveError, match=r"^kappa must be finite, got inf$"):
            ObjectiveConfig(formulation="surrogate", kappa=math.inf)

    def test_unbiased_allows_infinite_kappa(self):
        ObjectiveConfig(formulation="unbiased", kappa=math.inf)


def _empty_batch_evaluate():
    scorer = init_scorer("linear", 2, seed=0)
    empty = np.zeros(0, dtype=np.intp)
    evaluate(ObjectiveConfig(), MinVars(scorer).flat()[None], np.zeros(1),
             Minibatch(empty, empty), generate_synthetic(20, 0.5, 2, 1.0, seed=0),
             dims=scorer.layer_dims)


NAN = float("nan")


@pytest.mark.parametrize("make,message", [
    (lambda: ObjectiveConfig(metric_kind="AUC"), "unknown metric kind 'AUC'"),
    (lambda: ObjectiveConfig(alpha=0.0), "alpha must lie in"),
    (lambda: ObjectiveConfig(beta=1.5), "beta must lie in"),
    (lambda: ObjectiveConfig(beta=NAN), "beta must lie in"),
    (lambda: ObjectiveConfig(kappa=NAN), "kappa must be positive"),
    (lambda: ObjectiveConfig(omega=-0.1), "omega must be nonnegative"),
    (lambda: ObjectiveConfig(omega=NAN), "omega must be nonnegative, got nan"),
    (lambda: ObjectiveConfig(prior_p=1.0), "prior_p must lie in"),
    (lambda: MinVars(init_scorer("linear", 2, seed=0)).with_flat(np.zeros(8)),
     "flat vector length"),
    (_empty_batch_evaluate, "empty batch"),
], ids=["metric", "alpha", "beta", "beta-nan", "kappa-nan", "omega", "omega-nan",
        "prior_p", "with_flat", "evaluate-empty"])
def test_invalid_input_raises(make, message):
    with pytest.raises(ObjectiveError, match=message):
        make()


class TestProjection:
    def test_clamps(self):
        cfg = ObjectiveConfig(metric_kind="TPAUC", alpha=0.5)
        mv = MinVars(init_scorer("linear", 2, seed=0), a=1.3, b=-0.2, s=-9.0,
                     s_prime=7.0, theta_a=-1.0, theta_b=2e9)
        out = project_min(mv, cfg)
        assert (out.a, out.b, out.s, out.s_prime) == (1.0, 0.0, -4.0, 5.0)
        assert out.theta_a == 0.0
        assert out.theta_b == 1e9

    def test_idempotent_on_feasible(self):
        cfg = ObjectiveConfig()
        mv = MinVars(init_scorer("linear", 2, seed=0), a=0.4, b=0.2, s=-1.0,
                     s_prime=2.0, theta_a=0.0, theta_b=3.0)
        out = project_min(mv, cfg)
        np.testing.assert_array_equal(out.flat(), mv.flat())

    def test_gamma_clamp(self):
        # asgda_step clamps gamma and the active c onto their boxes; with
        # eta = 1 the step lands on the pushed-out candidate itself
        ds = generate_synthetic(40, 0.3, 2, 1.0, seed=0)
        cfg = ObjectiveConfig("OPAUC", "unbiased")
        scfg = SolverConfig(k_coef=2.0, m_coef=8.0, batch_pos=2, batch_neg=4)
        st = init_state(ds, init_scorer("linear", 2, seed=0), scfg, cfg)
        st.gamma, st.c = 0.5, np.full(ds.n, 0.3)
        st.w_gamma = -100.0
        st.active_c = np.array([0, 1, 2])
        st.w_c[:2] = [100.0, -100.0]
        asgda_step(st, scfg, cfg, ds)
        assert st.gamma == -1.0
        np.testing.assert_array_equal(st.c[:4], [1.0, 0.0, 0.3, 0.3])

    def test_opauc_pins_theta_a(self):
        cfg = ObjectiveConfig(metric_kind="OPAUC")
        mv = MinVars(init_scorer("linear", 2, seed=0), theta_a=0.7)
        assert project_min(mv, cfg).theta_a == 0.0

    def test_theta_is_free(self):
        # the box is +-inf on theta: huge weights pass through bit for bit
        theta = init_scorer("mlp", 2, (3,), seed=0)
        n = theta.n_params
        weights = np.where(np.arange(n) % 2, 1e300, -1e300)
        mv = MinVars(theta.with_weights(weights), a=0.5)
        lo, hi = ObjectiveConfig().tau_box(n)
        assert (lo[:n] == -np.inf).all() and (hi[:n] == np.inf).all()
        out = project_min(mv, ObjectiveConfig())
        assert out.theta.weights.tobytes() == weights.tobytes()


class TestSurrogateValues:
    def test_single_negative_hand_value(self):
        theta, ds = const_scorer_ds((0.5, 1), (0.5, 0))
        cfg = ObjectiveConfig("OPAUC", "surrogate", 1.0, 0.5, 2.0, 0.0, 0.5)
        mv = MinVars(theta, a=1.0, b=0.5, s_prime=1.0)
        lg = evaluate_at(cfg, mv, MaxVars(0.0, np.ones(2)),
                         Minibatch(np.array([], int), np.array([1])), ds)
        assert lg.value == pytest.approx((0.5 + math.log(2) / 2) / 0.25)

    def test_positive_a_gradient(self):
        theta, ds = const_scorer_ds((0.5, 1), (0.5, 0))
        cfg = ObjectiveConfig("OPAUC", "surrogate", 1.0, 0.5, 2.0, 0.0, 0.5)
        mv = MinVars(theta, a=0.65)
        lg = evaluate_at(cfg, mv, MaxVars(0.0, np.ones(2)),
                         Minibatch(np.array([0]), np.array([], int)), ds)
        assert lg.grad_min[theta.n_params] == pytest.approx(0.6)

    def test_omega_adds_gamma_penalty(self):
        theta, ds = const_scorer_ds((0.5, 1), (0.5, 0))
        batch = Minibatch(np.array([0]), np.array([1]))
        xv = MaxVars(0.3, np.ones(2))
        mv = MinVars(theta)
        base = ObjectiveConfig("OPAUC", "surrogate", 1.0, 0.5, 2.0, 0.0, 0.5)
        reg = ObjectiveConfig("OPAUC", "surrogate", 1.0, 0.5, 2.0, 1.5, 0.5)
        g0 = evaluate_at(base, mv, xv, batch, ds).grad_max_gamma
        g1 = evaluate_at(reg, mv, xv, batch, ds).grad_max_gamma
        assert g1 - g0 == pytest.approx(-2 * 1.5 * 0.3)

    def test_grad_max_c_empty(self):
        theta, ds = const_scorer_ds((0.5, 1), (0.5, 0))
        cfg = ObjectiveConfig("OPAUC", "surrogate")
        lg = evaluate_at(cfg, MinVars(theta), MaxVars(0.0, np.ones(2)),
                         Minibatch(np.array([0]), np.array([1])), ds)
        assert dict(zip(lg.c_ids, lg.grad_max_c)) == {}

    def test_batch_mean_linearity(self):
        ds = generate_synthetic(30, 0.4, 3, 1.0, seed=0)
        theta = init_scorer("mlp", 3, (3,), seed=0)
        cfg = ObjectiveConfig("TPAUC", "surrogate", 0.5, 0.5, 3.0, 0.2)
        mv = MinVars(theta, a=0.6, b=0.3, s=-0.5, s_prime=0.8, theta_a=0.4,
                     theta_b=0.7)
        xv = MaxVars(0.2, np.ones(ds.n))
        full = Minibatch(ds.pos_ids, ds.neg_ids)
        whole = evaluate_at(cfg, mv, xv, full, ds)
        # strip constants shared by every evaluation (Lagrangian + gamma term)
        const = (-(1 + cfg.omega) * xv.gamma ** 2
                 - mv.theta_b * (mv.b - 1 - xv.gamma)
                 - mv.theta_a * (-mv.a - xv.gamma))
        per_instance = []
        for i in ds.pos_ids:
            b1 = Minibatch(np.array([i]), np.array([], int))
            per_instance.append(evaluate_at(cfg, mv, xv, b1, ds).value - const)
        for j in ds.neg_ids:
            b1 = Minibatch(np.array([], int), np.array([j]))
            per_instance.append(evaluate_at(cfg, mv, xv, b1, ds).value - const)
        assert whole.value == pytest.approx(np.mean(per_instance) + const,
                                            abs=1e-12)


@pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
@pytest.mark.parametrize("formulation", ["surrogate", "unbiased"])
def test_one_class_batch_takes_its_dataset_share(metric, formulation):
    # a one-class batch has no share of its own to weigh its class by:
    # it takes ds's, so cfg.prior_p moves no bit
    ds = generate_synthetic(40, 0.3, 3, 1.0, seed=1)
    theta = init_scorer("mlp", 3, (3,), seed=1)
    tau = MinVars(theta, a=0.6, b=0.3, s=-0.5, s_prime=0.8, theta_b=0.7).flat()[None]
    none = ds.pos_ids[:0]
    for batch in (Minibatch(ds.pos_ids[:5], none), Minibatch(none, ds.neg_ids[:7])):
        runs = []
        for prior_p in (0.2, 0.5, 0.9):
            cfg = ObjectiveConfig(metric, formulation, 0.5, 0.4, 3.0, 0.2, prior_p)
            c = np.linspace(0.1, 0.9, len(hinged_ids(cfg, batch)))[None]
            lg = evaluate(cfg, tau, np.array([0.2]), batch, ds, c, dims=theta.layer_dims)
            runs.append((lg.value, lg.grad_min, lg.grad_max_gamma, lg.grad_max_c))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                np.testing.assert_array_equal(got, want)


class TestUnbiasedValues:
    def test_single_negative_hand_value(self):
        theta, ds = const_scorer_ds((0.5, 1), (0.5, 0))
        cfg = ObjectiveConfig("OPAUC", "unbiased", 1.0, 0.5, 2.0, 0.0, 0.5)
        mv = MinVars(theta, b=0.5, s_prime=0.5)
        lg = evaluate_at(cfg, mv, MaxVars(0.0, np.ones(2)),
                         Minibatch(np.array([], int), np.array([1])), ds)
        assert lg.value == pytest.approx(3.0)

    def test_c_grad_at_zero_multiplicand(self):
        # N - s' = 0: value has no data dependence on c, only the regularizer
        theta, ds = const_scorer_ds((0.5, 1), (0.5, 0))
        cfg = ObjectiveConfig("OPAUC", "unbiased", 1.0, 0.5, 2.0, 0.8, 0.5)
        mv = MinVars(theta, b=0.5, s_prime=1.0)  # N = 1.0 exactly
        c = np.full(2, 0.6)
        lg = evaluate_at(cfg, mv, MaxVars(0.0, c),
                         Minibatch(np.array([], int), np.array([1])), ds)
        assert dict(zip(lg.c_ids, lg.grad_max_c))[1] == pytest.approx(-2 * 0.8 * 0.6 / 1)

    def test_c_maximization_recovers_hinge(self):
        # at best_response's c* the unbiased value is the exact-hinge value
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = 12
            labels = np.array([1] * 4 + [0] * 8)
            ds = Dataset(rng.normal(size=(n, 2)), labels)
            theta = init_scorer("linear", 2, seed=int(rng.integers(1e6)))
            cfg = ObjectiveConfig("OPAUC", "unbiased", 1.0, 0.5, 2.0, 0.0)
            mv = MinVars(theta, a=rng.uniform(0, 1), b=rng.uniform(0, 1),
                         s_prime=rng.uniform(0, 2))
            gamma = rng.uniform(-1, 1)
            c = best_response(cfg, mv, gamma, ds)
            lg = evaluate_at(cfg, mv, MaxVars(gamma, c),
                             Minibatch(ds.pos_ids, ds.neg_ids), ds)
            # hinge counterpart computed directly
            N = neg_branch_N(score_batch(theta, ds.features[ds.neg_ids]), mv.b, gamma)
            P = pos_branch_P(score_batch(theta, ds.features[ds.pos_ids]), mv.a, gamma)
            p = ds.prior_p
            hinge = (np.sum(P / p)
                     + np.sum((cfg.beta * mv.s_prime
                               + np.maximum(N - mv.s_prime, 0.0))
                              / (cfg.beta * (1 - p)))) / n - gamma ** 2
            assert lg.value == pytest.approx(hinge, abs=1e-12)

    def test_missing_c_rejected(self):
        theta, ds = const_scorer_ds((0.5, 1), (0.5, 0))
        cfg = ObjectiveConfig("OPAUC", "unbiased")
        batch = Minibatch(np.array([0]), np.array([1]))
        tau, gamma = MinVars(theta).flat()[None], np.zeros(1)
        # OPAUC hinges the one negative: c needs shape (1, 1)
        for c in (None, np.ones((1, 2)), np.ones(1)):
            with pytest.raises(ObjectiveError, match="c must"):
                evaluate(cfg, tau, gamma, batch, ds, c, dims=theta.layer_dims)


class TestBestResponse:
    @staticmethod
    def problem(rng, metric, kind, omega):
        """A random unbiased problem with positives first, so score_batch's
        rows are the stacked batch evaluate scores."""
        n_pos, n_neg = int(rng.integers(1, 20)), int(rng.integers(1, 40))
        ds = Dataset(rng.normal(size=(n_pos + n_neg, 3)), np.repeat([1, 0], [n_pos, n_neg]))
        dims = (3, 1) if kind == "linear" else (3, 4, 1)
        theta = ScorerParams(kind, dims, 2.0 * rng.normal(size=param_count(dims)))
        cfg = ObjectiveConfig(metric, "unbiased", float(rng.uniform(0.1, 1)),
                              float(rng.uniform(0.1, 1)), omega=omega)
        box = cfg.boxes
        mv = MinVars(theta, *(float(rng.uniform(*box[k])) for k in ("a", "b", "s", "s_prime")))
        return ds, cfg, mv, float(rng.uniform(*box["gamma"]))

    @pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_hinge_selection_at_omega_zero(self, metric, kind):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ds, cfg, mv, gamma = self.problem(rng, metric, kind, 0.0)
            f = score_batch(mv.theta, ds.features)
            want = np.zeros(ds.n)
            want[ds.neg_ids] = neg_branch_N(f[ds.neg_ids], mv.b, gamma) - mv.s_prime > 0
            if metric == "TPAUC":
                want[ds.pos_ids] = pos_branch_P(f[ds.pos_ids], mv.a, gamma) - mv.s > 0
            assert np.array_equal(best_response(cfg, mv, gamma, ds), want)

    @pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_kkt_conditions_at_positive_omega(self, metric, kind):
        # the partial in c times B, at c*: 0 inside the box, <= 0 at its
        # lower end and >= 0 at its upper end
        rng = np.random.default_rng(8)
        interior = 0
        for _ in range(200):
            ds, cfg, mv, gamma = self.problem(rng, metric, kind, float(rng.uniform(0.01, 2)))
            c = best_response(cfg, mv, gamma, ds)
            lg = evaluate_at(cfg, mv, MaxVars(gamma, c), Minibatch(ds.pos_ids, ds.neg_ids), ds)
            g, c_ids = lg.grad_max_c * ds.n, c[lg.c_ids]
            inside = (c_ids > 0) & (c_ids < 1)
            assert np.all(np.abs(g[inside]) <= 1e-12)
            assert np.all(g[c_ids == 0] <= 1e-12)
            assert np.all(g[c_ids == 1] >= -1e-12)
            interior += inside.sum()
            if metric == "OPAUC":
                assert not c[ds.pos_ids].any()
        assert interior >= 50

    @pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_blocked_walk_matches_one_evaluate_call(self, metric, kind, monkeypatch):
        # 4e4 rows: more than one call takes (2 * 16384 - 1)
        ds = generate_synthetic(40_000, 0.3, 4, 2.0, seed=3)
        theta = init_scorer(kind, 4, (8,), seed=3)
        batch = Minibatch(ds.pos_ids, ds.neg_ids)
        ids = hinged_ids(ObjectiveConfig(metric, "unbiased"), batch)
        evaluate_calls = []
        monkeypatch.setattr(paucopt.objectives, "evaluate",
                            lambda *args, **kw: evaluate_calls.append(1) or evaluate(*args, **kw))
        # thresholds at the median losses, so both sides of each are populated
        f = score_batch(theta, ds.features)
        a, b, gamma = 0.7, 0.2, 0.1
        mv = MinVars(theta, a=a, b=b, s=float(np.median(pos_branch_P(f[ds.pos_ids], a, gamma))),
                     s_prime=float(np.median(neg_branch_N(f[ds.neg_ids], b, gamma))))
        for omega in (0.0, 0.1):
            cfg = ObjectiveConfig(metric, "unbiased", 0.6, 0.3, omega=omega)
            g = ds.n * evaluate(cfg, mv.flat()[None], np.array([gamma]), batch, ds,
                                np.zeros((1, len(ids))), dims=theta.layer_dims).grad_max_c[0]
            want = np.zeros(ds.n)
            want[ids] = g > 0 if omega == 0 else np.clip(g / (2 * omega), 0, 1)
            got = best_response(cfg, mv, gamma, ds)
            if omega == 0:
                assert np.array_equal(got, want)
                assert 0 < got[ds.neg_ids].mean() < 1
            else:
                assert np.max(np.abs(got - want)) <= 1e-12
                assert ((got > 0) & (got < 1)).any()
        # one block of each class at each omega
        assert len(evaluate_calls) == 2 * 2

    def test_surrogate_has_no_c(self):
        theta, ds = const_scorer_ds((0.5, 1), (0.5, 0))
        for metric in ("OPAUC", "TPAUC"):
            got = best_response(ObjectiveConfig(metric), MinVars(theta), 0.0, ds)
            assert got.shape == (0,)


class TestDegeneration:
    def test_tpauc_alpha_one_matches_opauc(self):
        # unbiased form with s at the top-k threshold (the minimum positive
        # loss when alpha=1) and c_pos its exact-hinge maximizer
        rng = np.random.default_rng(5)
        for _ in range(50):
            ds = generate_synthetic(24, 0.4, 2, 1.0, seed=int(rng.integers(1e6)))
            theta = init_scorer("linear", 2, seed=int(rng.integers(1e6)))
            gamma = rng.uniform(-1, 1)
            a, b = rng.uniform(0, 1, 2)
            sp = rng.uniform(0, 2)
            f_pos = score_batch(theta, ds.features[ds.pos_ids])
            P = pos_branch_P(f_pos, a, gamma)
            s = float(P.min())
            c = rng.uniform(0, 1, ds.n)
            batch = Minibatch(ds.pos_ids, ds.neg_ids)
            kw = dict(alpha=1.0, beta=0.5, kappa=2.0, omega=0.0)
            tp = ObjectiveConfig("TPAUC", "unbiased", **kw)
            op = ObjectiveConfig("OPAUC", "unbiased", **kw)
            mv_tp = MinVars(theta, a=a, b=b, s=s, s_prime=sp)
            # c_pos at its best response; c_neg stays random, as the identity
            # holds for any c_neg
            c[ds.pos_ids] = best_response(tp, mv_tp, gamma, ds)[ds.pos_ids]
            mv_op = MinVars(theta, a=a, b=b, s_prime=sp)
            v_tp = evaluate_at(tp, mv_tp, MaxVars(gamma, c), batch, ds).value
            v_op = evaluate_at(op, mv_op, MaxVars(gamma, c), batch, ds).value
            assert v_tp == pytest.approx(v_op, abs=1e-12)


@pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
@pytest.mark.parametrize("formulation", ["surrogate", "unbiased"])
def test_value_ignores_later_writes_to_the_inputs(metric, formulation):
    # the value is computed on first read, so it must not read the caller's
    # arrays, which the caller may have overwritten by then
    ds = generate_synthetic(60, 0.3, 3, 1.0, seed=8)
    rng = np.random.default_rng(8)
    cfg = ObjectiveConfig(metric, formulation, 0.6, 0.4, 4.0, 0.3)
    theta = init_scorer("mlp", 3, (4,), seed=8)
    batch = stratified_sample(ds, 6, 10, rng)
    tau = np.array([project_min(MinVars(theta, a, 1.0 - a, -0.5, 2 * a, a, 0.2), cfg).flat()
                    for a in (0.3, 0.7)])
    gamma = np.array([0.25, -0.5])
    c = rng.uniform(0, 1, (2, len(hinged_ids(cfg, batch))))
    want = evaluate(cfg, tau, gamma, batch, ds, c, dims=theta.layer_dims).value
    lg = evaluate(cfg, tau, gamma, batch, ds, c, dims=theta.layer_dims)
    for x in (tau, gamma, c):
        x[...] = 0.9
    assert lg.value.tobytes() == want.tobytes()
    assert not np.array_equal(
        evaluate(cfg, tau, gamma, batch, ds, c, dims=theta.layer_dims).value, want)


class TestGradientFidelity:
    @pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
    @pytest.mark.parametrize("formulation", ["surrogate", "unbiased"])
    def test_against_central_differences(self, metric, formulation):
        worst = 0.0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 6))
            ds = generate_synthetic(40, 0.4, d, 1.0, seed=seed)
            kind = "mlp" if rng.random() < 0.5 else "linear"
            theta = init_scorer(kind, d, (3,), seed=seed)
            cfg = ObjectiveConfig(metric, formulation,
                                  float(rng.uniform(0.2, 1.0)),
                                  float(rng.uniform(0.2, 1.0)),
                                  float(rng.uniform(1, 8)),
                                  float(rng.uniform(0, 2)))
            mv = MinVars(theta, a=float(rng.uniform(0, 1)),
                         b=float(rng.uniform(0, 1)),
                         s=float(rng.uniform(-4, 1)),
                         s_prime=float(rng.uniform(0, 5)),
                         theta_a=0.0 if metric == "OPAUC"
                         else float(rng.uniform(0, 2)),
                         theta_b=float(rng.uniform(0, 2)))
            xv = MaxVars(float(rng.uniform(-1, 1)), rng.uniform(0, 1, ds.n))
            batch = stratified_sample(ds, 6, 10, rng)
            lg = evaluate_at(cfg, mv, xv, batch, ds)
            h = 1e-6
            flat = mv.flat()
            frozen = ({len(flat) - 4, len(flat) - 2} if metric == "OPAUC"
                      else set())
            for i in range(len(flat)):
                if i in frozen:
                    continue
                fp, fm = flat.copy(), flat.copy()
                fp[i] += h
                fm[i] -= h
                num = (evaluate_at(cfg, mv.with_flat(fp), xv, batch, ds).value
                       - evaluate_at(cfg, mv.with_flat(fm), xv, batch, ds).value
                       ) / (2 * h)
                worst = max(worst, abs(num - lg.grad_min[i])
                            / max(abs(num), abs(lg.grad_min[i]), 1e-3))
            num = (evaluate_at(cfg, mv, MaxVars(xv.gamma + h, xv.c), batch, ds).value
                   - evaluate_at(cfg, mv, MaxVars(xv.gamma - h, xv.c), batch,
                                 ds).value) / (2 * h)
            worst = max(worst, abs(num - lg.grad_max_gamma) / max(abs(num), 1e-3))
            for idx, g in zip(lg.c_ids, lg.grad_max_c):
                cp, cm = xv.c.copy(), xv.c.copy()
                cp[idx] += h
                cm[idx] -= h
                num = (evaluate_at(cfg, mv, MaxVars(xv.gamma, cp), batch, ds).value
                       - evaluate_at(cfg, mv, MaxVars(xv.gamma, cm), batch,
                                     ds).value) / (2 * h)
                worst = max(worst, abs(num - g) / max(abs(num), abs(g), 1e-3))
        assert worst <= 1e-5


@pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
@pytest.mark.parametrize("formulation", ["surrogate", "unbiased"])
def test_class_weighted_batches_average_to_the_full_batch(metric, formulation):
    # 16 batches of 10 + 10 cover each of 40 positives 4 times and each of 160
    # negatives once. Weighted by its own class shares, each batch estimates
    # each class's mean, so the batches' mean partials are the full batch's;
    # weighted by the split's 0.2 prior, the positives would weigh 2.5 times
    # too much
    rng = np.random.default_rng(3)
    labels = np.repeat([1, 0], [40, 160])
    ds = Dataset(rng.normal(size=(200, 3)) + labels[:, None], labels)
    cfg = ObjectiveConfig(metric, formulation, 0.6, 0.4, 4.0, 0.3)
    theta = init_scorer("mlp", 3, (4,), seed=3)
    mv = project_min(MinVars(theta, 0.6, 0.3, -0.5, 0.8, 0.4, 0.2), cfg)
    xv = MaxVars(0.25, rng.uniform(0, 1, ds.n))
    batches = [Minibatch(ds.pos_ids[10 * k % 40:][:10], ds.neg_ids[10 * k:][:10])
               for k in range(16)]
    parts = [evaluate_at(cfg, mv, xv, batch, ds) for batch in batches]
    full = evaluate_at(cfg, mv, xv, Minibatch(ds.pos_ids, ds.neg_ids), ds)
    np.testing.assert_allclose(np.mean([lg.grad_min for lg in parts], axis=0),
                               full.grad_min, rtol=0, atol=1e-12)
    assert abs(np.mean([lg.grad_max_gamma for lg in parts]) - full.grad_max_gamma) <= 1e-12
