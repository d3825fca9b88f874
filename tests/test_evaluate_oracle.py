"""The stacked one-pass evaluator and the two-point solver step against the
forms they replaced, kept here unchanged as oracles: two evaluators over a
one-point, one-row-per-class scorer, and a step that evaluates the old and
the new point in two calls and keeps the c-momentum in a per-id dict.

Both sides do the same float operations in the same order, so every value,
gradient and solver variable must match exactly (==), not to a tolerance;
the one exception is a batch of one positive and one negative, where the
oracle's one-row forward passes may round differently from the stacked one
(bound 1e-12). The oracles call paucopt's own sigmoid, because they check
the stacking and the order of operations, not the sigmoid (tests/
test_scorer.py checks that against scipy).
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import pytest

import paucopt.solver
from paucopt.data import Dataset, Minibatch, generate_synthetic, stratified_sample
from paucopt.objectives import (
    MaxVars,
    MinVars,
    ObjectiveConfig,
    ObjectiveError,
    evaluate,
    hinged_ids,
    neg_branch_N,
    pos_branch_P,
    softplus,
)
from paucopt.scorer import expit, init_scorer
from paucopt.solver import (
    SolverConfig,
    asgda_step,
    eta_schedule,
    init_state,
    train,
)

from points import evaluate_at

S_BOX = (-4.0, 1.0)
S_PRIME_BOX = (0.0, 5.0)
LAGRANGE_CAP = 1e9

# grad_max_c is a dict id -> partial, batch members only
LossGrad = namedtuple("LossGrad", "value grad_min grad_max_gamma grad_max_c")


def _layers(params):
    """Yield (W: dout x din, b: dout) views into the flat weight vector."""
    dims = params.layer_dims
    off = 0
    for din, dout in zip(dims[:-1], dims[1:]):
        w = params.weights[off:off + din * dout].reshape(dout, din)
        off += din * dout
        b = params.weights[off:off + dout]
        off += dout
        yield w, b


def _forward(params, x: np.ndarray):
    """One-point batch forward pass. Returns (scores, activations, pre_logits)."""
    acts = [x]
    layers = list(_layers(params))
    h = x
    for w, b in layers[:-1]:
        h = np.tanh(h @ w.T + b)
        acts.append(h)
    w, b = layers[-1]
    z = (h @ w.T + b)[:, 0]
    f = np.clip(expit(z), 1e-300, np.nextafter(1.0, 0.0))
    return f, acts, z


def score_batch(params, x: np.ndarray) -> np.ndarray:
    return _forward(params, x)[0]


def backprop_logit(params, acts: list, dz: np.ndarray) -> np.ndarray:
    """Gradient of sum_i dz_i * z_i w.r.t. the flat weights."""
    layers = list(_layers(params))
    grads = [None] * len(layers)
    delta = dz[:, None]
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        a_in = acts[li]
        gw = delta.T @ a_in
        gb = delta.sum(axis=0)
        grads[li] = np.concatenate([gw.ravel(), gb])
        if li > 0:
            delta = (delta @ w) * (1.0 - acts[li] ** 2)
    return np.concatenate(grads)


def weighted_score_grad(params, x: np.ndarray, weights: np.ndarray):
    """Scores plus the flat gradient of sum_i weights_i * f_i."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    f = score_batch(params, x)
    dz = weights * f * (1.0 - f)
    return f, backprop_logit(params, _forward(params, x)[1], dz)


def project_min_flat(vec: np.ndarray, n_theta: int, cfg: ObjectiveConfig) -> np.ndarray:
    """project_min on the flat layout, in place on a copy."""
    out = vec.copy()
    lo = np.array([0.0, 0.0, S_BOX[0], S_PRIME_BOX[0], 0.0, 0.0])
    hi = np.array([1.0, 1.0, S_BOX[1], S_PRIME_BOX[1], LAGRANGE_CAP, LAGRANGE_CAP])
    out[n_theta:] = np.clip(out[n_theta:], lo, hi)
    if cfg.metric_kind == "OPAUC":
        out[n_theta + 4] = 0.0
    return out


def _check_batch(batch: Minibatch):
    # single-class batches are legal (the other branch contributes zero
    # terms); only a fully empty batch is meaningless
    if batch.size == 0:
        raise ObjectiveError("empty batch")


def class_shares(ds: Dataset, batch: Minibatch) -> tuple:
    """(p, q): the batch's positive share and 1 - p; ds's share for a
    class-pure batch."""
    n_pos = len(batch.pos_ids)
    p = n_pos / batch.size if 0 < n_pos < batch.size else ds.prior_p
    return p, 1.0 - p


def _assemble(mv: MinVars, ga, gb, gs, gsp, theta_weights_pos, theta_weights_neg,
              x_pos, x_neg, cfg: ObjectiveConfig, gamma: float):
    """Finish an evaluation: Lagrangian terms, theta backprop, flat gradient."""
    lag = -mv.theta_b * (mv.b - 1.0 - gamma) - mv.theta_a * (-mv.a - gamma)
    gb += -mv.theta_b
    ga += mv.theta_a
    g_gamma_lag = mv.theta_a + mv.theta_b
    g_theta_a = mv.a + gamma
    g_theta_b = 1.0 + gamma - mv.b
    if cfg.metric_kind == "OPAUC":
        gs = 0.0
        g_theta_a = 0.0
    x = np.vstack([x_pos, x_neg])
    w = np.concatenate([theta_weights_pos, theta_weights_neg])
    _, g_theta = weighted_score_grad(mv.theta, x, w)
    grad_min = np.concatenate([g_theta, [ga, gb, gs, gsp, g_theta_a, g_theta_b]])
    return lag, g_gamma_lag, g_theta_a, grad_min


def eval_surrogate(cfg: ObjectiveConfig, mv: MinVars, xv: MaxVars,
                   batch: Minibatch, ds: Dataset) -> LossGrad:
    """Softplus-smoothed objective value and exact analytic partials.

    The value is the batch mean of the per-instance objective plus the
    Lagrangian terms (added once). grad_max_c is empty: c plays no role.
    """
    if cfg.formulation != "surrogate":
        raise ObjectiveError("eval_surrogate requires formulation='surrogate'")
    _check_batch(batch)
    p, q = class_shares(ds, batch)
    alpha, beta, kappa, omega = cfg.alpha, cfg.beta, cfg.kappa, cfg.omega
    gamma = xv.gamma
    B = batch.size
    x_pos = ds.features[batch.pos_ids]
    x_neg = ds.features[batch.neg_ids]
    f_pos = score_batch(mv.theta, x_pos)
    f_neg = score_batch(mv.theta, x_neg)

    P = pos_branch_P(f_pos, mv.a, gamma)
    N = neg_branch_N(f_neg, mv.b, gamma)
    dP_df = 2.0 * (f_pos - mv.a) - 2.0 * (1.0 + gamma)
    dN_df = 2.0 * (f_neg - mv.b) + 2.0 * (1.0 + gamma)

    if cfg.metric_kind == "TPAUC":
        sig_p = expit(kappa * (P - mv.s))
        pos_terms = (alpha * mv.s + softplus(P - mv.s, kappa)) / (alpha * p)
        wp = sig_p / (alpha * p) / B                 # d value / d P_i
        gs = float(np.sum(alpha - sig_p) / (alpha * p)) / B
    else:
        pos_terms = P / p
        wp = np.full_like(P, 1.0 / p / B)
        gs = 0.0

    sig_n = expit(kappa * (N - mv.s_prime))
    neg_terms = (beta * mv.s_prime + softplus(N - mv.s_prime, kappa)) / (beta * q)
    wn = sig_n / (beta * q) / B                      # d value / d N_i
    gsp = float(np.sum(beta - sig_n) / (beta * q)) / B

    data_value = (np.sum(pos_terms) + np.sum(neg_terms)) / B
    gamma_term = -(1.0 + omega) * gamma ** 2

    ga = float(np.sum(wp * (-2.0 * (f_pos - mv.a))))
    gb = float(np.sum(wn * (-2.0 * (f_neg - mv.b))))
    g_gamma = float(np.sum(wp * (-2.0 * f_pos)) + np.sum(wn * (2.0 * f_neg))
                    - 2.0 * (1.0 + omega) * gamma)

    lag, g_gamma_lag, _, grad_min = _assemble(
        mv, ga, gb, gs, gsp, wp * dP_df, wn * dN_df, x_pos, x_neg, cfg, gamma)
    return LossGrad(float(data_value + gamma_term + lag), grad_min,
                    g_gamma + g_gamma_lag, {})


def eval_unbiased(cfg: ObjectiveConfig, mv: MinVars, xv: MaxVars,
                  batch: Minibatch, ds: Dataset) -> LossGrad:
    """Exactly unbiased objective using per-instance selection weights c.

    Negative hinges become c_i*(N_i - s'); for TPAUC the positive hinges
    become c_i*(P_i - s). The concavity regularizer subtracts
    omega*(gamma^2 + mean over the batch of the participating c_i^2).
    """
    if cfg.formulation != "unbiased":
        raise ObjectiveError("eval_unbiased requires formulation='unbiased'")
    _check_batch(batch)
    if len(xv.c) < ds.n:
        raise ObjectiveError("c must carry one entry per dataset instance")
    p, q = class_shares(ds, batch)
    alpha, beta, omega = cfg.alpha, cfg.beta, cfg.omega
    gamma = xv.gamma
    B = batch.size
    x_pos = ds.features[batch.pos_ids]
    x_neg = ds.features[batch.neg_ids]
    f_pos = score_batch(mv.theta, x_pos)
    f_neg = score_batch(mv.theta, x_neg)
    c_neg = xv.c[batch.neg_ids]

    P = pos_branch_P(f_pos, mv.a, gamma)
    N = neg_branch_N(f_neg, mv.b, gamma)
    dP_df = 2.0 * (f_pos - mv.a) - 2.0 * (1.0 + gamma)
    dN_df = 2.0 * (f_neg - mv.b) + 2.0 * (1.0 + gamma)

    grad_c = {}
    if cfg.metric_kind == "TPAUC":
        c_pos = xv.c[batch.pos_ids]
        pos_terms = (alpha * mv.s + c_pos * (P - mv.s)) / (alpha * p)
        wp = c_pos / (alpha * p) / B
        gs = float(np.sum(alpha - c_pos) / (alpha * p)) / B
        c_reg = (np.sum(c_pos ** 2) + np.sum(c_neg ** 2)) / B
        for i, idx in enumerate(batch.pos_ids):
            grad_c[int(idx)] = float((P[i] - mv.s) / (alpha * p) / B
                                     - 2.0 * omega * c_pos[i] / B)
    else:
        pos_terms = P / p
        wp = np.full_like(P, 1.0 / p / B)
        gs = 0.0
        c_reg = np.sum(c_neg ** 2) / B

    neg_terms = (beta * mv.s_prime + c_neg * (N - mv.s_prime)) / (beta * q)
    wn = c_neg / (beta * q) / B
    gsp = float(np.sum(beta - c_neg) / (beta * q)) / B
    for j, idx in enumerate(batch.neg_ids):
        grad_c[int(idx)] = float((N[j] - mv.s_prime) / (beta * q) / B
                                 - 2.0 * omega * c_neg[j] / B)

    data_value = (np.sum(pos_terms) + np.sum(neg_terms)) / B
    gamma_term = -(1.0 + omega) * gamma ** 2 - omega * c_reg

    ga = float(np.sum(wp * (-2.0 * (f_pos - mv.a))))
    gb = float(np.sum(wn * (-2.0 * (f_neg - mv.b))))
    g_gamma = float(np.sum(wp * (-2.0 * f_pos)) + np.sum(wn * (2.0 * f_neg))
                    - 2.0 * (1.0 + omega) * gamma)

    lag, g_gamma_lag, _, grad_min = _assemble(
        mv, ga, gb, gs, gsp, wp * dP_df, wn * dN_df, x_pos, x_neg, cfg, gamma)
    return LossGrad(float(data_value + gamma_term + lag), grad_min,
                    g_gamma + g_gamma_lag, grad_c)


def evaluate_oracle(cfg: ObjectiveConfig, mv: MinVars, xv: MaxVars,
                    batch: Minibatch, ds: Dataset) -> LossGrad:
    """Dispatch on cfg.formulation."""
    if cfg.formulation == "surrogate":
        return eval_surrogate(cfg, mv, xv, batch, ds)
    return eval_unbiased(cfg, mv, xv, batch, ds)


@dataclass
class OracleState:
    tau: MinVars
    gamma_block: MaxVars
    v: np.ndarray
    w_gamma: float
    w_c: dict                  # id -> momentum
    active_c: tuple
    t: int
    rng: np.random.Generator


def asgda_step_oracle(state: OracleState, cfg: SolverConfig,
                      obj_cfg: ObjectiveConfig, ds: Dataset) -> OracleState:
    """asgda_step with two evaluations, w_c an id -> momentum dict and
    active_c a tuple."""
    eta = eta_schedule(cfg, state.t)
    n_theta = state.tau.theta.n_params
    tau_old = state.tau
    max_old = state.gamma_block

    flat_old = tau_old.flat()
    cand = project_min_flat(flat_old - cfg.nu * state.v, n_theta, obj_cfg)
    flat_new = project_min_flat((1.0 - eta) * flat_old + eta * cand, n_theta, obj_cfg)
    if cfg.freeze_theta:
        flat_new[:n_theta] = flat_old[:n_theta]   # a frozen theta never moves
    tau_new = tau_old.with_flat(flat_new)

    g_cand = min(max(max_old.gamma + cfg.lam * state.w_gamma, -1.0), 1.0)
    gamma_new = min(max((1.0 - eta) * max_old.gamma + eta * g_cand, -1.0), 1.0)
    c_new = max_old.c.copy()
    # rescaled by the size of the batch drawn below
    lam_c = cfg.lam * (min(cfg.batch_pos, ds.n_pos) + min(cfg.batch_neg, ds.n_neg))
    for idx in state.active_c:
        ci = c_new[idx]
        cand = min(max(ci + lam_c * state.w_c[idx], 0.0), 1.0)
        c_new[idx] = min(max((1.0 - eta) * ci + eta * cand, 0.0), 1.0)
    max_new = MaxVars(gamma_new, c_new)

    batch = stratified_sample(ds, min(cfg.batch_pos, ds.n_pos),
                              min(cfg.batch_neg, ds.n_neg), state.rng)
    lg_new = evaluate_oracle(obj_cfg, tau_new, max_new, batch, ds)
    lg_old = evaluate_oracle(obj_cfg, tau_old, max_old, batch, ds)

    decay = eta ** 2
    v_next = lg_new.grad_min + (1.0 - decay) * (state.v - lg_old.grad_min)
    w_gamma_next = (lg_new.grad_max_gamma
                    + (1.0 - decay) * (state.w_gamma - lg_old.grad_max_gamma))
    w_c_next = dict(state.w_c)
    for idx, g_new in lg_new.grad_max_c.items():
        g_old = lg_old.grad_max_c[idx]
        w_c_next[idx] = g_new + (1.0 - decay) * (w_c_next.get(idx, 0.0) - g_old)

    return OracleState(tau=tau_new, gamma_block=max_new, v=v_next,
                       w_gamma=w_gamma_next, w_c=w_c_next,
                       active_c=tuple(lg_new.grad_max_c),
                       t=state.t + 1, rng=state.rng)


CASES = [(m, f, k) for m in ("OPAUC", "TPAUC") for f in ("surrogate", "unbiased")
         for k in ("linear", "mlp")]


@pytest.mark.parametrize("metric,formulation,kind", CASES)
def test_evaluate_matches_two_evaluator_oracle(metric, formulation, kind):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        ds = generate_synthetic(60, 0.3, d, 1.0, seed=seed)
        theta = init_scorer(kind, d, (4,), seed=seed)
        cfg = ObjectiveConfig(metric, formulation, float(rng.uniform(0.1, 1.0)),
                              float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.5, 16)),
                              float(rng.uniform(0, 2)) * (seed % 3 > 0))
        mv = MinVars(theta, *(float(v) for v in rng.uniform(
            [0, 0, -4, 0, 0, 0], [1, 1, 1, 5, 3, 3])))
        c = rng.uniform(0, 1, ds.n)
        c[rng.random(ds.n) < 0.3] = 0.0
        c[rng.random(ds.n) < 0.3] = 1.0
        xv = MaxVars(float(rng.uniform(-1, 1)), c)
        # single-class batches are legal; seed % 4 picks the shape
        n_pos, n_neg = ((6, 12), (1, 1), (6, 0), (0, 12))[seed % 4]
        batch = stratified_sample(ds, max(n_pos, 1), max(n_neg, 1), rng)
        batch = Minibatch(batch.pos_ids[:n_pos], batch.neg_ids[:n_neg])
        got = evaluate_at(cfg, mv, xv, batch, ds)
        want = evaluate_oracle(cfg, mv, xv, batch, ds)
        assert list(got.c_ids) == list(want.grad_max_c)
        got_all = [got.value, *got.grad_min, got.grad_max_gamma, *got.grad_max_c]
        want_all = [want.value, *want.grad_min, want.grad_max_gamma,
                    *want.grad_max_c.values()]
        if (n_pos, n_neg) == (1, 1):
            # evaluate scores the batch stacked, the oracle each one-row
            # class alone; a one-row matmul takes another BLAS path and can
            # differ in the last bits
            np.testing.assert_allclose(got_all, want_all, rtol=0, atol=1e-12)
        else:
            assert got_all == want_all


@pytest.mark.parametrize("formulation", ["surrogate", "unbiased"])
def test_gamma_square_rounds_as_python_float_pow(formulation):
    # Python's float ** 2 is libm pow, which differs in the last bit from
    # numpy's square for some gammas; the value must follow the former
    rng = np.random.default_rng(3)
    gammas = [g for g in rng.uniform(-1, 1, 20_000).tolist() if g ** 2 != np.square(g)]
    assert len(gammas) >= 5
    ds = generate_synthetic(60, 0.3, 2, 1.0, seed=3)
    cfg = ObjectiveConfig("TPAUC", formulation, 0.5, 0.4, 4.0, 0.3)
    mv = MinVars(init_scorer("linear", 2, seed=3), 0.6, 0.3, -0.5, 0.8, 0.4, 0.7)
    batch = Minibatch(ds.pos_ids, ds.neg_ids)
    for gamma in gammas[:5]:
        xv = MaxVars(gamma, rng.uniform(0, 1, ds.n))
        assert evaluate_at(cfg, mv, xv, batch, ds).value == evaluate_oracle(
            cfg, mv, xv, batch, ds).value


@pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
@pytest.mark.parametrize("formulation,freeze_theta", [
    pytest.param(form, frozen, id=form + "-frozen" * frozen)
    for frozen in (False, True) for form in ("surrogate", "unbiased")])
def test_asgda_step_matches_per_id_loop_oracle(metric, formulation, freeze_theta):
    # large steps so that gamma and c run into their boxes; a frozen theta
    # is sweep's path
    ds = generate_synthetic(300, 0.3, 3, 1.0, seed=4)
    obj = ObjectiveConfig(metric, formulation, 0.6, 0.4, 4.0, 0.2)
    cfg = SolverConfig(nu=1.0, lam=20.0, T=60, batch_pos=8, batch_neg=24, seed=4,
                       freeze_theta=freeze_theta)
    scorer = init_scorer("mlp", 3, (4,), seed=4)
    st = init_state(ds, scorer, cfg, obj)
    ref = OracleState(MinVars(scorer), MaxVars(0.0, np.ones(ds.n)), np.zeros_like(st.v),
                      0.0, {}, (), 0, np.random.default_rng(cfg.seed))
    # the surrogate keeps no c at all; the oracle's c stays at 1, unread
    n_c = ds.n if formulation == "unbiased" else 0
    for _ in range(cfg.T):
        asgda_step(st, cfg, obj, ds)
        ref = asgda_step_oracle(ref, cfg, obj, ds)
        assert np.array_equal(st.tau, ref.tau.flat())
        assert st.gamma == ref.gamma_block.gamma
        assert np.array_equal(st.c, ref.gamma_block.c[:n_c])
        assert np.array_equal(st.v, ref.v)
        assert st.w_gamma == ref.w_gamma
        w_c = np.zeros(n_c)
        w_c[list(ref.w_c)] = list(ref.w_c.values())
        assert np.array_equal(st.w_c, w_c)
        assert list(st.active_c) == list(ref.active_c)
    # the c block moved off its start at 1, down near the end of its box
    if formulation == "unbiased":
        assert (st.c < 1e-3).any() and (st.c < 1.0).mean() > 0.1


@pytest.mark.parametrize("metric,formulation,kind", CASES)
def test_stacked_points_equal_one_point_calls(metric, formulation, kind, monkeypatch):
    # every evaluate train makes, K = 2 in a step and K = 1 in a record, must
    # give row k equal to a K = 1 call at point k alone; the step's two c
    # rows differ where the ids it wrote (the last batch's) meet this batch
    c_moved = []

    def checked(cfg, tau, gamma, batch, ds, c=None, *, dims):
        both = evaluate(cfg, tau, gamma, batch, ds, c, dims=dims)
        for k in range(len(tau)):
            one = evaluate(cfg, tau[k:k + 1], gamma[k:k + 1], batch, ds,
                           None if c is None else c[k:k + 1], dims=dims)
            for name in ("value", "grad_min", "grad_max_gamma", "grad_max_c"):
                assert np.array_equal(getattr(one, name)[0], getattr(both, name)[k])
        c_moved.append(len(tau) == 2 and bool((c[0] != c[1]).any()))
        return both

    monkeypatch.setattr(paucopt.solver, "evaluate", checked)
    ds = generate_synthetic(300, 0.3, 3, 1.0, seed=4)
    obj = ObjectiveConfig(metric, formulation, 0.6, 0.4, 4.0, 0.2)
    cfg = SolverConfig(nu=1.0, lam=20.0, T=40, batch_pos=8, batch_neg=24, seed=4,
                       eval_every=20)
    train(ds, None, init_scorer(kind, 3, (8,), seed=4), cfg, obj)
    assert len(c_moved) == cfg.T + 2
    if formulation == "unbiased":
        assert sum(c_moved) >= cfg.T // 2


@pytest.mark.parametrize("metric,formulation,kind", CASES)
def test_unsorted_repeated_ids_equal_fancy_indexed_rows(metric, formulation, kind):
    # evaluate gathers the batch rows by id; a dataset of the same rows,
    # gathered by fancy indexing and read in order, must give the same bits
    # for ids in no order and with a repeat, which stratified_sample never gives
    ds = generate_synthetic(60, 0.3, 3, 1.0, seed=6)
    pos, neg = ds.pos_ids[[5, 0, 9, 3]], ds.neg_ids[[17, 2, 30, 11, 2, 25, 8]]
    ids = np.concatenate([pos, neg])
    assert not (np.diff(ids) > 0).all() and len(np.unique(ids)) == len(ids) - 1
    gathered = Dataset(ds.features[ids], ds.labels[ids])
    in_order = Minibatch(np.arange(len(pos)), np.arange(len(pos), len(ids)))
    cfg = ObjectiveConfig(metric, formulation, 0.6, 0.4, 4.0, 0.3)
    theta = init_scorer(kind, 3, (4,), seed=6)
    tau = np.array([MinVars(theta, a, 1.0 - a, -0.5, 2 * a, a, 0.2).flat()
                    for a in (0.3, 0.7)])
    gamma = np.array([0.25, -0.5])
    batch = Minibatch(pos, neg)
    c = np.random.default_rng(6).uniform(0, 1, (2, len(hinged_ids(cfg, batch))))
    got = evaluate(cfg, tau, gamma, batch, ds, c, dims=theta.layer_dims)
    want = evaluate(cfg, tau, gamma, in_order, gathered, c, dims=theta.layer_dims)
    for name in ("grad_min", "grad_max_gamma", "grad_max_c", "value"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
