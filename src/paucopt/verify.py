"""Numerical verification of the identities behind the objectives.

Every check compares an implementation value against an independent oracle
(brute-force pair enumeration, sort-based selection, exact piecewise-linear
minimization) or an analytic constant, and reports the worst deviation.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, Minibatch
from .metrics import closed_form_optimum, pairwise_surrogate_risk
from .objectives import (
    MinVars,
    ObjectiveConfig,
    best_response,
    evaluate,
    hinged_ids,
    neg_branch_N,
    pos_branch_P,
    softplus,
)
from .scorer import ScorerParams, expit, score_batch


@dataclass(frozen=True)
class VerificationReport:
    name: str
    trials: int
    max_deviation: float
    bound: float
    passed: bool

    def to_dict(self):
        return asdict(self)


def _report(name, trials, dev, bound) -> VerificationReport:
    return VerificationReport(name, trials, float(dev), float(bound),
                              bool(dev <= bound))


def _random_scores(rng):
    n_pos = int(rng.integers(1, 26))
    n_neg = int(rng.integers(1, 51 - n_pos))
    return rng.uniform(0, 1, n_pos), rng.uniform(0, 1, n_neg)


def _admissible_frac(rng, n):
    # any fraction whose floor selects at least one instance
    return float(rng.uniform(1.0 / n, 1.0))


def check_reformulation_equivalence(trials: int = 500,
                                    seed: int = 0) -> VerificationReport:
    """Pairwise squared-margin risk equals 1 + instance-wise closed-form minimum."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        pos, neg = _random_scores(rng)
        beta = _admissible_frac(rng, len(neg))
        alpha = _admissible_frac(rng, len(pos))
        for kind, al in (("OPAUC", 1.0), ("TPAUC", alpha)):
            risk = pairwise_surrogate_risk(pos, neg, al, beta, kind)
            opt = closed_form_optimum(pos, neg, al, beta, kind)
            worst = max(worst, abs(risk - (1.0 + opt.min_value)))
    return _report("reformulation_equivalence", trials, worst, 1e-10)


def topk_threshold_min(losses: np.ndarray, k: int) -> float:
    """Exact minimum of s + mean_top_k hinge objective via breakpoints.

    phi(s) = s + (1/k) * sum_i [x_i - s]_+ is piecewise linear with
    breakpoints at the x_i, so the minimum sits on a breakpoint.
    """
    x = np.asarray(losses, dtype=np.float64)
    vals = [s + np.sum(np.maximum(x - s, 0.0)) / k for s in x]
    return float(min(vals))


def check_topk_threshold(trials: int = 500, seed: int = 0) -> VerificationReport:
    """Threshold-minimized hinge objective equals the sorted top-k average."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 31))
        x = rng.uniform(-5, 5, n)
        k = int(rng.integers(1, n + 1))
        topk = float(np.mean(np.sort(x)[::-1][:k]))
        worst = max(worst, abs(topk_threshold_min(x, k) - topk))
    return _report("topk_threshold", trials, worst, 1e-9)


def _threshold_objective_min_hinge(losses, beta) -> float:
    """min over s' in its box of beta*s' + mean([N_i - s']_+): exact."""
    lo, hi = ObjectiveConfig().boxes["s_prime"]
    pts = np.concatenate([[lo, hi], np.clip(losses, lo, hi)])
    vals = beta * pts + np.mean(np.maximum(losses[None, :] - pts[:, None], 0.0), axis=1)
    return float(vals.min())


def _threshold_objective_min_soft(losses, beta, kappa) -> float:
    """min over s' of the softplus-smoothed threshold objective.

    The objective is convex in s' with derivative beta - mean(sigmoid(
    kappa*(N_i - s'))), monotone increasing in s'; bisect it to machine
    precision, then clamp to the box.
    """
    lo, hi = ObjectiveConfig().boxes["s_prime"]

    def deriv(s):
        return beta - float(np.mean(expit(kappa * (losses - s))))

    if deriv(lo) >= 0:
        s_star = lo
    elif deriv(hi) <= 0:
        s_star = hi
    else:
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if deriv(mid) < 0:
                a = mid
            else:
                b = mid
        s_star = 0.5 * (a + b)
    return float(beta * s_star + np.mean(softplus(losses - s_star, kappa)))


def check_softplus_gap(trials: int = 100, seed: int = 0) -> VerificationReport:
    """Smoothed-vs-hinge inner-minimum gap is at most ln2/kappa, shrinking in kappa.

    The softplus exceeds the hinge pointwise by at most ln2/kappa (the
    excess peaks at the kink), so the minimized threshold objectives can
    differ by no more than that; larger kappa tightens the excess
    everywhere, so the measured gap must not grow along the kappa sweep.
    """
    rng = np.random.default_rng(seed)
    worst_excess = -np.inf  # max over draws/kappas of gap - bound (pass if <= 0)
    for _ in range(trials):
        n_neg = int(rng.integers(1, 40))
        f = rng.uniform(0, 1, n_neg)
        b = float(rng.uniform(0, 1))
        gamma = float(rng.uniform(b - 1.0, 1.0))
        beta = float(rng.uniform(0.05, 1.0))
        losses = neg_branch_N(f, b, gamma)
        hinge_min = _threshold_objective_min_hinge(losses, beta)
        prev_gap = np.inf
        for kappa in (2, 4, 8, 16, 32):
            gap = abs(_threshold_objective_min_soft(losses, beta, kappa) - hinge_min)
            worst_excess = max(worst_excess, gap - math.log(2.0) / kappa)
            if gap > prev_gap + 1e-12:
                worst_excess = max(worst_excess, gap - prev_gap)
            prev_gap = gap
    return _report("softplus_gap", trials, worst_excess, 0.0)


def check_monotone_branches(trials: int = 1000, seed: int = 0) -> VerificationReport:
    """N nondecreasing (and P nonincreasing) in f on the admissible gamma range."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f1, f2 = np.sort(rng.uniform(0, 1, 2))
        a = float(rng.uniform(0, 1))
        b = float(rng.uniform(0, 1))
        g_n = float(rng.uniform(b - 1.0, 1.0))
        worst = max(worst, neg_branch_N(f1, b, g_n) - neg_branch_N(f2, b, g_n))
        g_p = float(rng.uniform(max(-a, b - 1.0), 1.0))
        worst = max(worst, pos_branch_P(f2, a, g_p) - pos_branch_P(f1, a, g_p))
    return _report("monotone_branches", trials, worst, 0.0)


def check_hinge_weight_identity(trials: int = 1000, seed: int = 0) -> VerificationReport:
    """The unbiased objective at c* = 1{loss > threshold} is the hinge objective.

    [x]_+ = max over c in [0,1] of c*x is attained at c = 1{x > 0}, so the
    unbiased form, evaluated at c*, must reproduce exactly the objective
    written with the hinge itself. Trials alternate OPAUC and TPAUC; omega
    and the multipliers are 0, so only the hinge terms are compared.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        n_pos, n_neg = int(rng.integers(1, 8)), int(rng.integers(1, 16))
        ds = Dataset(rng.normal(size=(n_pos + n_neg, 2)), np.repeat([1, 0], [n_pos, n_neg]))
        theta = ScorerParams("linear", (2, 1), rng.normal(size=3))
        p = ds.prior_p
        cfg = ObjectiveConfig(("OPAUC", "TPAUC")[trial % 2], "unbiased",
                              float(rng.uniform(0.1, 1)), float(rng.uniform(0.1, 1)))
        box = cfg.boxes
        mv = MinVars(theta, *(float(rng.uniform(*box[k])) for k in ("a", "b", "s", "s_prime")))
        gamma = float(rng.uniform(*box["gamma"]))
        # positives come first, so this is the stacked batch evaluate scores
        f = score_batch(theta, ds.features)
        P = pos_branch_P(f[ds.pos_ids], mv.a, gamma)
        N = neg_branch_N(f[ds.neg_ids], mv.b, gamma)
        hinge = np.sum((cfg.beta * mv.s_prime + np.maximum(N - mv.s_prime, 0.0))
                       / (cfg.beta * (1 - p)))
        if cfg.metric_kind == "TPAUC":
            hinge += np.sum((cfg.alpha * mv.s + np.maximum(P - mv.s, 0.0)) / (cfg.alpha * p))
        else:
            hinge += np.sum(P / p)
        batch = Minibatch(ds.pos_ids, ds.neg_ids)
        c_best = best_response(cfg, mv, gamma, ds)[hinged_ids(cfg, batch)]
        lg = evaluate(cfg, mv.flat()[None], np.array([gamma]), batch, ds, c_best[None],
                      dims=theta.layer_dims)
        worst = max(worst, abs(float(lg.value[0]) - (hinge / ds.n - gamma ** 2)))
    return _report("hinge_weight_identity", trials, worst, 0.0)


ALL_CHECKS = {
    "reformulation_equivalence": check_reformulation_equivalence,
    "topk_threshold": check_topk_threshold,
    "softplus_gap": check_softplus_gap,
    "monotone_branches": check_monotone_branches,
    "hinge_weight_identity": check_hinge_weight_identity,
}


def run_all_checks(seed: int = 0, only=None, trials=None):
    """The named checks (all by default), each a zero-argument call that runs
    it and returns its report. A trials count below 1 or an unknown name in
    `only` is a ValueError, raised before any check runs."""
    if trials is not None and not trials >= 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    unknown = sorted(set(only or ()) - ALL_CHECKS.keys())
    if unknown:
        raise ValueError(f"only names unknown check(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(sorted(ALL_CHECKS))}")
    kwargs = {"seed": seed} if trials is None else {"seed": seed, "trials": trials}
    return [functools.partial(fn, **kwargs) for name, fn in ALL_CHECKS.items()
            if only is None or name in only]


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
