"""Instance-wise minimax objectives for partial-AUC optimization.

One evaluator over the descent block tau = (theta, a, b, s, s', theta_a,
theta_b) and the ascent block (gamma, c), at K stacked points in one pass
over a minibatch, so a solver step gets its gradients at the old and the
new point from one call. The two formulations share the objective and
differ only in how the quantile-selection hinge [x - threshold]_+ is
treated:

* surrogate: a softplus of sharpness kappa, with selection weight
  sigma(kappa*(x - threshold)); c plays no role. Asymptotically unbiased,
  with gap at most ln2/kappa;
* unbiased: c*(x - threshold) with selection weight c in [0,1], exact at
  the inner maximum since [x]_+ = max_c c*x.

Both carry the strong-concavity regularizer -omega*gamma^2 (the unbiased
form additionally subtracts omega * mean(c_i^2)) and the Lagrangian terms
-theta_b*(b-1-gamma) - theta_a*(-a-gamma) that decouple the gamma-domain
coupling into plain boxes. ObjectiveConfig.boxes lists every box of the
problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Literal, get_args

import numpy as np

from .data import Dataset, Minibatch
from .scorer import ScorerParams, expit, score_with_pullback

# The MinVars scalars in flat-layout order, after theta.
FLAT_SCALARS = ("a", "b", "s", "s_prime", "theta_a", "theta_b")


class ObjectiveError(ValueError):
    """Raised for invalid objective configuration or evaluation inputs."""


MetricKind = Literal["OPAUC", "TPAUC"]
Formulation = Literal["surrogate", "unbiased"]


@dataclass(frozen=True)
class ObjectiveConfig:
    metric_kind: MetricKind = "OPAUC"
    formulation: Formulation = "surrogate"
    alpha: float = 1.0
    beta: float = 0.3
    kappa: float = 4.0
    omega: float = 0.0
    lagrange_cap: float = 1e9
    prior_p: float = 0.5

    def __post_init__(self):
        if self.metric_kind not in get_args(MetricKind):
            raise ObjectiveError(f"unknown metric kind {self.metric_kind!r}")
        if self.formulation not in get_args(Formulation):
            raise ObjectiveError(f"unknown formulation {self.formulation!r}")
        # each condition is False for NaN, so NaN fails every check
        for name, ok, rule in (
                ("alpha", 0.0 < self.alpha <= 1.0, "lie in (0,1]"),
                ("beta", 0.0 < self.beta <= 1.0, "lie in (0,1]"),
                ("kappa", self.kappa > 0 or self.formulation == "unbiased", "be positive"),
                ("omega", self.omega >= 0, "be nonnegative"),
                ("lagrange_cap", self.lagrange_cap >= 0, "be nonnegative"),
                ("prior_p", 0.0 < self.prior_p < 1.0, "lie in (0,1)")):
            if not ok:
                raise ObjectiveError(f"{name} must {rule}, got {getattr(self, name)!r}")

    @cached_property
    def boxes(self) -> dict:
        """(lo, hi) of every constrained variable; theta is free. OPAUC has
        no positive-side constraint, so its multiplier theta_a is pinned at 0."""
        cap = self.lagrange_cap
        return {"a": (0.0, 1.0), "b": (0.0, 1.0), "s": (-4.0, 1.0),
                "s_prime": (0.0, 5.0),
                "theta_a": (0.0, 0.0 if self.metric_kind == "OPAUC" else cap),
                "theta_b": (0.0, cap), "gamma": (-1.0, 1.0), "c": (0.0, 1.0)}

    def tau_box(self, n_theta: int) -> tuple:
        """(lo, hi) arrays over the MinVars.flat layout with n_theta weights:
        theta is free (+-inf), each scalar takes its box from boxes."""
        bounds = [(-np.inf, np.inf)] * n_theta + [self.boxes[name] for name in FLAT_SCALARS]
        lo, hi = np.array(bounds).T.copy()
        return lo, hi


@dataclass(frozen=True)
class MinVars:
    """Descent block. For OPAUC, s is unused and theta_a stays pinned at 0."""

    theta: ScorerParams
    a: float = 1.0
    b: float = 0.0
    s: float = 0.0
    s_prime: float = 1.0
    theta_a: float = 0.0
    theta_b: float = 0.0

    def flat(self) -> np.ndarray:
        """Layout: theta | a | b | s | s' | theta_a | theta_b."""
        return np.concatenate([
            self.theta.weights,
            [self.a, self.b, self.s, self.s_prime, self.theta_a, self.theta_b],
        ])

    def with_flat(self, vec: np.ndarray) -> "MinVars":
        n = self.theta.n_params
        if len(vec) != n + len(FLAT_SCALARS):
            raise ObjectiveError("flat vector length does not match layout")
        a, b, s, sp, ta, tb = vec[n:]
        return MinVars(self.theta.with_weights(vec[:n].copy()),
                       float(a), float(b), float(s), float(sp), float(ta), float(tb))


@dataclass(frozen=True)
class MaxVars:
    """Ascent block: the coupling scalar gamma plus per-instance weights c."""

    gamma: float = 0.0
    c: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))


@dataclass(frozen=True)
class LossGrad:
    """Partials and values at K points, one row (or entry) per point. The
    values are computed on first read: a solver step reads only partials."""

    grad_min: np.ndarray      # (K, P), over the MinVars flat layout
    grad_max_gamma: np.ndarray  # (K,)
    grad_max_c: np.ndarray    # (K, len(hinged_ids)), partial wrt c at each hinged id
    _value: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def value(self) -> np.ndarray:
        """(K,) objective values."""
        return self._value()


def softplus(x, kappa: float):
    """log(1 + exp(kappa*x)) / kappa, safe against overflow."""
    x = np.asarray(x, dtype=np.float64)
    # logaddexp(0, k*x) = log(1+e^{kx}) without overflow; for kx > 30 it
    # reduces to kx + log1p(e^{-kx}) internally, i.e. ~x after division
    out = np.logaddexp(0.0, kappa * x) / kappa
    return out if out.ndim else float(out)


def pos_branch_P(f_x, a: float, gamma: float):
    """Per-positive squared-center loss (f-a)^2 - 2(1+gamma)f."""
    return (f_x - a) ** 2 - 2.0 * (1.0 + gamma) * f_x


def neg_branch_N(f_x, b: float, gamma: float):
    """Per-negative squared-center loss (f-b)^2 + 2(1+gamma)f."""
    return (f_x - b) ** 2 + 2.0 * (1.0 + gamma) * f_x


def hinged_ids(cfg: ObjectiveConfig, batch: Minibatch) -> np.ndarray:
    """The batch ids whose c the value depends on, positives first: both
    classes for TPAUC, the negatives for OPAUC, none for the surrogate."""
    if cfg.formulation == "surrogate":
        return np.zeros(0, dtype=np.intp)
    if cfg.metric_kind == "TPAUC":
        return np.concatenate([batch.pos_ids, batch.neg_ids])
    return batch.neg_ids


def _hinge_branch(cfg: ObjectiveConfig, gap, frac: float, prior: float, B: int, c):
    """Partials of the per-instance (frac*thr + [x - thr]_+) / (frac*prior).

    gap = x - thr and c are (K, branch size). c is None for the surrogate
    hinge, a softplus with selection weight sigma(kappa*gap); otherwise the
    hinge is c*gap with weight c. Returns d value/d x, d value/d thr and
    d value/d c (None for the surrogate); the value is a batch mean, so
    each carries 1/B.
    """
    scale = frac * prior
    if c is None:
        w = expit(cfg.kappa * gap)
        d_c = None
    else:
        w = c
        d_c = gap / scale / B - 2.0 * cfg.omega * c / B
    return w / scale / B, (frac - w).sum(axis=-1, keepdims=True) / scale / B, d_c


def _hinge_terms(cfg: ObjectiveConfig, gap, thr, frac: float, prior: float, c):
    """The per-instance terms whose partials _hinge_branch gives."""
    hinge = softplus(gap, cfg.kappa) if c is None else c * gap
    return (frac * thr + hinge) / (frac * prior)


def evaluate(cfg: ObjectiveConfig, tau: np.ndarray, gamma: np.ndarray,
             batch: Minibatch, ds: Dataset, c: np.ndarray | None = None, *,
             dims) -> LossGrad:
    """Exact analytic partials and values under cfg.formulation at K points.

    tau stacks K MinVars.flat vectors whose theta has layer shape dims,
    gamma is (K,), and c holds the unbiased form's weights at
    hinged_ids(cfg, batch), one row per point; the surrogate reads no c.
    Each value is the batch mean of the per-instance objective plus the
    Lagrangian terms (added once). Negative hinges are taken at s'; for
    TPAUC the positive hinges are taken at s. For the unbiased form the
    concavity regularizer also subtracts omega * the batch mean of the
    participating c_i^2. The forward pass, every (K, B) term and every
    batch sum run once over the stacked batch for all K points. The values
    are computed when LossGrad.value is first read, from copies of tau's
    scalars, gamma and c, so the caller may overwrite its arrays meanwhile.
    """
    if batch.size == 0:
        # single-class batches are legal (the other branch contributes zero
        # terms); only a fully empty batch is meaningless
        raise ObjectiveError("empty batch")
    K, n_pos, tpauc = len(tau), len(batch.pos_ids), cfg.metric_kind == "TPAUC"
    unbiased = cfg.formulation == "unbiased"
    if unbiased and (c is None or c.shape != (K, n_pos * tpauc + len(batch.neg_ids))):
        raise ObjectiveError("c must hold one weight per hinged batch id at each point")
    p, q = cfg.prior_p, 1.0 - cfg.prior_p
    omega, B = cfg.omega, batch.size
    # the flat-layout scalars as (K, 1) columns, gamma likewise
    a, b, s, sp, ta, tb = tau[:, -len(FLAT_SCALARS):, None].transpose(1, 0, 2).copy()
    gamma = gamma.copy()
    g = gamma[:, None]
    # one forward pass of the K points over the stacked batch, whose rows
    # take gathers (faster than 2-D fancy indexing, same array); its
    # activations serve the theta backprop below
    f, pullback = score_with_pullback(
        dims, tau[:, :-len(FLAT_SCALARS)],
        ds.features.take(np.concatenate([batch.pos_ids, batch.neg_ids]), axis=0))
    f_pos, f_neg = f[:, :n_pos], f[:, n_pos:]

    # pos_branch_P and neg_branch_N, sharing their differences with the partials
    d_pos, d_neg, g2 = f_pos - a, f_neg - b, 2.0 * (1.0 + g)
    N = d_neg ** 2 + g2 * f_neg
    dP_df = 2.0 * d_pos - g2
    dN_df = 2.0 * d_neg + g2

    split = n_pos if tpauc else 0
    c = c.copy() if unbiased else None
    c_pos, c_neg = (c[:, :split], c[:, split:]) if unbiased else (None, None)
    if tpauc:
        gap_pos = d_pos ** 2 - g2 * f_pos - s    # P - s
        wp, gs, gc_pos = _hinge_branch(cfg, gap_pos, cfg.alpha, p, B, c_pos)
    else:
        # no positive hinge: each positive weighs 1/p in the batch mean
        wp, gs, gc_pos = 1.0 / p / B, np.zeros((K, 1)), np.zeros((K, 0))
    gap_neg = N - sp
    wn, gsp, gc_neg = _hinge_branch(cfg, gap_neg, cfg.beta, q, B, c_neg)

    def value() -> np.ndarray:
        if tpauc:
            pos_terms = _hinge_terms(cfg, gap_pos, s, cfg.alpha, p, c_pos)
        else:
            pos_terms = (d_pos ** 2 - g2 * f_pos) / p
        neg_terms = _hinge_terms(cfg, gap_neg, sp, cfg.beta, q, c_neg)
        data_value = (pos_terms.sum(axis=-1) + neg_terms.sum(axis=-1)) / B
        # libm pow, as Python's float ** 2 rounds, not numpy's square
        gamma_term = -(1.0 + omega) * np.float_power(gamma, 2)
        if unbiased:
            gamma_term -= omega * (((c_pos ** 2).sum(axis=-1) + (c_neg ** 2).sum(axis=-1)) / B)
        # Lagrangian terms; theta_a prices the positive side, absent for OPAUC
        lag = -tb * (b - 1.0 - g) - ta * (-a - g)
        return data_value + gamma_term + lag[:, 0]

    ga = (wp * (-2.0 * d_pos)).sum(axis=-1, keepdims=True) + ta
    gb = (wn * (-2.0 * d_neg)).sum(axis=-1, keepdims=True) - tb
    g_gamma = ((wp * (-2.0 * f_pos)).sum(axis=-1) + (wn * (2.0 * f_neg)).sum(axis=-1)
               - 2.0 * (1.0 + omega) * gamma)
    g_theta_a = a + g if tpauc else np.zeros((K, 1))
    g_theta = pullback(np.concatenate([wp * dP_df, wn * dN_df], axis=-1) * f * (1.0 - f))
    grad_min = np.concatenate([g_theta, ga, gb, gs, gsp, g_theta_a, 1.0 + g - b], axis=-1)
    grad_c = np.concatenate([gc_pos, gc_neg], axis=-1) if unbiased else np.zeros((K, 0))
    return LossGrad(grad_min, g_gamma + (ta + tb)[:, 0], grad_c, value)
