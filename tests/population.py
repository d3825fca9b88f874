"""Exact population partial AUC of a linear scorer on a binormal problem.

A yardstick for training: on two Gaussian classes with unequal covariances,
the pAUC-optimal direction of a linear scorer differs from logistic
regression's, and the population OPAUC and TPAUC of any direction have a
closed form up to one smooth integral.

For s = w.x with positives N(m+, S+) and negatives N(m-, S-), let
mu = w.(m+ - m-), sigma+ = sqrt(w'S+w) and sigma- = sqrt(w'S-w). At
false-positive rate u the ROC is TPR(u) = Phi((mu + sigma- Phi^-1(u)) / sigma+),
and, as metrics.py normalises them,
    OPAUC(beta) = (1/beta) int_0^beta TPR(u) du,
    TPAUC(alpha, beta) = (1/(alpha beta)) int_0^beta [TPR(u) - (1 - alpha)]_+ du.
The integrals are taken in z = Phi^-1(u), where du = phi(z) dz and the
integrand is smooth (in u it has an infinite slope at 0), by NODES-point
Gauss-Legendre over [Z_LOW, Phi^-1(beta)]; below Z_LOW the integrand is
under phi(Z_LOW) < 1e-30. The TPAUC integral starts at its kink, where
TPR = 1 - alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from paucopt.data import Dataset

NODES = 200
Z_LOW = -12.0
_PHI = NormalDist()


@dataclass(frozen=True)
class Binormal:
    """Positives N(mean_pos, cov_pos), negatives N(mean_neg, cov_neg), and
    the positive share prior_p of a draw."""

    mean_pos: tuple
    cov_pos: tuple
    mean_neg: tuple
    cov_neg: tuple
    prior_p: float

    def score_moments(self, w) -> tuple:
        """(mu, sigma+, sigma-) of the score w.x."""
        w = np.asarray(w, dtype=np.float64)
        mu = float(w @ (np.asarray(self.mean_pos) - np.asarray(self.mean_neg)))
        return (mu, math.sqrt(w @ np.asarray(self.cov_pos) @ w),
                math.sqrt(w @ np.asarray(self.cov_neg) @ w))

    def sample(self, n: int, seed: int) -> Dataset:
        """round(prior_p * n) positives and the rest negatives, in shuffled
        order; deterministic per seed."""
        rng = np.random.default_rng(seed)
        n_pos = round(self.prior_p * n)
        feats = np.vstack([rng.multivariate_normal(self.mean_pos, self.cov_pos, n_pos),
                           rng.multivariate_normal(self.mean_neg, self.cov_neg, n - n_pos)])
        labels = (np.arange(n) < n_pos).astype(np.int64)
        order = rng.permutation(n)
        return Dataset(feats[order], labels[order])


# The ROADMAP's hard problem: d = 2, p = 0.1. Logistic regression points at
# about 27 degrees; OPAUC(0.1) peaks near 54 degrees at about 0.417.
HARD = Binormal(mean_pos=(1.0, 1.0), cov_pos=((0.2, 0.0), (0.0, 4.0)),
                mean_neg=(0.0, 0.0), cov_neg=((1.0, 0.0), (0.0, 1.0)), prior_p=0.1)


def _integral(fn, lo: float, hi: float) -> float:
    """int_lo^hi fn(z) dz by NODES-point Gauss-Legendre."""
    if hi <= lo:
        return 0.0
    x, wts = np.polynomial.legendre.leggauss(NODES)
    half, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
    return half * math.fsum(wt * fn(half * xi + mid) for xi, wt in zip(x.tolist(), wts.tolist()))


def _z(u: float) -> float:
    """Phi^-1(u), with Z_LOW for 0 and -Z_LOW for 1."""
    return Z_LOW if u <= 0.0 else -Z_LOW if u >= 1.0 else _PHI.inv_cdf(u)


def _tpr(problem: Binormal, w):
    """TPR as a function of z = Phi^-1(FPR)."""
    mu, sigma_pos, sigma_neg = problem.score_moments(w)
    return lambda z: _PHI.cdf((mu + sigma_neg * z) / sigma_pos)


def population_opauc(problem: Binormal, w, beta: float) -> float:
    tpr = _tpr(problem, w)
    return _integral(lambda z: tpr(z) * _PHI.pdf(z), Z_LOW, _z(beta)) / beta


def population_tpauc(problem: Binormal, w, alpha: float, beta: float) -> float:
    tpr = _tpr(problem, w)
    mu, sigma_pos, sigma_neg = problem.score_moments(w)
    # the kink, where TPR(z) = 1 - alpha: the integrand is 0 below it
    kink = (sigma_pos * _z(1.0 - alpha) - mu) / sigma_neg
    return _integral(lambda z: (tpr(z) - (1.0 - alpha)) * _PHI.pdf(z),
                     max(kink, Z_LOW), _z(beta)) / (alpha * beta)
