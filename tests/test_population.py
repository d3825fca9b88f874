"""The population yardstick of tests/population.py against scipy and draws."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from paucopt.metrics import empirical_opauc, empirical_tpauc

from population import HARD, population_opauc, population_tpauc

# the oracle against scipy's adaptive quadrature
QUAD_TOL = 1e-10
# the oracle against the mean of DRAWS empirical values over N_DRAW rows each
DRAWS, N_DRAW, STANDARD_ERRORS = 16, 200_000, 4.0


def direction(degrees: float) -> tuple:
    return math.cos(math.radians(degrees)), math.sin(math.radians(degrees))


def quad_tpauc(problem, w, alpha, beta):
    """TPAUC by scipy.integrate.quad in the FPR u, with scipy.stats.norm; at
    alpha = 1 it is OPAUC."""
    mu, sigma_pos, sigma_neg = problem.score_moments(w)

    def excess(u):
        tpr = stats.norm.cdf((mu + sigma_neg * stats.norm.ppf(u)) / sigma_pos)
        return max(tpr - (1.0 - alpha), 0.0)

    kink = stats.norm.cdf((sigma_pos * stats.norm.ppf(1.0 - alpha) - mu) / sigma_neg)
    value, _ = integrate.quad(excess, 0.0, beta, points=[kink] if 0 < kink < beta else None,
                              epsabs=1e-14, epsrel=1e-13, limit=200)
    return value / (alpha * beta)


@pytest.mark.parametrize("degrees", [0.0, 27.3, 54.0, 90.0, 135.0, 200.0])
@pytest.mark.parametrize("beta", [0.01, 0.1, 0.3, 1.0])
def test_oracle_matches_quad(degrees, beta):
    w = direction(degrees)
    assert abs(population_opauc(HARD, w, beta) - quad_tpauc(HARD, w, 1.0, beta)) <= QUAD_TOL
    for alpha in (0.1, 0.5, 0.9, 1.0):
        got, want = population_tpauc(HARD, w, alpha, beta), quad_tpauc(HARD, w, alpha, beta)
        assert abs(got - want) <= QUAD_TOL, alpha


@pytest.mark.parametrize("beta,degrees,value,logistic_value", [
    (0.05, 59.5, 0.349, 0.252), (0.1, 54.0, 0.417, 0.356), (0.3, 32.5, 0.576, 0.574)])
def test_optimal_direction_is_not_logistic_regression(beta, degrees, value, logistic_value):
    # the optimal angle is a maximum on a 0.5 degree grid, and logistic
    # regression's direction (27.3 degrees, fitted by Newton on 4e5 draws)
    # falls short of it
    at = population_opauc(HARD, direction(degrees), beta)
    assert at >= max(population_opauc(HARD, direction(degrees + d), beta) for d in (-0.5, 0.5))
    assert round(at, 3) == value
    assert round(population_opauc(HARD, direction(27.3), beta), 3) == logistic_value


def test_values_at_w_06_08():
    assert round(population_opauc(HARD, (0.6, 0.8), 0.1), 5) == 0.41719
    assert round(population_tpauc(HARD, (0.6, 0.8), 0.5, 0.1), 5) == 0.00575


@pytest.mark.parametrize("w,alpha,beta", [
    ((0.6, 0.8), 1.0, 0.1), ((1.0, 0.0), 1.0, 0.3),
    ((0.6, 0.8), 0.5, 0.1), ((0.9, 0.436), 0.9, 0.5)])
def test_oracle_matches_draws(w, alpha, beta):
    values = []
    for seed in range(DRAWS):
        ds = HARD.sample(N_DRAW, seed)
        scores = ds.features @ np.array(w)
        pos, neg = scores[ds.pos_ids], scores[ds.neg_ids]
        values.append(empirical_opauc(pos, neg, beta).value if alpha == 1.0
                      else empirical_tpauc(pos, neg, alpha, beta).value)
    oracle = (population_opauc(HARD, w, beta) if alpha == 1.0
              else population_tpauc(HARD, w, alpha, beta))
    standard_error = np.std(values, ddof=1) / math.sqrt(DRAWS)
    assert abs(np.mean(values) - oracle) <= STANDARD_ERRORS * standard_error, (
        np.mean(values), oracle, standard_error)


def test_sample_counts_and_determinism():
    ds = HARD.sample(1000, 3)
    assert (ds.n_pos, ds.n_neg, ds.dim) == (100, 900, 2)
    again = HARD.sample(1000, 3)
    assert ds.features.tobytes() == again.features.tobytes()
    assert ds.labels.tolist() == again.labels.tolist()
