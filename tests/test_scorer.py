import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

import paucopt.scorer
from paucopt.data import Dataset, row_blocks
from paucopt.scorer import (
    ScorerParams,
    _forward,
    _layers,
    backprop_logit,
    expit,
    init_scorer,
    param_count,
    score_batch,
    score_with_pullback,
    warmup_logistic,
)


def score(params: ScorerParams, x: np.ndarray) -> float:
    """Score a single feature row."""
    return float(score_batch(params, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


def score_grad(params: ScorerParams, x: np.ndarray):
    """Score and the flat gradient d f / d weights for a single row."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    f, pullback = score_with_pullback(params.layer_dims, params.weights[None], x)
    dz = f * (1.0 - f)  # sigmoid'
    return float(f[0, 0]), pullback(dz)[0]


def weighted_score_grad(params: ScorerParams, x: np.ndarray,
                        weights: np.ndarray):
    """Scores plus the flat gradient of sum_i weights_i * f_i."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    f = score_batch(params, x)
    dz = weights * f * (1.0 - f)
    layers = _layers(params.layer_dims, params.weights[None])
    return f, backprop_logit(layers, _forward(layers, x)[1], dz[None])[0]


def cross_entropy(params: ScorerParams, ds) -> float:
    """Mean binary cross-entropy over a dataset."""
    f = np.clip(score_batch(params, ds.features), 1e-12, 1 - 1e-12)
    y = ds.labels.astype(np.float64)
    return float(-np.mean(y * np.log(f) + (1 - y) * np.log(1 - f)))


def mlp_forward_oracle(params, x):
    """Independent forward pass for cross-checking."""
    dims = params.layer_dims
    w = params.weights
    off = 0
    h = np.asarray(x, dtype=float)
    for li, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        W = w[off:off + din * dout].reshape(dout, din)
        off += din * dout
        b = w[off:off + dout]
        off += dout
        z = W @ h + b
        h = np.tanh(z) if li < len(dims) - 2 else z
    return 1.0 / (1.0 + np.exp(-h[0]))


class TestScore:
    def test_zero_weights_give_half(self):
        p = ScorerParams("linear", (3, 1), np.zeros(4))
        assert score(p, [1.0, -2.0, 0.5]) == 0.5

    def test_symmetric_cancellation(self):
        # w.x + bias = 0 by construction
        p = ScorerParams("linear", (2, 1), np.array([1.0, 1.0, -2.0]))
        assert score(p, [1.0, 1.0]) == pytest.approx(0.5)

    def test_mlp_matches_forward_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = init_scorer("mlp", 2, (3,), seed=int(rng.integers(1e6)))
            x = rng.normal(size=2)
            assert score(p, x) == pytest.approx(mlp_forward_oracle(p, x), abs=1e-12)

    def test_open_interval(self):
        p = ScorerParams("linear", (1, 1), np.array([50.0, 10.0]))
        s = score(p, [100.0])
        assert 0.0 < s < 1.0

    def test_dimension_mismatch(self):
        p = init_scorer("linear", 3, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            score(p, [1.0, 2.0])

    def test_param_count_validation(self):
        with pytest.raises(ValueError):
            ScorerParams("mlp", (2, 3, 1), np.zeros(5))
        assert param_count((2, 3, 1)) == 13


class TestScoreBlocks:
    """score_batch runs the forward pass one row_blocks block at a time."""

    @pytest.mark.parametrize("kind, hidden", [("linear", ()), ("mlp", (8,)), ("mlp", (16, 8))])
    def test_matches_one_unblocked_forward(self, kind, hidden):
        params = init_scorer(kind, 5, hidden, seed=3)
        layers = _layers(params.layer_dims, params.weights[None])
        block = next(row_blocks(10**9, max(params.layer_dims))).stop
        rng = np.random.default_rng(0)
        # 3 * block + 7 rows: three blocks, the last with the 7 rows left over
        for n in (block - 1, block, block + 1, 3 * block + 7):
            x = rng.standard_normal((n, 5)) * 3
            assert score_batch(params, x).tobytes() == _forward(layers, x)[0][0].tobytes(), n

    def test_peak_allocation_does_not_grow_with_n(self):
        params = init_scorer("mlp", 5, (8,), seed=3)
        transients = []
        for n in (20_000, 200_000):
            x = np.random.default_rng(0).standard_normal((n, 5))
            tracemalloc.start()
            try:
                scores = score_batch(params, x)   # noqa: F841 -- kept while memory is read
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            transients.append(peak - current)
        # one (n, 8) activation at n = 2e5 would add 12.8 MB, one n-length copy 1.6 MB
        assert transients[1] <= transients[0] + 65536, transients


@pytest.mark.parametrize("make,message", [
    (lambda: ScorerParams("tree", (2, 1), np.zeros(3)), "unknown scorer kind 'tree'"),
    (lambda: ScorerParams("mlp", (2, 3), np.zeros(9)), "bad layer_dims"),
    (lambda: ScorerParams("mlp", (2, 0, 1), np.zeros(1)), "bad layer_dims"),
    (lambda: ScorerParams("linear", (2, 3, 1), np.zeros(13)), "linear scorer takes"),
    (lambda: warmup_logistic(init_scorer("linear", 1, seed=0),
                             Dataset(np.zeros((2, 1)), np.array([0, 1])), -1, 0.1),
     "epochs must be nonnegative"),
], ids=["kind", "last-width", "zero-width", "linear-shape", "warmup-epochs"])
def test_invalid_input_raises(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("hidden", [(0,), (8, 0), (-1,)])
def test_init_scorer_rejects_a_width_below_one(hidden):
    # before any weight is drawn: a zero fan-in would give the bound 1/sqrt(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"bad layer_dims \(3, "):
            init_scorer("mlp", 3, hidden)


class TestExpit:
    """The numpy sigmoid against scipy.special.expit as the oracle. The two
    use different exp implementations, so they agree to a few ulp, not
    bit for bit."""

    def test_matches_scipy_within_4_ulp(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                            np.random.default_rng(0).normal(0.0, 30.0, 100_000)])
        np.testing.assert_array_max_ulp(expit(x), scipy.special.expit(x), maxulp=4)

    def test_exact_at_zero_and_infinities(self):
        got = expit(np.array([0.0, -0.0, np.inf, -np.inf]))
        np.testing.assert_array_equal(got, [0.5, 0.5, 1.0, 0.0])
        assert np.isnan(expit(np.array([np.nan]))).all()

    def test_overflow_gives_zero_without_warning(self):
        x = np.array([-709.0, -710.0, -745.0, -1e4, -np.finfo(np.float64).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
        assert got[0] > 0.0
        np.testing.assert_array_equal(got[1:], 0.0)

    def test_leaves_its_input_alone(self):
        x = np.zeros((2, 3))
        np.testing.assert_array_equal(expit(x), np.full((2, 3), 0.5))
        np.testing.assert_array_equal(x, 0.0)


class TestScoreGrad:
    def test_zero_weight_bias_grad(self):
        p = ScorerParams("linear", (2, 1), np.zeros(3))
        f, g = score_grad(p, [0.3, -0.7])
        assert g[-1] == pytest.approx(0.25)  # sigmoid'(0)

    def test_constant_zero_features(self):
        p = ScorerParams("linear", (2, 1), np.array([0.5, -0.5, 0.2]))
        f, g = score_grad(p, [0.0, 0.0])
        np.testing.assert_allclose(g[:2], 0.0)
        assert g[2] == pytest.approx(f * (1 - f))

    @pytest.mark.parametrize("kind,hidden", [("linear", ()), ("mlp", (4, 3))])
    def test_matches_finite_differences(self, kind, hidden):
        rng = np.random.default_rng(1)
        worst = 0.0
        for trial in range(50):
            p = init_scorer(kind, 3, hidden, seed=trial)
            x = rng.normal(size=3)
            f, g = score_grad(p, x)
            h = 1e-5
            for i in range(p.n_params):
                wp, wm = p.weights.copy(), p.weights.copy()
                wp[i] += h
                wm[i] -= h
                num = (score(p.with_weights(wp), x)
                       - score(p.with_weights(wm), x)) / (2 * h)
                rel = abs(num - g[i]) / max(abs(num), abs(g[i]), 1e-8)
                worst = max(worst, rel)
        assert worst <= 1e-5

    def test_weighted_grad_is_weight_combination(self):
        p = init_scorer("mlp", 2, (3,), seed=5)
        x = np.array([[0.2, -0.1], [1.0, 0.4]])
        w = np.array([0.7, -1.3])
        _, g = weighted_score_grad(p, x, w)
        g0 = score_grad(p, x[0])[1]
        g1 = score_grad(p, x[1])[1]
        np.testing.assert_allclose(g, w[0] * g0 + w[1] * g1, atol=1e-12)


class TestWarmup:
    def make_ds(self):
        feats = np.array([[2.0, 1.0], [-2.0, -1.0]])
        return Dataset(feats, np.array([1, 0]))

    def test_zero_epochs_identity(self):
        ds = self.make_ds()
        p = init_scorer("linear", 2, seed=0)
        q = warmup_logistic(p, ds, 0, 0.5)
        assert q is p

    def test_zero_lr_identity(self):
        ds = self.make_ds()
        p = init_scorer("linear", 2, seed=0)
        q = warmup_logistic(p, ds, 5, 0.0)
        assert q is p

    def test_ce_decreases_on_separable_data(self):
        ds = self.make_ds()
        p = init_scorer("linear", 2, seed=3)
        before = cross_entropy(p, ds)
        q = warmup_logistic(p, ds, 200, 0.5, seed=3)
        assert cross_entropy(q, ds) < before

    @staticmethod
    def fancy_index_oracle(params, ds, epochs, lr, batch_size, seed):
        """warmup_logistic's former body, each batch gathered by fancy indexing."""
        rng = np.random.default_rng(seed)
        w = params.weights.copy()
        for _ in range(epochs):
            order = rng.permutation(ds.n)
            for start in range(0, ds.n, batch_size):
                idx = order[start:start + batch_size]
                x = ds.features[idx]
                y = ds.labels[idx].astype(np.float64)
                f, pullback = score_with_pullback(params.layer_dims, w[None], x)
                g = pullback((f - y) / len(idx))
                w = w - lr * g[0]
        return w

    @pytest.mark.parametrize("kind,hidden", [("linear", ()), ("mlp", (4,))])
    # 100 rows: 25 divides them, 32 leaves a last batch of 4
    @pytest.mark.parametrize("batch_size", [25, 32])
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_matches_fancy_index_oracle(self, monkeypatch, kind, hidden, batch_size, epochs):
        rng = np.random.default_rng(5)
        labels = (rng.random(100) < 0.3).astype(np.int64)
        ds = Dataset(rng.normal(size=(100, 3)) + labels[:, None], labels)
        p = init_scorer(kind, 3, hidden, seed=1)
        # a batch below the 100 rows, so that an epoch takes several
        monkeypatch.setattr(paucopt.scorer, "WARMUP_BATCH", batch_size)
        q = warmup_logistic(p, ds, epochs, 0.3, seed=7)
        assert not np.array_equal(q.weights, p.weights)
        assert np.array_equal(q.weights,
                              self.fancy_index_oracle(p, ds, epochs, 0.3, batch_size, 7))


class TestSerialization:
    def test_json_roundtrip(self):
        p = init_scorer("mlp", 4, (5, 2), seed=9)
        q = ScorerParams.from_dict(json.loads(p.to_json()))
        assert q.kind == p.kind
        assert q.layer_dims == p.layer_dims
        np.testing.assert_array_equal(q.weights, p.weights)

    def test_scores_survive_roundtrip(self):
        p = init_scorer("mlp", 3, (4,), seed=2)
        q = ScorerParams.from_dict(json.loads(p.to_json()))
        x = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_array_equal(score_batch(p, x), score_batch(q, x))
