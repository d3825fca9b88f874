import itertools
import math
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest

import paucopt.objectives
import paucopt.scorer
import paucopt.solver
from paucopt.data import Dataset, Minibatch, generate_synthetic, row_blocks, split, SplitSpec
from paucopt.objectives import _RECORD_WIDTH, LossGrad, ObjectiveConfig
from paucopt.scorer import init_scorer, warmup_logistic
from paucopt.solver import (
    SolverConfig,
    SolverError,
    _record_value_grad,
    asgda_step,
    eta_schedule,
    grad_mapping_proxy,
    init_state,
    train,
)

from feasibility import box_violation
from points import evaluate_at


@pytest.fixture(scope="module")
def small_setup():
    ds = generate_synthetic(120, 0.3, 3, 1.5, seed=3)
    scorer = init_scorer("linear", 3, seed=3)
    obj = ObjectiveConfig("OPAUC", "surrogate", 1.0, 0.4, 4.0, 0.1)
    return ds, scorer, obj


class TestEtaSchedule:
    def test_endpoint_one(self):
        cfg = SolverConfig(k_coef=2.0, m_coef=8.0)
        assert eta_schedule(cfg, 0) == pytest.approx(1.0)

    def test_cube_root(self):
        cfg = SolverConfig(k_coef=1.0, m_coef=27.0)
        assert eta_schedule(cfg, 0) == pytest.approx(1 / 3)

    def test_strictly_decreasing(self):
        cfg = SolverConfig(k_coef=2.0, m_coef=10.0)
        etas = [eta_schedule(cfg, t) for t in range(100)]
        assert all(b < a for a, b in zip(etas, etas[1:]))

    def test_m_must_dominate_k_cubed(self):
        with pytest.raises(SolverError):
            SolverConfig(k_coef=3.0, m_coef=10.0)


@pytest.mark.parametrize("name,value,message", [
    ("nu", -0.1, "at least 0"), ("nu", float("nan"), "at least 0"),
    ("lam", -0.1, "at least 0"), ("lam", float("nan"), "at least 0"),
    ("k_coef", 0.0, "above 0"), ("k_coef", float("nan"), "above 0"),
    ("m_coef", 1.5, "at least 2"), ("m_coef", float("nan"), "at least 2"),
    ("T", -1, "at least 0"), ("batch_pos", 0, "at least 1"), ("batch_neg", 0, "at least 1"),
    ("seed", -1, "at least 0"),
])
def test_config_check_names_the_field(name, value, message):
    with pytest.raises(SolverError, match=f"^{name} must be {message}, got {value!r}$"):
        SolverConfig(**{name: value})


class TestAsgdaStep:
    def test_eta_one_collapses_convex_combination(self, small_setup):
        ds, scorer, obj = small_setup
        cfg = SolverConfig(k_coef=2.0, m_coef=8.0, T=1, batch_pos=4,
                           batch_neg=8, seed=0)
        st = init_state(ds, scorer, cfg, obj)
        st.v = np.full_like(st.v, 0.7)  # nonzero so the step actually moves
        expected = np.clip(st.tau - cfg.nu * st.v, *st.box)
        asgda_step(st, cfg, obj, ds)
        np.testing.assert_allclose(st.tau, expected, atol=1e-12)

    def test_zero_steps_keep_variables(self, small_setup):
        ds, scorer, obj = small_setup
        cfg = SolverConfig(nu=0.0, lam=0.0, T=1, batch_pos=4, batch_neg=8,
                           seed=0)
        st = init_state(ds, scorer, cfg, obj)
        # the step updates st in place, so keep copies of the start
        tau, gamma = st.tau.copy(), st.gamma
        asgda_step(st, cfg, obj, ds)
        np.testing.assert_array_equal(st.tau, tau)
        assert st.gamma == gamma
        assert np.linalg.norm(st.v) > 0  # momenta still refresh

    def test_deterministic_traces(self, small_setup):
        ds, scorer, obj = small_setup
        cfg = SolverConfig(T=30, batch_pos=4, batch_neg=8, seed=5,
                           eval_every=10)
        a = train(ds, None, scorer, cfg, obj)[2]
        b = train(ds, None, scorer, cfg, obj)[2]
        # everything except wall-clock must match bit for bit
        # (val_pauc is nan here, so compare the first four columns)
        assert ([astuple(r)[:4] for r in a.records]
                == [astuple(r)[:4] for r in b.records])

    @pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
    @pytest.mark.parametrize("formulation", ["surrogate", "unbiased"])
    def test_frozen_theta_ends_bit_identical(self, metric, formulation):
        # the step oracle's problem; (1-eta)*theta + eta*theta can round off
        # theta, so only a box pinned at the start keeps it exact
        ds = generate_synthetic(300, 0.3, 3, 1.0, seed=4)
        obj = ObjectiveConfig(metric, formulation, 0.6, 0.4, 4.0, 0.2)
        cfg = SolverConfig(nu=1.0, lam=20.0, T=60, batch_pos=8, batch_neg=24,
                           seed=4, freeze_theta=True)
        scorer = init_scorer("mlp", 3, (4,), seed=4)
        tau, _, _ = train(ds, None, scorer, cfg, obj)
        assert np.array_equal(tau.theta.weights, scorer.weights)

    @pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
    @pytest.mark.parametrize("formulation", ["surrogate", "unbiased"])
    def test_feasible_after_every_step(self, small_setup, metric, formulation):
        ds, scorer, _ = small_setup
        obj = ObjectiveConfig(metric, formulation, 1.0 if metric == "OPAUC" else 0.6, 0.4,
                              4.0, 0.1)
        cfg = SolverConfig(nu=2.0, lam=2.0, T=100, batch_pos=4, batch_neg=8,
                           seed=1)
        st = init_state(ds, scorer, cfg, obj)
        for _ in range(100):
            asgda_step(st, cfg, obj, ds)
            assert box_violation(st, st.c, obj) == 0.0

    def test_box_violation_of_each_block(self, small_setup):
        ds, scorer, obj = small_setup
        st = init_state(ds, scorer, SolverConfig(), obj)
        # free weights, even infinite ones, are inside their box
        st.tau[:scorer.n_params] = [np.inf, -np.inf, 1e300, -1e300]
        with np.errstate(invalid="ignore"):     # inf - inf
            assert box_violation(st, st.c, obj) == 0.0
            st.gamma = 1.5
            assert box_violation(st, st.c, obj) == 0.5
            st.tau[-1] = -2.0    # theta_b, boxed at [0, lagrange_cap]
            assert box_violation(st, st.c, obj) == 2.0
        st.tau[:scorer.n_params] = 0.0
        assert box_violation(st, np.array([0.5, 3.0]), obj) == 2.0
        assert box_violation(st, np.array([0.5, 4.5]), obj) == 3.5

    def test_box_violation_matches_numpy_oracle(self, small_setup):
        def oracle(state, c, cfg):
            # a numpy reduction per block, then nan if any block is nan, else
            # Python's max over the three
            gaps = [float(np.fmax(lo - x, x - hi).max(initial=0.0)) for x, (lo, hi) in
                    ((state.tau, state.box), (state.gamma, cfg.boxes["gamma"]),
                     (c, cfg.boxes["c"]))]
            return float("nan") if any(map(math.isnan, gaps)) else max(gaps)

        ds, scorer, obj = small_setup
        st = init_state(ds, scorer, SolverConfig(), obj)
        inf, nan = float("inf"), float("nan")
        gammas = (0.3, -1.0, 1.0, 1.5, -2.5, nan, inf, -inf)
        weights = ([0.5, -0.5, 2.0, 0.0], [inf, -inf, 1e300, -1e300], [nan, 0.0, 0.0, 0.0])
        theta_bs = (0.0, -2.0, nan)
        cs = ([], [0.0, 1.0], [0.5, 3.0], [-0.5], [1.0 + 1e-16, 1.5], [nan, 0.5])
        with np.errstate(invalid="ignore"):     # inf - inf
            for gamma, w, theta_b, c in itertools.product(gammas, weights, theta_bs, cs):
                st.gamma, st.tau[:scorer.n_params], st.tau[-1] = gamma, w, theta_b
                c = np.array(c, dtype=np.float64)
                got, want = box_violation(st, c, obj), oracle(st, c, obj)
                assert (type(got), repr(got)) == (float, repr(want)), (gamma, w, theta_b, c)

    def test_no_box_violation_at_the_bound(self):
        # with the ascent frozen every c stays 1 > beta, so the s' gradient
        # drives s' to the top of its box, where for some eta past t ~ 1000
        # (1-eta)*5 + eta*5 rounds above 5 unless it is clamped again
        ds = generate_synthetic(200, 0.2, 3, 1.0, seed=0)
        obj = ObjectiveConfig("OPAUC", "unbiased", 1.0, 0.3, 4.0, 0.1)
        cfg = SolverConfig(nu=0.5, lam=0.0, T=1200, batch_pos=4,
                           batch_neg=16, seed=0, warmup_epochs=0)
        st = init_state(ds, init_scorer("linear", 3, seed=0), cfg, obj)
        for _ in range(cfg.T):
            asgda_step(st, cfg, obj, ds)
            assert box_violation(st, st.c, obj) == 0.0
        assert st.min_vars().s_prime == 5.0


@pytest.mark.parametrize("metric,alpha", [("OPAUC", 1.0), ("TPAUC", 0.5)])
@pytest.mark.parametrize("batch_pos,batch_neg", [(10**6, 64), (10**6, 10**6)])
def test_batch_past_the_class_sizes_trains_as_the_capped_batch(metric, alpha, batch_pos,
                                                                batch_neg):
    # a step draws each class's request capped at the class size, and sizes
    # the c step by the batch it drew, so the request past it changes nothing
    ds_train, ds_val, _ = split(generate_synthetic(300, 0.1, 3, 1.0, seed=2), SplitSpec(seed=2))
    assert (ds_train.n_pos, ds_train.n_neg) == (21, 189)
    obj = ObjectiveConfig(metric, "unbiased", alpha, 0.3, 4.0, 0.1)
    scorer = init_scorer("linear", 3, seed=2)
    runs = []
    for sizes in ((batch_pos, batch_neg),
                  (min(batch_pos, ds_train.n_pos), min(batch_neg, ds_train.n_neg))):
        cfg = SolverConfig(T=200, batch_pos=sizes[0], batch_neg=sizes[1], seed=2)
        tau, xv, trace = train(ds_train, ds_val, scorer, cfg, obj)
        runs.append((tau.flat().tobytes(), xv.gamma, xv.c.tobytes(),
                     [astuple(r)[:-1] for r in trace.records]))    # less elapsed_ms
    assert runs[0] == runs[1]


class TestTrain:
    def test_t_zero_identity(self, small_setup):
        ds, scorer, obj = small_setup
        cfg = SolverConfig(T=0, warmup_epochs=0, batch_pos=4, batch_neg=8,
                           seed=0)
        tau, xv, trace = train(ds, None, scorer, cfg, obj)
        np.testing.assert_array_equal(tau.theta.weights, scorer.weights)
        assert (tau.a, tau.b, tau.s, tau.s_prime) == (1.0, 0.0, 0.0, 1.0)
        assert xv.gamma == 0.0

    def test_separable_reaches_high_opauc(self):
        ds = generate_synthetic(2000, 0.1, 5, 4.0, seed=7)
        tr, va, _ = split(ds, SplitSpec(seed=7))
        scorer = init_scorer("linear", 5, seed=7)
        obj = ObjectiveConfig("OPAUC", "surrogate", 1.0, 0.3, 4.0, 0.1)
        cfg = SolverConfig(nu=0.5, lam=0.5, T=300, batch_pos=32,
                           batch_neg=224, seed=7, warmup_epochs=2,
                           eval_every=100)
        _, _, trace = train(tr, va, scorer, cfg, obj)
        assert trace.records[-1].val_pauc >= 0.95

    def test_unbiased_close_to_surrogate(self):
        ds = generate_synthetic(2000, 0.1, 5, 4.0, seed=7)
        tr, va, _ = split(ds, SplitSpec(seed=7))
        scorer = init_scorer("linear", 5, seed=7)
        results = {}
        for form in ("surrogate", "unbiased"):
            obj = ObjectiveConfig("OPAUC", form, 1.0, 0.3, 4.0, 0.1)
            cfg = SolverConfig(nu=0.5, lam=0.5, T=300, batch_pos=32,
                               batch_neg=224, seed=7, warmup_epochs=2,
                               eval_every=300)
            results[form] = train(tr, va, scorer, cfg, obj)[2].records[-1].val_pauc
        assert abs(results["surrogate"] - results["unbiased"]) <= 0.05

    @pytest.mark.parametrize("metric,alpha,beta,name", [
        ("OPAUC", 1.0, 0.003, "beta"), ("TPAUC", 0.01, 0.3, "alpha")])
    def test_validation_split_selecting_no_instance_fails_first(self, monkeypatch, metric,
                                                                alpha, beta, name):
        # the validation metric would fail at the first trace record; the
        # run must fail before its warm-up instead
        ds = generate_synthetic(2000, 0.1, 5, 4.0, seed=7)
        tr, va, _ = split(ds, SplitSpec(seed=7))
        obj = ObjectiveConfig(metric, "surrogate", alpha, beta)

        def no_work(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr(paucopt.solver, "warmup_logistic", no_work)
        monkeypatch.setattr(paucopt.solver, "asgda_step", no_work)
        cfg = SolverConfig(T=400, eval_every=200, warmup_epochs=2)
        side = "neg" if name == "beta" else "pos"
        with pytest.raises(SolverError, match=rf"^{name} selects no validation instance: "
                                              rf"floor\(n_{side}\*{name}\) = 0 "):
            train(tr, va, init_scorer("linear", 5, seed=7), cfg, obj)

    def test_only_the_training_split_builds_class_ids(self):
        ds = generate_synthetic(2000, 0.1, 5, 4.0, seed=7)
        tr, va, te = split(ds, SplitSpec(seed=7))
        obj = ObjectiveConfig("OPAUC", "unbiased", 1.0, 0.3)
        cfg = SolverConfig(T=20, eval_every=10, warmup_epochs=1, seed=7)
        train(tr, va, init_scorer("linear", 5, seed=7), cfg, obj)
        ids = {"pos_ids", "neg_ids"}
        assert [ids & vars(x).keys() for x in (ds, tr, va, te)] == [set(), ids, set(), set()]

    def test_trace_sorted_and_recorded(self, small_setup):
        ds, scorer, obj = small_setup
        cfg = SolverConfig(T=25, batch_pos=4, batch_neg=8, seed=0,
                           eval_every=10)
        _, _, trace = train(ds, None, scorer, cfg, obj)
        ts = [r.t for r in trace.records]
        assert ts == sorted(ts)
        assert ts[-1] == 25


class TestGradMappingProxy:
    def test_nonnegative_finite(self, small_setup):
        ds, scorer, obj = small_setup
        cfg = SolverConfig(T=1, batch_pos=4, batch_neg=8, seed=0)
        st = init_state(ds, scorer, cfg, obj)
        lg = evaluate_at(obj, st.min_vars(), st.max_vars(), Minibatch(ds.pos_ids, ds.neg_ids), ds)
        p = grad_mapping_proxy(st.tau, lg.grad_min, cfg.nu, st.box)
        assert p >= 0.0 and np.isfinite(p)

    def test_small_nu_approximates_grad_norm(self, small_setup):
        ds, scorer, obj = small_setup
        cfg = SolverConfig(nu=1e-7, T=1, batch_pos=4, batch_neg=8, seed=0)
        st = init_state(ds, scorer, cfg, obj)
        # move interior so no box face is active (theta_a stays pinned at 0)
        st.tau = st.tau * 0 + 0.5
        st.tau[-2] = 0.0
        lg = evaluate_at(obj, st.min_vars(), st.max_vars(), Minibatch(ds.pos_ids, ds.neg_ids), ds)
        proxy = grad_mapping_proxy(st.tau, lg.grad_min, cfg.nu, st.box)
        assert proxy == pytest.approx(np.linalg.norm(lg.grad_min), rel=1e-6)

    def test_zero_nu_reads_zero(self, small_setup):
        # (1/nu) * ||tau - P(tau)|| is 0/0 at nu = 0: it reads 0.0, and a run
        # with nu = 0 records it without a numpy warning
        ds, scorer, obj = small_setup
        cfg = SolverConfig(nu=0.0, T=20, batch_pos=4, batch_neg=8, seed=0, eval_every=10)
        st = init_state(ds, scorer, cfg, obj)
        lg = evaluate_at(obj, st.min_vars(), st.max_vars(), Minibatch(ds.pos_ids, ds.neg_ids), ds)
        assert grad_mapping_proxy(st.tau, lg.grad_min, cfg.nu, st.box) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, trace = train(ds, None, scorer, cfg, obj)
        assert [(r.t, r.grad_map_proxy) for r in trace.records] == [(10, 0.0), (20, 0.0)]

    def test_convex_toy_proxy_decreases(self):
        # frozen scorer: only (a, b, s', ...) move -> effectively convex
        ds = generate_synthetic(300, 0.3, 3, 2.0, seed=11)
        scorer = init_scorer("linear", 3, seed=11)
        obj = ObjectiveConfig("OPAUC", "surrogate", 1.0, 0.4, 4.0, 0.5)
        cfg = SolverConfig(nu=0.1, lam=0.3, T=2000, batch_pos=16,
                           batch_neg=48, seed=11, freeze_theta=True,
                           eval_every=100)
        st = init_state(ds, scorer, cfg, obj)
        lg = evaluate_at(obj, st.min_vars(), st.max_vars(), Minibatch(ds.pos_ids, ds.neg_ids), ds)
        first = grad_mapping_proxy(st.tau, lg.grad_min, cfg.nu, st.box)
        _, _, trace = train(ds, None, scorer, cfg, obj)
        tail = [r.grad_map_proxy for r in trace.records
                if r.t > 0.9 * 2000]
        assert max(tail) <= first / 10


class TestStepIsBatchSized:
    """Structural checks that one step does O(batch) work; no timing."""

    @staticmethod
    def unbiased_setup(n):
        ds = generate_synthetic(n, 0.1, 5, 4.0, seed=7)
        obj = ObjectiveConfig("OPAUC", "unbiased", 1.0, 0.3, 4.0, 0.1)
        cfg = SolverConfig(nu=0.5, lam=0.5, T=10, batch_pos=32,
                           batch_neg=224, seed=7)
        return ds, obj, cfg, init_state(ds, init_scorer("linear", 5, seed=7), cfg, obj)

    def test_step_peak_allocation_does_not_grow_with_n(self):
        peaks = []
        for n in (2_000, 200_000):
            ds, obj, cfg, st = self.unbiased_setup(n)
            for _ in range(3):   # past the first step, c and w_c move
                asgda_step(st, cfg, obj, ds)
            tracemalloc.start()
            try:
                asgda_step(st, cfg, obj, ds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one n-length float copy at n = 2e5 would add 1.6 MB
        assert abs(peaks[1] - peaks[0]) <= 4096, peaks

    def test_forward_passes_per_step_and_warmup_batch(self, monkeypatch):
        calls = []   # (points, rows) of each forward pass
        forward = paucopt.scorer._forward

        def counting(layers, x):
            calls.append((len(layers[0][0]), len(x)))
            return forward(layers, x)

        monkeypatch.setattr(paucopt.scorer, "_forward", counting)
        ds, obj, cfg, st = self.unbiased_setup(2_000)
        for _ in range(5):
            calls.clear()
            asgda_step(st, cfg, obj, ds)
            assert calls == [(2, 256)]   # the old and new point, stacked
        calls.clear()
        warmup_logistic(st.min_vars().theta, ds, 1, 0.1)
        assert calls == [(1, 256)] * (ds.n // 256) + [(1, ds.n % 256)]

    def test_step_computes_no_value(self, monkeypatch):
        # a step reads only partials; the surrogate's value calls softplus
        # once per branch, and train reads it once per trace record
        calls = []
        softplus = paucopt.objectives.softplus

        def counting(x, kappa):
            calls.append(np.shape(x))
            return softplus(x, kappa)

        monkeypatch.setattr(paucopt.objectives, "softplus", counting)
        ds = generate_synthetic(400, 0.2, 4, 2.0, seed=5)
        obj = ObjectiveConfig("TPAUC", "surrogate", 0.5, 0.3, 4.0, 0.1)
        cfg = SolverConfig(T=30, batch_pos=8, batch_neg=24, seed=5, eval_every=10)
        scorer = init_scorer("mlp", 4, (8,), seed=5)
        st = init_state(ds, scorer, cfg, obj)
        for _ in range(5):
            asgda_step(st, cfg, obj, ds)
        assert calls == []
        trace = train(ds, None, scorer, cfg, obj)[2]
        assert len(trace.records) == 3
        assert calls == [(1, ds.n_pos), (1, ds.n_neg)] * 3


def one_pass_record(ds, obj, cfg, tau, xv):
    """A trace record's objective and grad_map_proxy at (tau, xv) from one
    evaluate call over the whole split."""
    lg = evaluate_at(obj, tau, xv, Minibatch(ds.pos_ids, ds.neg_ids), ds)
    box = obj.tau_box(tau.theta.n_params)
    return lg.value, grad_mapping_proxy(tau.flat(), lg.grad_min, cfg.nu, box)


class TestBlockedRecord:
    """train's trace record over a split larger than one row block: one
    evaluate call per class-pure block, summed with the blocks' shares."""

    BLOCK = next(row_blocks(10**9, _RECORD_WIDTH)).stop

    @pytest.fixture(scope="class")
    def large(self):
        # 6e4 rows: one positive block and three negative ones
        return generate_synthetic(60_000, 0.1, 5, 2.0, seed=1)

    @pytest.fixture
    def record_calls(self, monkeypatch):
        """The (batch, c) of each evaluate call at one point, a record's; a
        step evaluates two."""
        evaluate, calls = paucopt.solver.evaluate, []

        def spy(cfg, tau, gamma, batch, ds, c=None, **kwargs):
            if len(tau) == 1:
                calls.append((batch, c))
            return evaluate(cfg, tau, gamma, batch, ds, c, **kwargs)

        monkeypatch.setattr(paucopt.solver, "evaluate", spy)
        return calls

    @staticmethod
    def check_class_pure_blocks(ds, calls, blocks):
        """One record over ds, at c unlike at each id, makes calls over the
        given (positive, negative) numbers of blocks that cover its classes."""
        obj = ObjectiveConfig("TPAUC", "unbiased", 0.5)
        st = init_state(ds, init_scorer("linear", ds.dim, seed=1), SolverConfig(), obj)
        st.c = np.random.default_rng(1).uniform(size=ds.n)
        _record_value_grad(st, obj, ds)
        pos = [b.pos_ids for b, _ in calls if len(b.pos_ids)]
        neg = [b.neg_ids for b, _ in calls if len(b.neg_ids)]
        assert (len(pos), len(neg)) == blocks
        assert all(b.size in (len(b.pos_ids), len(b.neg_ids)) for b, _ in calls)
        assert np.array_equal(np.concatenate(pos), ds.pos_ids)
        assert np.array_equal(np.concatenate(neg), ds.neg_ids)
        for batch, c in calls:
            assert np.array_equal(c, st.c[np.concatenate([batch.pos_ids, batch.neg_ids])][None])

    def test_parts_are_class_pure_blocks_that_cover_the_split(self, large, record_calls):
        self.check_class_pure_blocks(large, record_calls, (1, 3))

    @pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
    @pytest.mark.parametrize("formulation", ["surrogate", "unbiased"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_matches_one_pass_evaluate(self, large, record_calls, metric, formulation, kind):
        scorer = init_scorer(kind, 5, (8,), seed=1)
        cfg = SolverConfig(T=20, seed=1, eval_every=1000)
        # the one pass weights each class by its share of the split, so the
        # blocks must too, whatever prior_p the caller left in the config
        for prior_p in (large.prior_p, 0.5):
            obj = ObjectiveConfig(metric, formulation, 0.5, 0.3, 4.0, 0.1, prior_p=prior_p)
            tau, xv, trace = train(large, None, scorer, cfg, obj)
            assert sum(len(b.neg_ids) > 0 for b, _ in record_calls) >= 3
            rec = trace.records[-1]
            for got, want in zip((rec.objective, rec.grad_map_proxy),
                                 one_pass_record(large, obj, cfg, tau, xv)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (prior_p, got, want)

    @pytest.mark.parametrize("metric", ["OPAUC", "TPAUC"])
    @pytest.mark.parametrize("formulation", ["surrogate", "unbiased"])
    def test_split_inside_one_block_records_one_pass_bits(self, record_calls, metric,
                                                          formulation):
        ds = generate_synthetic(self.BLOCK, 0.2, 4, 2.0, seed=2)
        obj = ObjectiveConfig(metric, formulation, 0.5, 0.3, 4.0, 0.1)
        cfg = SolverConfig(T=10, seed=2)
        tau, xv, trace = train(ds, None, init_scorer("mlp", 4, (4,), seed=2), cfg, obj)
        assert len(record_calls) == 1
        rec = trace.records[-1]
        assert (rec.objective, rec.grad_map_proxy) == one_pass_record(ds, obj, cfg, tau, xv)

    def test_one_call_below_twice_the_block_rows(self, record_calls):
        # the last block takes under twice BLOCK rows: 2 * BLOCK - 1 rows are
        # the most one call takes, and one row more is split by class
        ds = generate_synthetic(2 * self.BLOCK - 1, 0.2, 4, 2.0, seed=2)
        obj = ObjectiveConfig("TPAUC", "unbiased", 0.5, 0.3, 4.0, 0.1)
        cfg = SolverConfig(T=10, seed=2)
        tau, xv, trace = train(ds, None, init_scorer("mlp", 4, (4,), seed=2), cfg, obj)
        assert len(record_calls) == 1
        rec = trace.records[-1]
        assert (rec.objective, rec.grad_map_proxy) == one_pass_record(ds, obj, cfg, tau, xv)
        record_calls.clear()
        ds = generate_synthetic(2 * self.BLOCK, 0.2, 4, 2.0, seed=2)
        self.check_class_pure_blocks(ds, record_calls, (1, 1))

    def test_peak_allocation_does_not_grow_with_n(self):
        def peak(blocks_pos, blocks_neg):
            # every block holds BLOCK rows, so a block's temporaries are the
            # same at both sizes
            n_pos, n = blocks_pos * self.BLOCK, (blocks_pos + blocks_neg) * self.BLOCK
            rng = np.random.default_rng(3)
            ds = Dataset(rng.standard_normal((n, 2)), rng.permutation(np.arange(n) < n_pos))
            obj = ObjectiveConfig("TPAUC", "unbiased", 0.5, 0.3, 4.0, 0.1)
            cfg = SolverConfig(seed=3)
            st = init_state(ds, init_scorer("linear", 2, seed=3), cfg, obj)
            # built on first read, as train's first step does, and kept
            ds.pos_ids, ds.neg_ids
            tracemalloc.start()
            try:
                _record_value_grad(st, obj, ds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 65536 and 655360 rows; one n-length float copy of the larger split
        # would add 5.2 MB
        small, large = peak(1, 3), peak(4, 36)
        assert abs(large - small) <= 4096, (small, large)

    def test_non_finite_value_in_one_block_stops_the_run(self, large, monkeypatch):
        # the record's third evaluate call, a negative block, reads inf
        evaluate = paucopt.solver.evaluate
        record_calls = []

        def one_block_inf(cfg, tau, *args, **kwargs):
            lg = evaluate(cfg, tau, *args, **kwargs)
            if len(tau) == 1:
                record_calls.append(1)
                if len(record_calls) == 3:
                    return LossGrad(lg.grad_min, lg.grad_max_gamma, lg.grad_max_c,
                                    lambda: np.array([np.inf]))
            return lg

        monkeypatch.setattr(paucopt.solver, "evaluate", one_block_inf)
        obj = ObjectiveConfig("OPAUC", "unbiased", 1.0, 0.3, 4.0, 0.1)
        cfg = SolverConfig(T=20, seed=1, eval_every=5)
        with pytest.raises(SolverError, match=r"^non-finite objective at t=5$"):
            train(large, None, init_scorer("linear", 5, seed=1), cfg, obj)
        assert len(record_calls) == 4
