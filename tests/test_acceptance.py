"""Acceptance gate: every headline guarantee, one pass/fail line each.

Each test prints `ACCEPTANCE <name>: PASS|FAIL` (visible with pytest -s or
in captured output on failure) and asserts the stated tolerance.
"""

import contextlib
import io
import json
import time

import numpy as np

from paucopt.bench import bench_rows
from paucopt.cli import main
from paucopt.data import generate_synthetic, split, SplitSpec
from paucopt.metrics import empirical_auc, empirical_opauc, empirical_tpauc
from paucopt.objectives import (
    MaxVars,
    MinVars,
    ObjectiveConfig,
    best_response,
    pos_branch_P,
)
from paucopt.data import Dataset, Minibatch, stratified_sample
from paucopt.scorer import init_scorer, score_batch
from paucopt.solver import SolverConfig, asgda_step, init_state, train

from feasibility import box_violation
from points import evaluate_at


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def verify_row(tmp_path, monkeypatch, check):
    """`paucopt verify --only <check>` at its default trials: the check's
    verify.json row and the command's wall time. The printed report is kept
    from the PASS/FAIL line; it is the one verify.json holds."""
    monkeypatch.delenv("PAUC_SEED", raising=False)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--only", check, "--out", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - t0
    [row] = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
    assert row["name"] == check
    return row, elapsed


def test_1_reformulation_equivalence(tmp_path, monkeypatch):
    row, elapsed = verify_row(tmp_path, monkeypatch, "reformulation_equivalence")
    assert (row["trials"], row["bound"]) == (500, 1e-10)
    report("reformulation_equivalence", row["passed"] and elapsed < 5.0)


def test_2_topk_threshold_lemma(tmp_path, monkeypatch):
    row, elapsed = verify_row(tmp_path, monkeypatch, "topk_threshold")
    assert (row["trials"], row["bound"]) == (500, 1e-9)
    report("topk_threshold_lemma", row["passed"] and elapsed < 2.0)


def test_3_softplus_bias_bound(tmp_path, monkeypatch):
    # the bound is on the gap's excess over ln2/kappa, and on its growth along
    # the kappa sweep
    row, elapsed = verify_row(tmp_path, monkeypatch, "softplus_gap")
    assert (row["trials"], row["bound"]) == (100, 0.0)
    report("softplus_bias_bound", row["passed"] and elapsed < 10.0)


def test_4_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    configs = 0
    seed = 0
    while configs < 200:
        rng = np.random.default_rng(1000 + seed)
        seed += 1
        metric = ("OPAUC", "TPAUC")[configs % 2]
        formulation = ("surrogate", "unbiased")[(configs // 2) % 2]
        d = int(rng.integers(1, 6))
        ds = generate_synthetic(36, 0.4, d, 1.0, seed=seed)
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
        batch = stratified_sample(ds, 5, 9, rng)
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
        configs += 1
    elapsed = time.perf_counter() - t0
    report("gradient_fidelity", worst <= 1e-5 and elapsed < 30.0)


def test_5_feasibility_invariant():
    ds = generate_synthetic(800, 0.2, 4, 2.0, seed=13)
    scorer = init_scorer("mlp", 4, (4,), seed=13)
    obj = ObjectiveConfig("TPAUC", "unbiased", 0.6, 0.4, 4.0, 0.5)
    cfg = SolverConfig(nu=1.5, lam=1.0, T=2000, batch_pos=16, batch_neg=48,
                       seed=13)
    st = init_state(ds, scorer, cfg, obj)
    violations = 0
    for _ in range(2000):
        asgda_step(st, cfg, obj, ds)
        if box_violation(st, st.c, obj) > 0.0:
            violations += 1
    report("feasibility_invariant", violations == 0)


def test_6_optimization_sanity():
    ds = generate_synthetic(2000, 0.1, 5, 4.0, seed=7)
    tr, va, _ = split(ds, SplitSpec(seed=7))
    scorer = init_scorer("linear", 5, seed=7)
    ok = True
    for formulation in ("surrogate", "unbiased"):
        for metric, alpha, beta, floor in (("OPAUC", 1.0, 0.3, 0.95),
                                           ("TPAUC", 0.5, 0.5, 0.90)):
            obj = ObjectiveConfig(metric, formulation, alpha, beta, 4.0, 0.1)
            cfg = SolverConfig(nu=0.5, lam=0.5, T=300, batch_pos=32,
                               batch_neg=224, seed=7, warmup_epochs=2,
                               eval_every=150)
            t0 = time.perf_counter()
            _, _, trace = train(tr, va, scorer, cfg, obj)
            elapsed = time.perf_counter() - t0
            ok &= trace.records[-1].val_pauc >= floor
            ok &= elapsed < 60.0
    report("optimization_sanity", ok)


def test_7_quantile_deviation_ordering(tmp_path, monkeypatch):
    # `paucopt sweep` at its defaults: the command holds the sweep's data,
    # warm-up and solver settings. Its printed rows are kept from the
    # PASS/FAIL line; they are the ones sweep.json holds.
    monkeypatch.delenv("PAUC_SEED", raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8"))
    dev = {(r["kind"], r["kappa"]): r["beta_dev"] for r in rows}
    hinge_dev = [v for (k, _), v in dev.items() if k == "unbiased"][0]
    ok = (hinge_dev <= dev[("surrogate", 2.0)]
          and dev[("surrogate", 32.0)] <= dev[("surrogate", 2.0)])
    report("quantile_deviation_ordering", ok)


def test_8_linear_per_iteration_cost():
    rows = bench_rows(seed=0)
    med = {(kind, 2 * bp): m for bp, bn, m, p90, kind in rows}
    ok = True
    for small, big in ((64, 128), (128, 256), (256, 512)):
        ok &= med[("instance_wise", big)] / med[("instance_wise", small)] <= 2.6
        ok &= med[("pairwise", big)] / med[("pairwise", small)] >= 3.0
    report("linear_per_iteration_cost", ok)


def test_9_degenerations():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(100):
        pos = rng.uniform(0, 1, int(rng.integers(1, 20)))
        neg = rng.uniform(0, 1, int(rng.integers(1, 20)))
        beta = rng.uniform(1 / len(neg), 1.0)
        ok &= (empirical_tpauc(pos, neg, 1.0, beta).value
               == empirical_opauc(pos, neg, beta).value)
        ok &= (empirical_opauc(pos, neg, 1.0).value
               == empirical_auc(pos, neg).value)

        # objective degeneration: two-way form at alpha=1, with its positive
        # threshold at the top-k optimum and exact-hinge weights, must equal
        # the one-way form on the same batch
        n = int(rng.integers(6, 20))
        n_pos = int(rng.integers(2, n - 2))
        labels = np.array([1] * n_pos + [0] * (n - n_pos))
        ds = Dataset(rng.normal(size=(n, 2)), labels)
        theta = init_scorer("linear", 2, seed=int(rng.integers(1e6)))
        a, b = rng.uniform(0, 1, 2)
        gamma = float(rng.uniform(-1, 1))
        sp = float(rng.uniform(0, 2))
        f_pos = score_batch(theta, ds.features[ds.pos_ids])
        P = pos_branch_P(f_pos, a, gamma)
        s = float(P.min())
        c = rng.uniform(0, 1, n)
        batch = Minibatch(ds.pos_ids, ds.neg_ids)
        kw = dict(alpha=1.0, beta=0.5, kappa=2.0, omega=0.0)
        tp = ObjectiveConfig("TPAUC", "unbiased", **kw)
        op = ObjectiveConfig("OPAUC", "unbiased", **kw)
        mv_tp = MinVars(theta, a=a, b=b, s=s, s_prime=sp)
        # c_pos at its best response; c_neg stays random, as the identity
        # holds for any c_neg
        c[ds.pos_ids] = best_response(tp, mv_tp, gamma, ds)[ds.pos_ids]
        v_tp = evaluate_at(tp, mv_tp, MaxVars(gamma, c), batch, ds).value
        v_op = evaluate_at(op, MinVars(theta, a=a, b=b, s_prime=sp),
                           MaxVars(gamma, c), batch, ds).value
        ok &= abs(v_tp - v_op) <= 1e-12
    report("degenerations", ok)
