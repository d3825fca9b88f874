"""Tests of the benchmark itself: its oracle, its tracer and a tiny run of
every workload. Run with ``python -m pytest perfbench`` from the repo root.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import paucopt.metrics
import paucopt.objectives
import paucopt.solver
import oracle
import run
import speed
import tracing
from workloads import S_PRIME_BOX, WORKLOADS, box_problems

HERE = Path(__file__).resolve().parent
DEFINITION = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "train-small": dict(n=400, n_heldout=2000,
                        solver=dict(WORKLOADS["train-small"].solver, T=20, eval_every=10)),
    "train-large": dict(n=600, n_heldout=2000,
                        solver=dict(WORKLOADS["train-large"].solver, T=15, eval_every=10)),
    "evaluate-ties": dict(n=500, n_fit=300),
}


def test_definition_lists_every_workload():
    assert [w["name"] for w in DEFINITION["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("seed", range(20))
def test_oracle_matches_program_bit_for_bit_on_ties(seed):
    rng = np.random.default_rng(seed)
    pos = rng.integers(0, 6, size=rng.integers(2, 40)) / 4.0
    neg = rng.integers(0, 6, size=rng.integers(4, 90)) / 4.0
    for alpha, beta, program in (
            ("1", "1", paucopt.metrics.empirical_auc(pos, neg)),
            ("1", "0.3", paucopt.metrics.empirical_opauc(pos, neg, 0.3)),
            ("0.5", "0.3", paucopt.metrics.empirical_tpauc(pos, neg, 0.5, 0.3))):
        want = oracle.pauc(pos, neg, alpha, beta)
        assert want == {"metric_kind": program.metric_kind, "value": program.value,
                        "n_pos_used": program.n_pos_used,
                        "n_neg_used": program.n_neg_used}


def test_oracle_counts_ties_as_correctly_ranked():
    # one tie and one inversion among four pairs
    assert oracle.strict_pair_value(np.array([0.5, 0.2]), np.array([0.5, 0.1])) == 0.75


def test_roc_problems():
    pos, neg = np.array([0.9, 0.4, 0.4]), np.array([0.4, 0.1])
    rows = paucopt.metrics.roc_curve(pos, neg)
    assert oracle.roc_problems(rows, 5) == []
    assert oracle.roc_problems(rows[:-1], 5)
    assert oracle.roc_problems(rows[::-1], 5)
    assert oracle.roc_problems([(0.0, 0.0), (0.5, 0.5)] * 3, 5)


def test_box_check_tolerates_round_off_only():
    w = WORKLOADS["train-large"]
    inputs = w.prepare({"data": 1, "split": 2, "heldout": 3, "model": 4}, Path("."))
    tau, max_vars, _ = paucopt.solver.train(
        inputs.train, None, inputs.scorer0,
        dataclasses.replace(inputs.solver_cfg, T=2, warmup_epochs=0), inputs.obj_cfg)
    hi = S_PRIME_BOX[1]
    assert box_problems(dataclasses.replace(tau, s_prime=hi + 1.8e-15), max_vars,
                        inputs.obj_cfg) == []
    assert box_problems(dataclasses.replace(tau, s_prime=hi + 1e-9), max_vars,
                        inputs.obj_cfg)


def test_tracer_wraps_only_while_active():
    assert tracing.unwrapped_names() == []
    tracer = tracing.Tracer()
    with tracer:
        assert len(tracing.unwrapped_names()) == len(tracing.WRAP_POINTS)
    assert tracing.unwrapped_names() == []
    assert tracer.spans[0][0] == "op"


def test_attempt_flags_a_name_left_wrapped(monkeypatch):
    w = dataclasses.replace(WORKLOADS["train-small"], **TINY["train-small"])
    inputs = w.prepare({"data": 1, "split": 2, "heldout": 3, "model": 4}, Path("."))
    monkeypatch.setattr(paucopt.solver, "evaluate",
                        lambda *args: paucopt.objectives.evaluate(*args))
    op = run.attempt(w, inputs, traced=False, gauge=speed.Gauge())
    assert not op.ok
    assert "paucopt.solver.evaluate" in op.outcome.problems[0]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_runs_clean(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    w = dataclasses.replace(WORKLOADS[name], **TINY[name])
    res = run.run(w, seed=5, seconds=0.0, trace=trace)
    assert res["correct"], res
    assert res["failed"] == 0 and res["attempted"] == (2 if trace else 1)
    group = "per_layer" if trace else "end_to_end"
    assert sorted(res["metrics"]) == sorted(m["name"] for m in DEFINITION[group])
    if trace:
        is_train = name.startswith("train")
        assert (res["metrics"]["scorer.forwards_per_step"] > 0) == is_train
        assert (res["metrics"]["metrics.roc_s"] > 0) != is_train
    else:
        assert all(v > 0 for v in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_gauge_scales_by_the_kernel_samples(monkeypatch):
    kernel_times = iter([0.02] * speed.BRACKET + [0.04] * speed.BRACKET)
    monkeypatch.setattr(speed, "kernel_seconds", lambda: next(kernel_times))
    result, seconds, factor = speed.Gauge().measure(lambda: 7, sample=False)
    assert result == 7 and seconds >= 0.0
    assert factor == pytest.approx(speed.REFERENCE_S / 0.03)


def test_gauge_samples_during_a_section_and_passes_errors_on():
    gauge = speed.Gauge()

    def busy():
        end = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
        raise ValueError("from the section")

    t0 = time.perf_counter()
    result, seconds, factor = gauge.measure(busy)
    assert isinstance(result, ValueError)
    assert len(gauge.kernel_s) >= 2 * speed.BRACKET + 2      # around and during
    assert 0.0 < seconds < time.perf_counter() - t0 and factor > 0.0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
