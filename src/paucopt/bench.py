"""Per-step timings behind ``paucopt bench``.

bench_rows times the instance-wise objective against a pair-enumerating
loop across batch sizes (acceptance test 8 reads its ratios); step_sweep
times one solver step at growing dataset sizes for both formulations;
end_to_end times a cold import and whole commands.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .data import generate_synthetic, stratified_sample
from .objectives import MinVars, ObjectiveConfig, evaluate
from .scorer import init_scorer, score_batch
from .solver import SolverConfig, asgda_step, init_state


def _pairwise_reference_step(f_pos, f_neg) -> float:
    # deliberately pair-enumerating: the O(n_pos*n_neg) baseline being compared
    total = 0.0
    for fp in f_pos:
        for fn in f_neg:
            total += (1.0 - (fp - fn)) ** 2
    return total / (len(f_pos) * len(f_neg))


def _round_robin_ms(calls: list, reps: int) -> list:
    """(median, p90) milliseconds per call of each function, over reps rounds.

    The rounds go round-robin over all the functions, so a slow phase of the
    host slows all of them alike. Each timed call follows an untimed call of
    the same function, so it runs with warm caches, as back-to-back reps do.
    """
    times = [[] for _ in calls]
    for _ in range(reps):
        for call, ms in zip(calls, times):
            call()
            t0 = time.perf_counter()
            call()
            ms.append((time.perf_counter() - t0) * 1000.0)
    return [(float(np.median(ms)), float(np.percentile(ms, 90))) for ms in times]


def bench_rows(batch_sizes=(64, 128, 256, 512), reps: int = 15, seed: int = 0):
    """Median/p90 per-step milliseconds for instance-wise vs pairwise losses."""
    # a batch size is split in half, one half per class
    for name, value, low in (("reps", reps, 1), *(("batch_sizes", bs, 2) for bs in batch_sizes)):
        if not value >= low:
            raise ValueError(f"{name} must be at least {low}, got {value!r}")
    n = 2 * max(batch_sizes) + 4
    ds = generate_synthetic(n, 0.5, 5, 2.0, seed)
    scorer = init_scorer("linear", 5, seed=seed)
    obj_cfg = ObjectiveConfig(metric_kind="OPAUC", formulation="surrogate",
                              beta=0.3, prior_p=ds.prior_p)
    tau, gamma = MinVars(theta=scorer).flat()[None], np.zeros(1)
    steps, calls = [], []     # (half batch, kind) and the step of each
    for bs in batch_sizes:
        half = bs // 2
        batch = stratified_sample(ds, half, half, np.random.default_rng(seed))
        f_pos = list(score_batch(scorer, ds.features.take(batch.pos_ids, axis=0)))
        f_neg = list(score_batch(scorer, ds.features.take(batch.neg_ids, axis=0)))
        steps += [(half, "instance_wise"), (half, "pairwise")]
        calls += [lambda b=batch: evaluate(obj_cfg, tau, gamma, b, ds,
                                           dims=scorer.layer_dims).value,
                  lambda p=f_pos, q=f_neg: _pairwise_reference_step(p, q)]
    return [(half, half, median, p90, kind) for (half, kind), (median, p90)
            in zip(steps, _round_robin_ms(calls, reps))]


def step_sweep(steps: int = 200, seed: int = 0):
    """Median/p90 milliseconds per asgda_step at n = 2e3, 2e5, 2e6, both formulations.

    The problem is the README's OPAUC(0.3) with a linear scorer and a
    32 + 224 batch. One step touches only the batch, so its cost should not
    depend on n.
    """
    if not steps >= 1:
        raise ValueError(f"steps must be at least 1, got {steps!r}")
    cfg = SolverConfig(nu=0.5, lam=0.5, seed=seed)
    runs, calls = [], []
    for n in (2_000, 200_000, 2_000_000):
        ds = generate_synthetic(n, 0.1, 5, 4.0, seed)
        for form in ("surrogate", "unbiased"):
            obj = ObjectiveConfig("OPAUC", form, 1.0, 0.3, 4.0, 0.1, prior_p=ds.prior_p)
            state = init_state(ds, init_scorer("linear", 5, seed=seed), cfg, obj)
            runs.append((form, n))
            calls.append(functools.partial(asgda_step, state, cfg, obj, ds))
    return [{"formulation": form, "n": n, "median_ms": median, "p90_ms": p90}
            for (form, n), (median, p90) in zip(runs, _round_robin_ms(calls, steps))]


# The README's minimal train config.
README_CONFIG = {
    "dataset": {"synthetic": {"n": 2000, "imbalance": 0.1, "dim": 5,
                              "separation": 4.0, "seed": 7}},
    "scorer": {"kind": "linear"},
    "objective": {"metric": "OPAUC", "formulation": "unbiased", "beta": 0.3, "omega": 0.1},
    "solver": {"nu": 0.5, "lambda": 0.5, "T": 300, "warmup_epochs": 2},
    "seed": 7,
}
# CSV sizes that `paucopt evaluate` is timed on.
EVALUATE_ROWS = (10_000, 1_000_000)
# Fresh interpreters whose import of paucopt.cli is timed.
COLD_STARTS = 5


def cold_import_seconds() -> float:
    """Median wall seconds of ``import paucopt.cli`` in a fresh interpreter,
    over COLD_STARTS interpreters. Each child times its own import, so the
    interpreter's start-up is left out."""
    code = (f"import sys, time; sys.path.insert(0, {str(Path(__file__).parent.parent)!r}); "
            "t = time.perf_counter(); import paucopt.cli; print(time.perf_counter() - t)")
    return float(np.median([
        float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(COLD_STARTS)]))


def end_to_end(seed: int) -> list:
    """Wall seconds of a cold ``import paucopt.cli`` (cold_import_seconds),
    then of whole commands, each run once in this process with its printed
    lines discarded: ``train`` on README_CONFIG, then for each n in
    EVALUATE_ROWS ``generate`` of an n-row CSV and ``evaluate --out`` of the
    trained checkpoint on it."""
    from .cli import main       # cli imports this module

    def seconds(*argv) -> float:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"paucopt {argv[0]} exited {code}")
        return time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.json").write_text(json.dumps(README_CONFIG), encoding="utf-8")
        rows = [{"command": "import paucopt.cli", "rows": None,
                 "seconds": cold_import_seconds()},
                {"command": "train", "rows": README_CONFIG["dataset"]["synthetic"]["n"],
                 "seconds": seconds("train", "--config", tmp / "run.json", "--out", tmp / "train")}]
        for n in EVALUATE_ROWS:
            data = tmp / f"data{n}.csv"
            rows.append({"command": "generate", "rows": n, "seconds": seconds(
                "generate", "--n", n, "--imbalance", 0.1, "--separation", 4.0,
                "--seed", seed, "--output", data)})
            rows.append({"command": "evaluate", "rows": n, "seconds": seconds(
                "evaluate", "--data", data, "--checkpoint", tmp / "train" / "checkpoint.json",
                "--at", "1,1", "1,0.3", "0.5,0.3", "--out", tmp / "evaluate")})
    return rows


BENCH_COLUMNS = ["batch_pos", "batch_neg", "median_ms", "p90_ms", "kind"]


def bench_document(label: str, rows: list, seed: int, reps: int, steps: int) -> dict:
    """The BENCH_<label>.json record: bench_rows' rows, the step n-sweep, the
    end-to-end command times, the seed, the library versions and the
    src/paucopt line count."""
    return {"label": label, "seed": seed, "reps": reps, "steps": steps,
            "versions": {"python": platform.python_version(), "numpy": np.__version__},
            "src_paucopt_lines": sum(p.read_text(encoding="utf-8").count("\n")
                                     for p in Path(__file__).parent.glob("*.py")),
            "instance_vs_pairwise": [dict(zip(BENCH_COLUMNS, row)) for row in rows],
            "step_sweep": step_sweep(steps=steps, seed=seed),
            "end_to_end": end_to_end(seed)}
