"""Per-step timings behind ``paucopt bench``.

bench_rows times the instance-wise objective against a pair-enumerating
loop across batch sizes (acceptance test 8 reads its ratios); step_sweep
times one solver step at growing dataset sizes for both formulations;
end_to_end times whole commands, each in a fresh interpreter.
"""

from __future__ import annotations

import functools
import json
import os
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


# bench_rows' batch sizes, each split in half, one half per class, and its
# rounds; step_sweep's timed steps per size and formulation
BATCH_SIZES = (64, 128, 256, 512)
REPS = 15
STEPS = 200


def bench_rows(seed: int = 0):
    """Median/p90 per-step milliseconds for instance-wise vs pairwise losses."""
    n = 2 * max(BATCH_SIZES) + 4
    ds = generate_synthetic(n, 0.5, 5, 2.0, seed)
    scorer = init_scorer("linear", 5, seed=seed)
    obj_cfg = ObjectiveConfig(metric_kind="OPAUC", formulation="surrogate", beta=0.3)
    tau, gamma = MinVars(theta=scorer).flat()[None], np.zeros(1)
    steps, calls = [], []     # (half batch, kind) and the step of each
    for bs in BATCH_SIZES:
        half = bs // 2
        batch = stratified_sample(ds, half, half, np.random.default_rng(seed))
        f_pos = list(score_batch(scorer, ds.features.take(batch.pos_ids, axis=0)))
        f_neg = list(score_batch(scorer, ds.features.take(batch.neg_ids, axis=0)))
        steps += [(half, "instance_wise"), (half, "pairwise")]
        calls += [lambda b=batch: evaluate(obj_cfg, tau, gamma, b, ds,
                                           dims=scorer.layer_dims).value,
                  lambda p=f_pos, q=f_neg: _pairwise_reference_step(p, q)]
    return [(half, half, median, p90, kind) for (half, kind), (median, p90)
            in zip(steps, _round_robin_ms(calls, REPS))]


def step_sweep(seed: int = 0):
    """Median/p90 milliseconds per asgda_step at n = 2e3, 2e5, 2e6, both
    formulations, over STEPS rounds.

    The problem is the README's OPAUC(0.3) with a linear scorer and a
    32 + 224 batch. One step touches only the batch, so its cost should not
    depend on n.
    """
    cfg = SolverConfig(nu=0.5, lam=0.5, seed=seed)
    runs, calls = [], []
    for n in (2_000, 200_000, 2_000_000):
        ds = generate_synthetic(n, 0.1, 5, 4.0, seed)
        for form in ("surrogate", "unbiased"):
            obj = ObjectiveConfig("OPAUC", form, 1.0, 0.3, 4.0, 0.1)
            state = init_state(ds, init_scorer("linear", 5, seed=seed), cfg, obj)
            runs.append((form, n))
            calls.append(functools.partial(asgda_step, state, cfg, obj, ds))
    return [{"formulation": form, "n": n, "median_ms": median, "p90_ms": p90}
            for (form, n), (median, p90) in zip(runs, _round_robin_ms(calls, STEPS))]


# The README's minimal train config.
README_CONFIG = {
    "dataset": {"synthetic": {"n": 2000, "imbalance": 0.1, "dim": 5,
                              "separation": 4.0, "seed": 7}},
    "scorer": {"kind": "linear"},
    "objective": {"metric": "OPAUC", "formulation": "unbiased", "beta": 0.3, "omega": 0.1},
    "solver": {"nu": 0.5, "lambda": 0.5, "T": 300, "warmup_epochs": 2},
    "seed": 7,
}


def _resized(config: dict, n: int, **solver) -> dict:
    """config with n synthetic rows and its solver keys updated by solver."""
    dataset = {"synthetic": {**config["dataset"]["synthetic"], "n": n}}
    return {**config, "dataset": dataset, "solver": {**config["solver"], **solver}}


# Run configs that `paucopt train` is timed on: the README's as it is, then at
# 10^6 rows the solver alone (T = 200, no warm-up) and the warm-up alone (T = 0).
TRAIN_RUNS = (README_CONFIG,
              _resized(README_CONFIG, 1_000_000, T=200, warmup_epochs=0),
              _resized(README_CONFIG, 1_000_000, T=0))
# CSV sizes that `paucopt evaluate` is timed on.
EVALUATE_ROWS = (10_000, 1_000_000)

# Run in a fresh interpreter with a command's argv: times the import of
# paucopt.cli, then main(argv) with its printed lines discarded, and prints
# both with the peak resident size of the interpreter's own address space
# (VmHWM, in KiB). That is what ru_maxrss reads for a command started from a
# shell; here ru_maxrss would read at least the parent's peak, which Linux
# hands to a child across exec.
_CHILD = """\
import contextlib, json, os, sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
from paucopt.cli import main
t1 = time.perf_counter()
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
t2 = time.perf_counter()
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({{"import_s": t1 - t0, "seconds": t2 - t1, "ru_maxrss_mb": peak / 1024}}))
sys.exit(code)
"""
# the directory the children import paucopt from: this tree's own
_SRC = str(Path(__file__).parent.parent)


def _child_env(tmp: Path) -> dict:
    """The environment end_to_end's children run in: every module's bytecode
    is written and read under tmp, so a tree with __pycache__ directories and
    one without read the same import time and peak."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
    return env


def _command_row(env: dict, rows, *argv) -> dict:
    """The end_to_end row of ``paucopt argv`` on rows rows, run in a fresh
    interpreter with env, with that interpreter's import_s beside it."""
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(src=_SRC), *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"paucopt {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return {"command": argv[0], "rows": rows, **json.loads(proc.stdout)}


def end_to_end(seed: int) -> list:
    """Wall seconds and peak resident MB of whole commands, each run once in a
    fresh interpreter: ``train`` on each of TRAIN_RUNS, then for each n in
    EVALUATE_ROWS ``generate`` of an n-row CSV and ``evaluate --out`` of an
    untrained mlp[8] checkpoint on it. The first row is the median seconds of
    those interpreters' ``import paucopt.cli``. An untimed first command
    compiles the modules, so that every timed one reads their bytecode."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        env = _child_env(tmp)
        # untimed: compiles what a command imports, numpy's lazily loaded
        # submodules among them, so that every timed child reads bytecode
        _command_row(env, None, "generate", "--n", 100, "--imbalance", 0.1,
                     "--output", tmp / "warm.csv")
        checkpoint = tmp / "mlp8.json"
        scorer = init_scorer("mlp", 5, (8,), seed=seed)
        checkpoint.write_text(json.dumps({"scorer": scorer.to_dict()}), encoding="utf-8")
        rows = []
        for i, config in enumerate(TRAIN_RUNS):
            (tmp / f"run{i}.json").write_text(json.dumps(config), encoding="utf-8")
            rows.append(_command_row(env, config["dataset"]["synthetic"]["n"], "train",
                                     "--config", tmp / f"run{i}.json", "--out", tmp / f"train{i}"))
        for n in EVALUATE_ROWS:
            data = tmp / f"data{n}.csv"
            rows.append(_command_row(env, n, "generate", "--n", n, "--imbalance", 0.1,
                                     "--separation", 4.0, "--seed", seed, "--output", data))
            rows.append(_command_row(env, n, "evaluate", "--data", data, "--checkpoint",
                                     checkpoint, "--at", "1,1", "1,0.3", "0.5,0.3",
                                     "--out", tmp / f"eval{n}"))
    imports = [row.pop("import_s") for row in rows]
    return [{"command": "import paucopt.cli", "rows": None, "seconds": float(np.median(imports))},
            *rows]


BENCH_COLUMNS = ["batch_pos", "batch_neg", "median_ms", "p90_ms", "kind"]


def bench_document(label: str, rows: list, seed: int) -> dict:
    """The BENCH_<label>.json record: bench_rows' rows, the step n-sweep, the
    end-to-end command times, the seed, the rounds and steps they were timed
    over, the library versions and the src/paucopt line count."""
    return {"label": label, "seed": seed, "reps": REPS, "steps": STEPS,
            "versions": {"python": platform.python_version(), "numpy": np.__version__},
            "src_paucopt_lines": sum(p.read_text(encoding="utf-8").count("\n")
                                     for p in Path(__file__).parent.glob("*.py")),
            "instance_vs_pairwise": [dict(zip(BENCH_COLUMNS, row)) for row in rows],
            "step_sweep": step_sweep(seed=seed),
            "end_to_end": end_to_end(seed)}
