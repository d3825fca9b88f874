"""The benchmark's workloads: seeded inputs, one timed op each, output checks.

Every input is generated here from the run's seed; paucopt only ever sees
the generated datasets, CSV files and checkpoints. The train workloads call
the library through its dataclasses (``ObjectiveConfig``, ``SolverConfig``,
``paucopt.solver.train``); evaluate-ties calls the command line entry point
``paucopt.cli.main(["evaluate", ...])`` in-process.

A workload object knows how to ``prepare`` its inputs, ``run`` one op and
``check`` what the op returned.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import paucopt.cli
import paucopt.data
import paucopt.scorer
import paucopt.solver
from paucopt.objectives import ObjectiveConfig
from paucopt.solver import SolverConfig

import oracle

BOX_TOL = 1e-12
# The boxes of the threshold variables s and s' (the paper's [-4, 1] and
# [0, 5]), kept here so the feasibility check does not trust the program.
S_BOX = (-4.0, 1.0)
S_PRIME_BOX = (0.0, 5.0)

# The README's solver settings, shared by both train workloads.
SOLVER_COMMON = dict(nu=0.5, lam=0.5, batch_pos=32, batch_neg=224, warmup_epochs=2)


@dataclass
class Outcome:
    """One op's result, reduced to what the metrics and checks need."""

    value: float = math.nan          # the pAUC the op produced
    problems: list = field(default_factory=list)
    box_violations: int = 0


def derive_seeds(seed: int) -> dict[str, int]:
    """Independent seeds for each random input, all from the run's seed."""
    state = np.random.SeedSequence(seed).generate_state(4)
    return dict(zip(("data", "split", "heldout", "model"), map(int, state)))


def tie_share(scores: np.ndarray) -> float:
    """Share of rows whose score repeats the score of an earlier row."""
    return 1.0 - len(np.unique(scores)) / len(scores)


def box_problems(tau, max_vars, obj_cfg: ObjectiveConfig) -> list[str]:
    """Variables outside their boxes by more than BOX_TOL."""
    cap = obj_cfg.lagrange_cap
    boxes = (("a", tau.a, 0.0, 1.0), ("b", tau.b, 0.0, 1.0),
             ("s", tau.s, *S_BOX), ("s_prime", tau.s_prime, *S_PRIME_BOX),
             ("theta_a", tau.theta_a, 0.0, cap), ("theta_b", tau.theta_b, 0.0, cap),
             ("gamma", max_vars.gamma, -1.0, 1.0))
    out = [f"final {name} = {val!r} outside [{lo}, {hi}]"
           for name, val, lo, hi in boxes
           if not lo - BOX_TOL <= val <= hi + BOX_TOL]
    c = max_vars.c
    if len(c) and not (c.min() >= -BOX_TOL and c.max() <= 1.0 + BOX_TOL):
        out.append(f"final c spans [{c.min()!r}, {c.max()!r}], outside [0, 1]")
    return out


@dataclass
class TrainInputs:
    full: paucopt.data.Dataset
    train: paucopt.data.Dataset
    val: paucopt.data.Dataset
    heldout: paucopt.data.Dataset
    scorer0: paucopt.scorer.ScorerParams
    obj_cfg: ObjectiveConfig
    solver_cfg: SolverConfig


@dataclass(frozen=True)
class TrainWorkload:
    """One ``train`` call on a synthetic two-Gaussian dataset.

    The dataset is split 70/15/15 as ``paucopt train`` does and the
    validation part feeds ``train``. The pAUC is measured on a separate
    held-out draw of ``n_heldout`` rows from the same distribution, large
    enough that the figure reflects the trained scorer, not test-set noise.
    """

    name: str
    n: int
    scorer: tuple            # (kind, hidden widths)
    objective: dict          # ObjectiveConfig fields other than prior_p
    solver: dict             # SolverConfig fields other than seed
    imbalance: float = 0.1
    dim: int = 5
    separation: float = 1.0
    n_heldout: int = 50_000
    entry_module: str = "paucopt"

    @property
    def work_per_op(self) -> int:
        return self.solver["T"]

    def prepare(self, seeds: dict, workdir: Path) -> TrainInputs:
        full = paucopt.data.generate_synthetic(self.n, self.imbalance, self.dim,
                                               self.separation, seeds["data"])
        train, val, _ = paucopt.data.split(full, paucopt.data.SplitSpec(seed=seeds["split"]))
        heldout = paucopt.data.generate_synthetic(self.n_heldout, self.imbalance, self.dim,
                                                  self.separation, seeds["heldout"])
        kind, hidden = self.scorer
        scorer0 = paucopt.scorer.init_scorer(kind, self.dim, hidden, seed=seeds["model"])
        obj_cfg = ObjectiveConfig(prior_p=train.prior_p, **self.objective)
        solver_cfg = SolverConfig(seed=seeds["model"], **self.solver)
        return TrainInputs(full, train, val, heldout, scorer0, obj_cfg, solver_cfg)

    def describe(self, inputs: TrainInputs) -> dict:
        scores = paucopt.scorer.score_batch(inputs.scorer0, inputs.train.features)
        return {"n": inputs.full.n, "n_pos": inputs.full.n_pos, "n_neg": inputs.full.n_neg,
                "n_train": inputs.train.n, "n_val": inputs.val.n,
                "n_heldout": inputs.heldout.n, "tie_share": tie_share(scores)}

    def clear(self, inputs: TrainInputs) -> None:
        pass

    def run(self, inputs: TrainInputs):
        return paucopt.solver.train(inputs.train, inputs.val, inputs.scorer0,
                                    inputs.solver_cfg, inputs.obj_cfg)

    def check(self, inputs: TrainInputs, result) -> Outcome:
        tau, max_vars, trace = result
        problems = box_problems(tau, max_vars, inputs.obj_cfg)
        T, every = self.solver["T"], self.solver["eval_every"]
        expected_t = list(range(every, T + 1, every)) + ([T] if T % every else [])
        if [r.t for r in trace.records] != expected_t:
            problems.append(f"trace records at {[r.t for r in trace.records]}, "
                            f"expected {expected_t}")
        if not all(math.isfinite(r.objective) and math.isfinite(r.grad_map_proxy)
                   and 0.0 <= r.val_pauc <= 1.0 for r in trace.records):
            problems.append("trace holds a non-finite objective or proxy, or a "
                            "validation pAUC outside [0, 1]")
        # The oracle needs no pair matrix, so the check adds little to peak RSS.
        scores = paucopt.scorer.score_batch(tau.theta, inputs.heldout.features)
        value = oracle.pauc(scores[inputs.heldout.pos_ids], scores[inputs.heldout.neg_ids],
                            repr(float(self.objective.get("alpha", 1.0))),
                            repr(float(self.objective["beta"])))["value"]
        return Outcome(value, problems, trace.box_violations)


@dataclass
class EvaluateInputs:
    csv: Path
    checkpoint: Path
    out: Path
    scores_pos: np.ndarray
    scores_neg: np.ndarray


@dataclass(frozen=True)
class EvaluateWorkload:
    """One ``paucopt evaluate`` command on a CSV with an mlp checkpoint.

    Features are rounded to a grid of ``grid`` so that many rows share a
    feature vector, hence a score. The checkpoint is an mlp fitted by
    ``warmup_logistic`` on a separate ``n_fit``-row draw.
    """

    name: str
    n: int
    at: tuple = ("1,1", "1,0.3", "0.5,0.3")
    imbalance: float = 0.1
    dim: int = 5
    separation: float = 1.0
    grid: float = 0.5
    hidden: tuple = (8,)
    n_fit: int = 2000
    entry_module: str = "paucopt.cli"

    @property
    def work_per_op(self) -> int:
        return self.n

    def prepare(self, seeds: dict, workdir: Path) -> EvaluateInputs:
        raw = paucopt.data.generate_synthetic(self.n, self.imbalance, self.dim,
                                              self.separation, seeds["data"])
        ds = paucopt.data.Dataset(np.round(raw.features / self.grid) * self.grid, raw.labels)
        workdir.mkdir(parents=True, exist_ok=True)
        paucopt.data.save_csv(ds, workdir / "eval.csv")
        fit = paucopt.data.generate_synthetic(self.n_fit, self.imbalance, self.dim,
                                              self.separation, seeds["heldout"])
        scorer = paucopt.scorer.init_scorer("mlp", self.dim, self.hidden, seed=seeds["model"])
        scorer = paucopt.scorer.warmup_logistic(scorer, fit, 2, 0.5, seed=seeds["model"])
        (workdir / "checkpoint.json").write_text(
            json.dumps({"scorer": json.loads(scorer.to_json())}), encoding="utf-8")
        scores = paucopt.scorer.score_batch(scorer, ds.features)
        return EvaluateInputs(workdir / "eval.csv", workdir / "checkpoint.json",
                              workdir / "out", scores[ds.pos_ids], scores[ds.neg_ids])

    def describe(self, inputs: EvaluateInputs) -> dict:
        scores = np.concatenate([inputs.scores_pos, inputs.scores_neg])
        return {"n": len(scores), "n_pos": len(inputs.scores_pos),
                "n_neg": len(inputs.scores_neg), "tie_share": tie_share(scores)}

    def clear(self, inputs: EvaluateInputs) -> None:
        """Remove the previous op's files, so a stale one cannot pass a check."""
        for name in ("roc.csv", "roc.svg"):
            (inputs.out / name).unlink(missing_ok=True)

    def run(self, inputs: EvaluateInputs):
        argv = ["evaluate", "--data", str(inputs.csv), "--checkpoint", str(inputs.checkpoint),
                "--at", *self.at, "--out", str(inputs.out)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = paucopt.cli.main(argv)
        return code, printed.getvalue()

    def check(self, inputs: EvaluateInputs, result) -> Outcome:
        code, printed = result
        if code != 0:
            return Outcome(problems=[f"evaluate exited {code}"])
        problems = []
        reports = [json.loads(line) for line in printed.splitlines() if line.strip()]
        if len(reports) != len(self.at):
            problems.append(f"evaluate printed {len(reports)} reports for {len(self.at)} points")
        for point, rep in zip(self.at, reports):
            want = oracle.pauc(inputs.scores_pos, inputs.scores_neg, *point.split(","))
            got = {key: rep.get(key) for key in want}
            if got != want:
                problems.append(f"--at {point}: printed {got}, oracle {want}")
        n_rows = len(inputs.scores_pos) + len(inputs.scores_neg)
        try:
            problems += oracle.roc_problems(_read_roc(inputs.out / "roc.csv"), n_rows)
        except (OSError, ValueError) as exc:
            problems.append(f"roc.csv unreadable: {exc}")
        if not (inputs.out / "roc.svg").is_file():
            problems.append("roc.svg missing")
        return Outcome(reports[-1]["value"] if reports else math.nan, problems)


def _read_roc(path: Path) -> list[tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["fpr", "tpr"]:
            raise ValueError("header is not fpr,tpr")
        return [(float(fpr), float(tpr)) for fpr, tpr in reader]


# Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        name="train-small",
        n=2000,
        scorer=("mlp", (8,)),
        objective=dict(metric_kind="TPAUC", formulation="surrogate", alpha=0.5, beta=0.3),
        solver=dict(SOLVER_COMMON, T=3000, eval_every=50),
    ),
    TrainWorkload(
        name="train-large",
        n=200_000,
        scorer=("linear", ()),
        objective=dict(metric_kind="OPAUC", formulation="unbiased", beta=0.3, omega=0.1),
        solver=dict(SOLVER_COMMON, T=2000, eval_every=500),
    ),
    EvaluateWorkload(
        name="evaluate-ties",
        n=30_000,
    ),
)}
