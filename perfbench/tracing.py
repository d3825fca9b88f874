"""In-memory spans around paucopt's layer boundaries, recorded from outside.

paucopt binds its collaborators with ``from ... import``, so a function is
looked up in the *caller's* module namespace. The tracer therefore replaces
the name where the caller looks it up (``paucopt.solver.evaluate``, not
``paucopt.objectives.evaluate``) with a wrapper that records a span, and
puts the original object back when tracing stops. The program itself is
never edited.

A span is ``[name, parent, start_ns, end_ns, size]``; ``parent`` is the
index of the enclosing span (or -1) and ``size`` is the batch size or row
count the call handled, where that is meaningful.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import paucopt.cli
import paucopt.objectives
import paucopt.scorer
import paucopt.solver


def _batch_size(args):
    return args[3].size                 # evaluate(cfg, mv, xv, batch, ds)


def _rows(args):
    return len(args[1])                 # score_batch(params, x), backprop_logit(params, x, dz)


# (caller module, name looked up there, span name, size of the call)
_CANDIDATES = (
    (paucopt.solver, "asgda_step", "solver.asgda_step", None),
    (paucopt.solver, "grad_mapping_proxy", "solver.grad_mapping_proxy", None),
    (paucopt.solver, "_val_pauc", "solver.val_pauc", None),
    (paucopt.solver, "warmup_logistic", "solver.warmup_logistic", None),
    (paucopt.solver, "evaluate", "objectives.evaluate", _batch_size),
    (paucopt.solver, "stratified_sample", "data.stratified_sample", None),
    (paucopt.solver, "score_batch", "scorer.score_batch", _rows),
    (paucopt.solver, "empirical_opauc", "metrics.empirical_opauc", None),
    (paucopt.solver, "empirical_tpauc", "metrics.empirical_tpauc", None),
    (paucopt.objectives, "score_batch", "scorer.score_batch", _rows),
    (paucopt.scorer, "score_batch", "scorer.score_batch", _rows),
    (paucopt.scorer, "backprop_logit", "scorer.backprop_logit", _rows),
    (paucopt.cli, "load_csv", "data.load_csv", None),
    (paucopt.cli, "score_batch", "scorer.score_batch", _rows),
    (paucopt.cli, "empirical_auc", "metrics.empirical_auc", None),
    (paucopt.cli, "empirical_opauc", "metrics.empirical_opauc", None),
    (paucopt.cli, "empirical_tpauc", "metrics.empirical_tpauc", None),
    (paucopt.cli, "roc_curve", "metrics.roc_curve", None),
)
# A name the program no longer binds is skipped, not fatal: the untraced
# metrics stay measurable and the layer it fed reads 0.
WRAP_POINTS = tuple(p for p in _CANDIDATES if hasattr(p[0], p[1]))
MISSING = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in _CANDIDATES
           if not hasattr(mod, attr)]

# The objects the program binds, captured before anything is wrapped.
ORIGINALS = {(mod.__name__, attr): getattr(mod, attr)
             for mod, attr, _, _ in WRAP_POINTS}


def unwrapped_names() -> list[str]:
    """Wrap points whose current binding is not the original function.

    Empty when the program runs exactly as shipped.
    """
    return [f"{mod.__name__}.{attr}" for mod, attr, _, _ in WRAP_POINTS
            if getattr(mod, attr) is not ORIGINALS[(mod.__name__, attr)]]


class Tracer:
    """Records spans while active; use as a context manager around one op."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def _wrap(self, fn, name, size_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0, size_of(args) if size_of else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
        return traced

    def __enter__(self):
        self._root = len(self.spans)
        self.spans.append(["op", -1, 0, 0, 0])
        self._stack.append(self._root)
        for mod, attr, name, size_of in WRAP_POINTS:
            setattr(mod, attr, self._wrap(ORIGINALS[(mod.__name__, attr)],
                                          name, size_of))
        self.spans[self._root][2] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.spans[self._root][3] = time.perf_counter_ns()
        for mod, attr, _, _ in WRAP_POINTS:
            setattr(mod, attr, ORIGINALS[(mod.__name__, attr)])
        self._stack.pop()
        return False


def self_times_ms(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus time in child spans."""
    child = [0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = {}
    for i, (name, _, t0, t1, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (t1 - t0 - child[i]) / 1e6
    return out


def _p(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _med(values):
    return float(np.median(values)) if values else 0.0


def layer_metrics(ops: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics from the spans of each traced op.

    Objective evaluations inside a solver step are batch-size calls; the
    ones ``train`` makes between steps are full-data calls. Per-call times
    pool the calls of every op; ``_s`` totals and per-op counts are medians
    over ops. A layer the workload does not use reports 0.
    """
    calls: dict[str, list[float]] = defaultdict(list)    # ms per call
    per_op: dict[str, list[float]] = defaultdict(list)   # one value per op

    for spans in ops:
        names = [s[0] for s in spans]
        in_step = [False] * len(spans)
        total: dict[str, float] = defaultdict(float)
        for i, (name, parent, t0, t1, size) in enumerate(spans):
            if parent < 0:
                continue
            ms = (t1 - t0) / 1e6
            in_step[i] = names[parent] == "solver.asgda_step" or in_step[parent]
            at_root = parent == 0
            if at_root:
                total["children"] += ms
            if name == "solver.asgda_step":
                calls["step"].append(ms)
                total["steps"] += 1
            elif name == "objectives.evaluate":
                calls["eval_batch" if in_step[i] else "eval_full"].append(ms)
                total["step_evals"] += in_step[i]
                if at_root:
                    total["record"] += ms
            elif name in ("solver.grad_mapping_proxy", "solver.val_pauc"):
                total["record"] += ms
            elif name == "solver.warmup_logistic":
                total["warmup"] += ms
            elif name == "data.stratified_sample":
                calls["sample"].append(ms)
            elif name == "data.load_csv":
                total["load_csv"] += ms
            elif name == "scorer.score_batch":
                calls["forward"].append(ms)
                total["step_forwards"] += in_step[i]
                total["rows"] += size
            elif name == "scorer.backprop_logit":
                calls["backprop"].append(ms)
                total["step_forwards"] += in_step[i]
            elif name == "metrics.roc_curve":
                total["roc"] += ms
            elif name.startswith("metrics.empirical_"):
                if names[parent] == "solver.val_pauc":
                    calls["val"].append(ms)
                elif at_root:
                    calls[name.removeprefix("metrics.empirical_")].append(ms)
        root_self_s = ((spans[0][3] - spans[0][2]) / 1e6 - total["children"]) / 1e3
        steps = total["steps"]
        per_op["record_s"].append(total["record"] / 1e3)
        per_op["warmup_s"].append(total["warmup"] / 1e3)
        per_op["loop_other_s"].append(root_self_s if steps else 0.0)
        per_op["cli_self_s"].append(0.0 if steps else root_self_s)
        per_op["load_csv_s"].append(total["load_csv"] / 1e3)
        per_op["roc_s"].append(total["roc"] / 1e3)
        per_op["rows"].append(total["rows"])
        per_op["evals_per_step"].append(total["step_evals"] / steps if steps else 0.0)
        per_op["forwards_per_step"].append(total["step_forwards"] / steps if steps else 0.0)

    return {
        "solver.step_ms.p50": _p(calls["step"], 50),
        "solver.step_ms.p99": _p(calls["step"], 99),
        "solver.record_s": _med(per_op["record_s"]),
        "solver.loop_other_s": _med(per_op["loop_other_s"]),
        "solver.warmup_s": _med(per_op["warmup_s"]),
        "objectives.evaluate.batch_ms.p50": _p(calls["eval_batch"], 50),
        "objectives.evaluate.full_ms.p50": _p(calls["eval_full"], 50),
        "objectives.evaluate.calls_per_step": _med(per_op["evals_per_step"]),
        "scorer.forwards_per_step": _med(per_op["forwards_per_step"]),
        "scorer.forward_ms.p50": _p(calls["forward"], 50),
        "scorer.backprop_ms.p50": _p(calls["backprop"], 50),
        "scorer.rows_scored": _med(per_op["rows"]),
        "data.sample_ms.p50": _p(calls["sample"], 50),
        "data.load_csv_s": _med(per_op["load_csv_s"]),
        "metrics.auc_ms": _p(calls["auc"], 50),
        "metrics.opauc_ms": _p(calls["opauc"], 50),
        "metrics.tpauc_ms": _p(calls["tpauc"], 50),
        "metrics.roc_s": _med(per_op["roc_s"]),
        "metrics.val_ms.p50": _p(calls["val"], 50),
        "cli.evaluate.self_s": _med(per_op["cli_self_s"]),
    }
