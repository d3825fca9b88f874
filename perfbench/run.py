"""paucopt benchmark: one workload per process, from the root of a checkout.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30 --trace 0     # every workload

Workloads (inputs in ``workloads.py``, the reason for each in BENCHMARK.json):
``train-small``, ``train-large`` and ``evaluate-ties``. Each run prepares
its inputs from ``--seed``, then repeats the workload's op (one ``train``
call, or one ``paucopt evaluate`` command) until ``--seconds`` have passed,
checking every op's output. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, from untraced ops. Every
workload reports all of them, so their names are workload-neutral; the name
each goes by on one kind of workload is given in parentheses. Times are
wall times scaled to a reference machine speed by a calibration kernel
timed around each op and set-up and during each untraced op (see
``speed.py``), because the shared host's own speed drifts more between runs
than the bounds allow; the raw wall times are printed beside them and kept
in the summary line.

    setup_s           s     median of 5 set-ups spread over the run: import
                            of paucopt in a fresh interpreter plus input
                            generation / CSV and checkpoint writing
    op_s              s     median time of one op (train_s on train-*,
                            evaluate_s on evaluate-ties)
    throughput_per_s  1/s   work per op / op_s (steps_per_s on train-*,
                            rows_per_s on evaluate-ties)
    pauc              1     pAUC the op produced: held-out pAUC of the trained
                            scorer (test_pauc), or the TPAUC(0.5, 0.3) that
                            evaluate printed
    peak_rss_mb       MB    peak resident memory of the process
    pass_rate         1     1 - fail_rate; an op fails if it raises, exits
                            non-zero or fails its output check

``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics from the spans of the traced ones (see ``tracing.py``), plus
``trace.overhead_s``: median traced op time minus median untraced op time.
Spans are written to ``.bench_build/perfbench/`` when the run ends.

Without paucopt in the checkout's ``src`` the run exits non-zero and prints
no result line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 5

sys.path.insert(0, str(SRC))
try:
    import numpy
    import scipy

    import paucopt
    import speed
    import tracing
    from workloads import WORKLOADS, EvaluateWorkload, Outcome, TrainWorkload, derive_seeds
except ImportError as exc:
    sys.exit(f"error: cannot import paucopt from {SRC}: {exc}")

# Names and units of every reported metric, from the benchmark's definition.
_DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"]
         for m in _DEFINITION["end_to_end"] + _DEFINITION["per_layer"]}

# What the workload-neutral end-to-end metrics are called on each kind of
# workload, printed beside them.
ALIASES = {
    TrainWorkload: {"op_s": "train_s", "throughput_per_s": "steps_per_s", "pauc": "test_pauc"},
    EvaluateWorkload: {"op_s": "evaluate_s", "throughput_per_s": "rows_per_s", "pauc": "tpauc"},
}


def child_import_seconds(module: str) -> float:
    """Import time of ``module`` in a fresh interpreter, timed by the child."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            f"t = time.perf_counter(); import {module}; "
            f"print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def timed_setup(w, seeds: dict, workdir: Path):
    """One set-up: fresh import of the workload's entry module plus inputs."""
    t_import = child_import_seconds(w.entry_module)
    t0 = time.perf_counter()
    inputs = w.prepare(seeds, workdir)
    return t_import + time.perf_counter() - t0, inputs


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(w, seed: int, seeds: dict, inputs) -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "paucopt").glob("*.py")))
    return {"workload": w.name, "seed": seed, "derived_seeds": seeds,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "src_paucopt_lines": lines, **w.describe(inputs)}


@dataclass
class Op:
    """One attempted op: its wall and scaled time, traced or not, and its
    checked outcome."""

    traced: bool
    seconds: float
    scaled: float
    outcome: Outcome
    spans: list | None = None

    @property
    def ok(self) -> bool:
        return not self.outcome.problems


def attempt(w, inputs, traced: bool, gauge: speed.Gauge) -> Op:
    problems = []
    if (changed := tracing.unwrapped_names()):
        problems.append(f"wrapped names left in place: {changed}")
    w.clear(inputs)
    tracer = tracing.Tracer() if traced else None

    def op():
        if traced:
            with tracer:
                return w.run(inputs)
        return w.run(inputs)

    # Traced ops are not sampled, so their spans hold none of the kernel's time.
    result, seconds, factor = gauge.measure(op, sample=not traced)
    try:
        if isinstance(result, Exception):
            raise result
        outcome = w.check(inputs, result)
    except Exception as exc:
        traceback.print_exc()
        outcome = Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])
    if (changed := tracing.unwrapped_names()):
        problems.append(f"wrapped names left in place: {changed}")
    outcome.problems[:0] = problems
    return Op(traced, seconds, seconds * factor, outcome, tracer.spans if tracer else None)


def run(w, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``w`` from ``seed``, repeat its op for ``seconds``, check and measure."""
    seeds = derive_seeds(seed)
    workdir = OUT / f"{w.name}-seed{seed}"
    gauge = speed.Gauge()
    setup_times, setup_scaled = [], []

    def set_up():
        # An untimed import first, so that the timed one finds its files in the
        # page cache even after other processes on the host have evicted them.
        child_import_seconds(w.entry_module)
        # Not sampled: the kernel would run beside the child's import.
        result, _, factor = gauge.measure(lambda: timed_setup(w, seeds, workdir),
                                          sample=False)
        if isinstance(result, Exception):
            raise result
        setup_time, inputs = result
        setup_times.append(setup_time)
        setup_scaled.append(setup_time * factor)
        return inputs

    inputs = set_up()
    meta = metadata(w, seed, seeds, inputs)

    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() < start + seconds or (trace and len(ops) < 2):
        ops.append(attempt(w, inputs, traced=trace and len(ops) % 2 == 1, gauge=gauge))
        # The repeated set-ups are spread over the run, not taken back to back.
        due = start + seconds * len(setup_times) / SETUP_REPS
        if len(setup_times) < SETUP_REPS and time.perf_counter() >= due:
            set_up()
    while len(setup_times) < SETUP_REPS:
        set_up()
    setup_s = statistics.median(setup_scaled)

    # Determinism: every op of one seed, traced or not, must give the same pAUC.
    reference = next((op.outcome.value for op in ops if op.ok), None)
    for op in ops:
        if op.ok and op.outcome.value != reference:
            op.outcome.problems.append(
                f"pAUC {op.outcome.value!r} differs from the first op's {reference!r}")

    failed = sum(not op.ok for op in ops)
    for i, op in enumerate(ops):
        for problem in op.outcome.problems:
            print(f"op {i} ({'traced' if op.traced else 'untraced'}): {problem}",
                  file=sys.stderr)

    def measured(traced: bool) -> list[Op]:
        """The ops of one kind that passed, or all of that kind if none did."""
        kind = [op for op in ops if op.traced == traced]
        return [op for op in kind if op.ok] or kind

    plain = [op.scaled for op in measured(False)]
    op_s = statistics.median(plain)
    if trace:
        traced_ops = measured(True)
        metrics = tracing.layer_metrics([op.spans for op in traced_ops])
        metrics["solver.box_violations"] = statistics.median(
            [op.outcome.box_violations for op in traced_ops])
        metrics["trace.overhead_s"] = (statistics.median([op.scaled for op in traced_ops])
                                       - op_s)
        write_spans(workdir.with_name(f"{w.name}-seed{seed}-spans.csv"), ops)
    else:
        values = [v for v in (op.outcome.value for op in measured(False)) if math.isfinite(v)]
        metrics = {
            "setup_s": setup_s,
            "op_s": op_s,
            "throughput_per_s": w.work_per_op / op_s,
            "pauc": sum(values) / len(values) if values else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_rate": 1.0 - failed / len(ops),
        }
    summary = {"ops": len(ops), "traced_ops": sum(op.traced for op in ops),
               "untraced_op_s": plain,
               "untraced_op_wall_s": [op.seconds for op in measured(False)],
               "setup_s": setup_scaled, "setup_wall_s": setup_times,
               "kernel_s": gauge.kernel_s, "kernel_reference_s": speed.REFERENCE_S}
    if trace:
        spans = [s for op in traced_ops for s in op.spans]
        summary["unwrappable_names"] = tracing.MISSING
        summary["self_ms_per_traced_op"] = {
            k: v / len(traced_ops) for k, v in tracing.self_times_ms(spans).items()}
    return {"meta": meta, "summary": summary, "correct": failed == 0,
            "attempted": len(ops), "failed": failed, "metrics": metrics}


def write_spans(path: Path, ops: list[Op]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["op", "span", "name", "parent", "start_ns", "end_ns", "size"])
        for i, op in enumerate(ops):
            for j, span in enumerate(op.spans or ()):
                out.writerow([i, j, *span])


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=600)
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; every workload when omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # An exported PAUC_SEED would override seeds inside paucopt.cli.
    os.environ.pop("PAUC_SEED", None)
    if Path(paucopt.__file__).resolve().parent != SRC / "paucopt":
        print(f"error: paucopt imported from {paucopt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    w = WORKLOADS[args.workload]
    res = run(w, args.seed, args.seconds, bool(args.trace))
    expected = [m["name"] for m in _DEFINITION["per_layer" if args.trace else "end_to_end"]]
    if sorted(res["metrics"]) != sorted(expected):
        raise RuntimeError(f"reported {sorted(res['metrics'])}, defined {sorted(expected)}")
    print("meta " + json.dumps(res["meta"]))
    print("summary " + json.dumps(res["summary"]))
    aliases = ALIASES[type(w)]
    for key in expected:
        print(f"{key:36s} {res['metrics'][key]!r:>24} {UNITS[key]:6s} {aliases.get(key, '')}")
    print(f"{'fail_rate':36s} {res['failed'] / res['attempted']!r:>24} 1")
    summary = res["summary"]
    for key in ("untraced_op_wall_s", "setup_wall_s"):
        print(f"{key + ' (median)':36s} {statistics.median(summary[key])!r:>24} s")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed")}
                     | {"metrics": {k: {"value": res["metrics"][k], "unit": UNITS[k]}
                                    for k in expected}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
