"""Milliseconds per solver step at n = 2e3 and 2e6, as a Markdown table.

    PYTHONPATH=src python tests/step_sweep.py [--steps 200]

The problem is the README's unbiased OPAUC(0.3) with a linear scorer and a
32 + 224 batch. One step touches only the batch, so its cost should not
depend on n; the last line gives the ratio of the two medians. Steps at the
two sizes alternate, so a slow phase of the host slows both alike. CI
appends the table to its job summary.
"""

import argparse
import time

import numpy as np

from paucopt.data import generate_synthetic
from paucopt.objectives import ObjectiveConfig
from paucopt.scorer import init_scorer
from paucopt.solver import SolverConfig, asgda_step, init_state

SIZES = (2_000, 2_000_000)
WARM = 20


def problem(n: int, steps: int) -> list:
    """[ds, objective config, solver config, initial state] at size n."""
    ds = generate_synthetic(n, 0.1, 5, 4.0, seed=7)
    obj = ObjectiveConfig("OPAUC", "unbiased", 1.0, 0.3, 4.0, 0.1,
                          prior_p=ds.prior_p)
    cfg = SolverConfig(nu=0.5, lam=0.5, T=WARM + steps, batch_pos=32,
                       batch_neg=224, seed=7)
    return [ds, obj, cfg, init_state(ds, init_scorer("linear", 5, seed=7), cfg)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=200)
    args = parser.parse_args()
    problems = {n: problem(n, args.steps) for n in SIZES}
    times = {n: [] for n in SIZES}
    for _ in range(WARM + args.steps):
        for n, prob in problems.items():
            ds, obj, cfg, st = prob
            t0 = time.perf_counter()
            prob[3] = asgda_step(st, cfg, obj, ds)
            times[n].append((time.perf_counter() - t0) * 1000.0)
    ms = {n: float(np.median(t[WARM:])) for n, t in times.items()}
    print(f"| n | ms per step (median of {args.steps}) |")
    print("|---|---|")
    for n, value in ms.items():
        print(f"| {n:.0e} | {value:.3f} |")
    print(f"\nstep time ratio n={SIZES[-1]:.0e} / n={SIZES[0]:.0e}: "
          f"{ms[SIZES[-1]] / ms[SIZES[0]]:.2f}")


if __name__ == "__main__":
    main()
