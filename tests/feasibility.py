"""How far a solver state sits outside its boxes, for tests of feasibility.

asgda_step keeps every block in its box by construction (each move is a
clamped mix of clamped points), so train does not check it; the tests call
box_violation after each step instead.
"""

import math

import numpy as np


def box_violation(state, c: np.ndarray, cfg) -> float:
    """Largest distance from its box of any entry of tau, of gamma or of the
    given c values; 0 when all are feasible, nan when any of them is nan."""
    # fmax, as a free weight at +-inf is in its box though inf - inf is nan
    lo, hi = state.box
    tau_gap = float(np.fmax(lo - state.tau, state.tau - hi).max(initial=0.0))
    lo, hi = cfg.boxes["gamma"]
    gamma_gap = max(lo - state.gamma, state.gamma - hi, 0.0)
    lo, hi = cfg.boxes["c"]
    c_gap = float(np.fmax(lo - c, c - hi).max(initial=0.0)) if len(c) else 0.0
    gaps = (tau_gap, gamma_gap, c_gap)
    # each gap is 0 or more, or nan: the sum is nan exactly when a gap is, a
    # violation Python's max would drop behind a 0.0 before it
    return math.nan if math.isnan(sum(gaps)) else max(gaps)
