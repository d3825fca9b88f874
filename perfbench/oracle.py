"""Exact ranking-metric oracle, written independently of paucopt.metrics.

Pairs are counted with a sort plus ``searchsorted(side="left")`` (the
Mann-Whitney U count) instead of an n_pos x n_neg comparison matrix, and the
selection sizes come from exact rational arithmetic on the decimal text of
alpha and beta. Every value is an integer count divided by the number of
pairs, so a correct implementation must agree with it bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def select_count(n: int, frac: str) -> int:
    """floor(n * frac) with frac given as decimal text, e.g. "0.3"."""
    return math.floor(n * Fraction(frac))


def strict_pair_value(pos: np.ndarray, neg: np.ndarray) -> float:
    """1 - #{(i, j): pos_i < neg_j} / (n_pos * n_neg)."""
    sorted_pos = np.sort(pos)
    below = np.searchsorted(sorted_pos, neg, side="left")
    bad = int(below.sum(dtype=np.int64))
    return 1.0 - bad / (len(pos) * len(neg))


def pauc(pos: np.ndarray, neg: np.ndarray, alpha: str, beta: str) -> dict:
    """AUC, OPAUC or TPAUC at (alpha, beta), as ``paucopt evaluate`` names them.

    Returns the fields of the report the program prints: metric kind, the
    selected class sizes and the value.
    """
    k_pos = select_count(len(pos), alpha)
    k_neg = select_count(len(neg), beta)
    a, b = Fraction(alpha), Fraction(beta)
    kind = "AUC" if a >= 1 and b >= 1 else "OPAUC" if a >= 1 else "TPAUC"
    sel_pos = pos if kind != "TPAUC" else np.sort(pos)[:k_pos]
    sel_neg = neg if kind == "AUC" else np.sort(neg)[len(neg) - k_neg:]
    return {"metric_kind": kind, "n_pos_used": len(sel_pos),
            "n_neg_used": len(sel_neg),
            "value": strict_pair_value(sel_pos, sel_neg)}


def roc_problems(rows: list[tuple[float, float]], n_rows: int) -> list[str]:
    """Ways a parsed roc.csv body breaks the ROC contract; empty when sound.

    The contract: n + 1 points, both columns non-decreasing, from (0, 0)
    to (1, 1).
    """
    problems = []
    if len(rows) != n_rows + 1:
        problems.append(f"roc.csv has {len(rows)} points, expected {n_rows + 1}")
    if not rows:
        return problems
    fpr = np.array([r[0] for r in rows])
    tpr = np.array([r[1] for r in rows])
    if (np.diff(fpr) < 0).any() or (np.diff(tpr) < 0).any():
        problems.append("roc.csv is not non-decreasing in both columns")
    if rows[0] != (0.0, 0.0) or rows[-1] != (1.0, 1.0):
        problems.append(f"roc.csv runs from {rows[0]} to {rows[-1]}, "
                        "not (0, 0) to (1, 1)")
    return problems
