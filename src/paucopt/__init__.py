"""Partial-AUC optimization via instance-wise minimax objectives.

The package provides exact empirical partial-AUC metrics (one-way: small
false-positive rates; two-way: jointly constrained true/false positive
rates), two decomposable saddle-point objectives whose minimization drives
those metrics, a stochastic gradient descent-ascent solver with momentum
variance reduction, and a self-verification suite that checks the
underlying identities numerically.
"""

from .data import Dataset, Minibatch, SplitSpec, generate_synthetic, load_csv, split, stratified_sample
from .metrics import closed_form_optimum, empirical_auc, empirical_opauc, empirical_tpauc, pairwise_surrogate_risk
from .objectives import MaxVars, MinVars, ObjectiveConfig, evaluate
from .scorer import ScorerParams, init_scorer, score_batch
from .solver import SolverConfig, train

__all__ = [
    "Dataset",
    "Minibatch",
    "SplitSpec",
    "generate_synthetic",
    "load_csv",
    "split",
    "stratified_sample",
    "closed_form_optimum",
    "empirical_auc",
    "empirical_opauc",
    "empirical_tpauc",
    "pairwise_surrogate_risk",
    "MaxVars",
    "MinVars",
    "ObjectiveConfig",
    "evaluate",
    "ScorerParams",
    "init_scorer",
    "score_batch",
    "SolverConfig",
    "train",
]
