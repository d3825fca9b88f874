"""Accelerated stochastic gradient descent-ascent with momentum variance reduction.

Each iteration moves the descent block tau and the ascent block (gamma, c)
by a convex combination with a projected gradient step, samples a fresh
stratified minibatch, and refreshes the gradient momenta v (for tau) and w
(for gamma/c) with STORM-style corrections, which take the gradients at
the old and the new variables on the same batch from one stacked
evaluation. A step updates the state in place. The state keeps tau flat;
MinVars and MaxVars are built only for the trace and the return value.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Minibatch, row_blocks, stratified_sample
from .metrics import PaucReport, empirical_opauc, empirical_tpauc
from .objectives import MaxVars, MinVars, ObjectiveConfig, evaluate, hinged_ids
from .scorer import ScorerParams, score_batch, warmup_logistic


class SolverError(ValueError):
    """Raised for invalid solver configuration."""


@dataclass(frozen=True)
class SolverConfig:
    nu: float = 0.5            # min-side step
    lam: float = 0.5           # max-side step
    k_coef: float = 2.0
    m_coef: float = 10.0
    iota1: float = 1.0
    iota2: float = 1.0
    T: int = 500
    batch_pos: int = 32
    batch_neg: int = 224
    seed: int = 0
    warmup_epochs: int = 0
    eval_every: int = 50
    freeze_theta: bool = False  # keep scorer weights fixed (convex-toy mode)

    def __post_init__(self):
        # (field, bound, strict): each must be > bound when strict, else >=
        # bound; written so that NaN, which compares False, fails
        for name, bound, strict in (
                ("nu", 0, False), ("lam", 0, False), ("k_coef", 0, True), ("m_coef", 2, False),
                ("iota1", 0, True), ("iota2", 0, True), ("T", 0, False), ("batch_pos", 1, False),
                ("batch_neg", 1, False), ("seed", 0, False), ("warmup_epochs", 0, False),
                ("eval_every", 1, False)):
            value = getattr(self, name)
            if not (value > bound if strict else value >= bound):
                raise SolverError(f"{name} must be {'above' if strict else 'at least'} "
                                  f"{bound}, got {value!r}")
        if self.k_coef / self.m_coef ** (1.0 / 3.0) > 1.0 + 1e-12:
            raise SolverError("eta_0 = k/m^(1/3) must not exceed 1 (need m >= k^3)")


@dataclass
class SolverState:
    scorer: ScorerParams       # theta's kind and layer shape (weights: the start's)
    tau: np.ndarray            # descent block in the MinVars.flat layout
    box: tuple                 # (lo, hi) arrays over tau, fixed for the run
    gamma: float
    c: np.ndarray              # one entry per instance; empty for the surrogate
    v: np.ndarray              # momentum for grad wrt tau (flat layout)
    w_gamma: float             # momentum for grad wrt gamma
    w_c: np.ndarray            # momentum for grad wrt c, laid out as c
    active_c: np.ndarray       # ids sampled in the latest batch; only they move
    t: int
    rng: np.random.Generator

    def min_vars(self) -> MinVars:
        return MinVars(self.scorer).with_flat(self.tau)

    def max_vars(self) -> MaxVars:
        return MaxVars(self.gamma, self.c)


@dataclass(frozen=True)
class TraceRecord:
    t: int
    eta: float
    objective: float
    grad_map_proxy: float
    val_pauc: float            # nan when no validation set given
    elapsed_ms: float


@dataclass
class TrainTrace:
    records: list = field(default_factory=list)
    # always 0: _projected_mix keeps every block in its box by construction,
    # which the tests check after every step; kept while perfbench reads it
    box_violations: int = 0
    best_val_pauc: float = float("nan")
    best_tau: MinVars | None = None


def eta_schedule(cfg: SolverConfig, t: int) -> float:
    return cfg.k_coef / (cfg.m_coef + t) ** (1.0 / 3.0)


def init_state(ds: Dataset, scorer_init: ScorerParams, cfg: SolverConfig,
               obj_cfg: ObjectiveConfig) -> SolverState:
    """tau at MinVars' defaults, gamma 0 and, for the unbiased form only, c
    at 1 with one entry per instance; the surrogate reads no c. A frozen
    theta is boxed at its start, so every projection returns it exactly."""
    n_c = ds.n if obj_cfg.formulation == "unbiased" else 0
    n = scorer_init.n_params
    tau = MinVars(scorer_init).flat()
    lo, hi = obj_cfg.tau_box(n)
    if cfg.freeze_theta:
        lo[:n] = hi[:n] = tau[:n]
    return SolverState(scorer=scorer_init, tau=tau, box=(lo, hi),
                       gamma=0.0, c=np.ones(n_c), v=np.zeros_like(tau), w_gamma=0.0,
                       w_c=np.zeros(n_c), active_c=np.zeros(0, dtype=np.intp), t=0,
                       rng=np.random.default_rng(cfg.seed))


def _clamp(x, lo, hi):
    """x clamped onto [lo, hi]: an array by numpy, a float by min and max,
    which take a fraction of numpy's time on a scalar."""
    return x.clip(lo, hi) if isinstance(x, np.ndarray) else min(max(x, lo), hi)


def _projected_mix(x, step, eta: float, lo, hi):
    """Pi((1-eta)*x + eta*Pi(x + step)) with Pi the clamp onto [lo, hi].

    The combination is clamped again because rounding can carry it past a
    bound both endpoints sit on, e.g. (1-eta)*5 + eta*5 > 5.
    """
    cand = _clamp(x + step, lo, hi)
    return _clamp((1.0 - eta) * x + eta * cand, lo, hi)


def _storm(m, g_old, g_new, decay: float):
    """The STORM momentum refresh g_new + (1 - decay)*(m - g_old), from the
    gradients at the old and the new point on the same batch."""
    return g_new + (1.0 - decay) * (m - g_old)


def asgda_step(state: SolverState, cfg: SolverConfig,
               obj_cfg: ObjectiveConfig, ds: Dataset) -> None:
    """One full iteration in O(batch) time and memory, updating state in place.

    Every block moves by _projected_mix and refreshes its momentum by
    _storm. Both momentum gradients come from one evaluate call over the
    old and the new point. c and w_c are written at the active ids only.
    """
    eta = eta_schedule(cfg, state.t)

    # fresh batch; both momentum refresh gradients use this same batch, and
    # the old point's c is gathered before c is overwritten below
    batch = stratified_sample(ds, min(cfg.batch_pos, ds.n_pos),
                              min(cfg.batch_neg, ds.n_neg), state.rng)
    ids = hinged_ids(obj_cfg, batch)
    tau, gamma, c_old = state.tau, state.gamma, state.c[ids]

    # tau descends, gamma ascends. c coordinates move only when they were
    # sampled in the batch behind the current momenta (the surrogate samples
    # none). Their partial gradients carry the 1/B batch-mean factor, so the
    # step is rescaled by the drawn batch's size to recover the per-instance magnitude.
    state.tau = _projected_mix(tau, -cfg.nu * state.v, eta, *state.box)
    state.gamma = _projected_mix(gamma, cfg.lam * state.w_gamma, eta, *obj_cfg.boxes["gamma"])
    act = state.active_c
    if len(act):
        lam_c = cfg.lam * batch.size
        state.c[act] = _projected_mix(state.c[act], lam_c * state.w_c[act], eta,
                                      *obj_cfg.boxes["c"])
    lg = evaluate(obj_cfg, np.array([tau, state.tau]), np.array([gamma, state.gamma]),
                  batch, ds, np.array([c_old, state.c[ids]]), dims=state.scorer.layer_dims)

    rho = cfg.iota1 * eta ** 2
    xi = cfg.iota2 * eta ** 2
    state.v = _storm(state.v, *lg.grad_min, rho)
    state.w_gamma = _storm(state.w_gamma, *lg.grad_max_gamma.tolist(), xi)
    if len(ids):
        state.w_c[ids] = _storm(state.w_c[ids], *lg.grad_max_c, xi)
    state.active_c = ids
    state.t += 1


def grad_mapping_proxy(tau: np.ndarray, grad_min: np.ndarray, nu: float,
                       box: tuple) -> float:
    """Projected-stationarity proxy (1/nu)*||tau - P(tau - nu*g)||_2 of the
    flat tau, with P the clamp onto box (SolverState.box). A frozen theta
    is boxed at its start, so the difference is 0 on theta.

    g is grad_min, the full-data descent gradient at tau and the current
    ascent block; the exact metric would maximize over the ascent block first.
    """
    if nu == 0:
        return 0.0
    moved = _clamp(tau - nu * grad_min, *box)
    return float(np.linalg.norm(tau - moved) / nu)


def _val_pauc(tau: MinVars, ds_val: Dataset, obj_cfg: ObjectiveConfig) -> PaucReport:
    """The exact partial AUC obj_cfg trains for, of tau's scores on ds_val."""
    scores = score_batch(tau.theta, ds_val.features)
    pos = scores[ds_val.pos_ids]
    neg = scores[ds_val.neg_ids]
    if obj_cfg.metric_kind == "TPAUC":
        return empirical_tpauc(pos, neg, obj_cfg.alpha, obj_cfg.beta)
    return empirical_opauc(pos, neg, obj_cfg.beta)


# A trace record's evaluate calls take row_blocks of two cells a row: 16384
# rows, which timed fastest at 1.4e5 training rows (4096 to 32768 tried).
_RECORD_WIDTH = 2


def _record_value_grad(st: SolverState, obj_cfg: ObjectiveConfig, ds: Dataset) -> tuple:
    """The objective value and grad_min at st over ds, from evaluate calls
    over ds whole when it fits one row_blocks block, else over each class
    in blocks, which never mix classes. A call averages over its own batch
    and adds the gamma and Lagrangian terms once, so its results weighted
    by batch.size / ds.n sum to the whole split's up to rounding, and with
    one call, weight 1, to its bits."""
    if next(row_blocks(ds.n, _RECORD_WIDTH)).stop == ds.n:
        batches = [Minibatch(ds.pos_ids, ds.neg_ids)]
    else:
        # lazy: only one block's ids are held at a time
        none = ds.pos_ids[:0]
        batches = itertools.chain(
            (Minibatch(ds.pos_ids[b], none) for b in row_blocks(ds.n_pos, _RECORD_WIDTH)),
            (Minibatch(none, ds.neg_ids[b]) for b in row_blocks(ds.n_neg, _RECORD_WIDTH)))
    value, grad_min = 0.0, np.zeros_like(st.tau)
    for batch in batches:
        lg = evaluate(obj_cfg, st.tau[None], np.array([st.gamma]), batch, ds,
                      st.c[hinged_ids(obj_cfg, batch)][None], dims=st.scorer.layer_dims)
        weight = batch.size / ds.n
        value += weight * float(lg.value[0])
        grad_min += weight * lg.grad_min[0]
    return value, grad_min


def train(ds_train: Dataset, ds_val: Dataset | None,
          scorer_init: ScorerParams, cfg: SolverConfig,
          obj_cfg: ObjectiveConfig):
    """Optional cross-entropy warm-up followed by T descent-ascent steps.

    Returns (MinVars, MaxVars, TrainTrace). The trace records objective and
    stationarity-proxy values over the whole training split (from
    _record_value_grad) every cfg.eval_every iterations and at the final
    step, and tracks the best validation partial AUC seen.
    """
    scorer = warmup_logistic(scorer_init, ds_train, cfg.warmup_epochs,
                             cfg.nu, seed=cfg.seed)
    state = init_state(ds_train, scorer, cfg, obj_cfg)
    trace = TrainTrace()
    t0 = time.perf_counter()

    def record(st: SolverState):
        eta = eta_schedule(cfg, max(st.t - 1, 0))
        value, grad_min = _record_value_grad(st, obj_cfg, ds_train)
        proxy = grad_mapping_proxy(st.tau, grad_min, cfg.nu, st.box)
        for name, x in (("objective", value), ("descent gradient", grad_min),
                        ("grad_map_proxy", proxy)):
            if not np.isfinite(x).all():
                raise SolverError(f"non-finite {name} at t={st.t}")
        tau = st.min_vars()
        val = (_val_pauc(tau, ds_val, obj_cfg).value if ds_val is not None
               else float("nan"))
        elapsed = (time.perf_counter() - t0) * 1000.0
        trace.records.append(TraceRecord(st.t, eta, value, proxy, val, elapsed))
        if ds_val is not None and not (val <= trace.best_val_pauc):
            trace.best_val_pauc = val
            trace.best_tau = tau

    for _ in range(cfg.T):
        asgda_step(state, cfg, obj_cfg, ds_train)
        if state.t % cfg.eval_every == 0 and state.t < cfg.T:
            record(state)
    record(state)
    return state.min_vars(), state.max_vars(), trace
