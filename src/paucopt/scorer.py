"""Parametric scoring functions f: features -> (0,1) with analytic gradients.

Two kinds: a logistic-linear model and a small MLP (tanh hidden layers,
sigmoid output). Gradients are hand-rolled backprop over a flat parameter
vector, so no autodiff framework is needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import row_blocks

# The largest double below 1, the cap on a score.
_ONE_BELOW = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class ScorerParams:
    """Flat parameter vector plus the layer shape it encodes.

    layer_dims includes input and output widths, e.g. [2, 3, 1] for an MLP
    with one 3-unit hidden layer; a linear scorer over d features is [d, 1].
    """

    kind: str  # "linear" | "mlp"
    layer_dims: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) < 2 or dims[-1] != 1 or any(d < 1 for d in dims):
            raise ValueError(f"bad layer_dims {dims}")
        if self.kind == "linear" and len(dims) != 2:
            raise ValueError("linear scorer takes layer_dims [d, 1]")
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.shape != (param_count(dims),):
            raise ValueError(
                f"weights length {w.shape} does not match layer_dims {dims}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "weights", w)

    @property
    def n_params(self) -> int:
        return len(self.weights)

    def with_weights(self, w: np.ndarray) -> "ScorerParams":
        return ScorerParams(self.kind, self.layer_dims, w)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "layer_dims": list(self.layer_dims),
                "weights": self.weights.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "ScorerParams":
        """to_dict's inverse, for a document read from outside: its weights
        must be finite, which with_weights, called every step, does not check."""
        params = cls(doc["kind"], doc["layer_dims"], doc["weights"])
        if not np.isfinite(params.weights).all():
            raise ValueError("weights must be finite")
        return params


@np.errstate(over="ignore")
def expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)) of a float array, elementwise,
    in a new array.

    exp(-x) overflows to inf below x ~ -709, where the sigmoid is 0, as
    scipy.special.expit gives; that overflow is expected, not warned about.
    """
    out = np.exp(-x)
    out += 1.0
    return np.reciprocal(out, out=out)


def param_count(layer_dims) -> int:
    return sum((din + 1) * dout for din, dout in zip(layer_dims[:-1], layer_dims[1:]))


def init_scorer(kind: str, dim: int, hidden=(), seed: int = 0) -> ScorerParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    dims = (dim, 1) if kind == "linear" else (dim, *hidden, 1)
    if any(d < 1 for d in dims):
        raise ValueError(f"bad layer_dims {dims}")
    rng = np.random.default_rng(seed)
    chunks = []
    for din, dout in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(din)
        chunks.append(rng.uniform(-bound, bound, size=(din + 1) * dout))
    return ScorerParams(kind, dims, np.concatenate(chunks))


def _layers(dims, weights: np.ndarray) -> list:
    """(W: K x dout x din, b: K x 1 x dout) views of each layer into a
    (K, P) stack of flat weight vectors of layer shape dims."""
    layers, off = [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        w = weights[:, off:off + din * dout].reshape(len(weights), dout, din)
        off += din * dout
        layers.append((w, weights[:, None, off:off + dout]))
        off += dout
    return layers


def _forward(layers: list, x: np.ndarray):
    """Forward pass of K weight vectors (one _layers list) over one batch of
    rows; each layer is one broadcast matmul over the K points. Returns
    (scores (K, B), activations)."""
    acts = [x]
    h = x
    for w, b in layers[:-1]:
        h = np.tanh(h @ w.transpose(0, 2, 1) + b)
        acts.append(h)
    w, b = layers[-1]
    z = (h @ w.transpose(0, 2, 1) + b)[..., 0]
    # keep scores strictly inside (0,1) even when the sigmoid saturates
    f = expit(z).clip(1e-300, _ONE_BELOW)
    return f, acts


def score_batch(params: ScorerParams, x: np.ndarray) -> np.ndarray:
    """Scores for a batch of rows; each value lies in (0,1).

    The forward pass runs one row_blocks block at a time, a row's width being
    the widest layer, so its activations do not grow with the rows; a row's
    score has the bits of one pass over all rows (see row_blocks).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.layer_dims[0]:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match scorer input "
            f"{params.layer_dims[0]}"
        )
    layers = _layers(params.layer_dims, params.weights[None])
    scores = np.empty(len(x))
    for block in row_blocks(len(x), max(params.layer_dims)):
        scores[block] = _forward(layers, x[block])[0][0]
    return scores


def backprop_logit(layers: list, acts: list, dz: np.ndarray) -> np.ndarray:
    """Gradient of sum_i dz[k, i] * z[k, i] w.r.t. each of the K flat weight
    vectors, as a (K, P) stack.

    z[k, i] is the pre-sigmoid logit of row i under the k-th weights; layers
    and acts are the views and activations of one _forward of those weights
    and rows. Callers fold the sigmoid factor (or a cross-entropy residual)
    into dz (K, B).
    """
    grads = []
    delta = dz[..., None]  # (K, B, dout) running upstream derivative at layer input
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        gw = delta.swapaxes(-1, -2) @ acts[li]
        grads[:0] = [gw.reshape(len(dz), -1), delta.sum(axis=-2)]
        if li > 0:
            # tanh' = 1 - a^2 at the producing layer's output
            delta = (delta @ w) * (1.0 - acts[li] ** 2)
    return np.concatenate(grads, axis=-1)


def score_with_pullback(dims, weights: np.ndarray, x: np.ndarray):
    """Scores (K, B) of a batch under a (K, P) weight stack plus the map
    dz -> backprop_logit over the same forward pass, so scoring and backprop
    share one set of layer views and activations."""
    layers = _layers(dims, weights)
    f, acts = _forward(layers, x)
    return f, lambda dz: backprop_logit(layers, acts, dz)


WARMUP_BATCH = 256


def warmup_logistic(params: ScorerParams, ds, epochs: int, lr: float,
                    seed: int = 0) -> ScorerParams:
    """Minibatch gradient descent on binary cross-entropy, WARMUP_BATCH rows a batch."""
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if epochs == 0 or lr == 0:
        return params
    rng = np.random.default_rng(seed)
    w = params.weights.copy()
    for _ in range(epochs):
        order = rng.permutation(ds.n)
        for start in range(0, ds.n, WARMUP_BATCH):
            idx = order[start:start + WARMUP_BATCH]
            x = ds.features.take(idx, axis=0)
            y = ds.labels.take(idx).astype(np.float64)
            f, pullback = score_with_pullback(params.layer_dims, w[None], x)
            # dCE/dz = f - y, averaged over the batch
            g = pullback((f - y) / len(idx))
            w = w - lr * g[0]
    return params.with_weights(w)
