"""Softmax classifier (linear or one-hidden-layer tanh MLP) over sparse
features, with closed-form gradients and per-sample loss evaluation.

Loss functionals expose ``per_sample(probs, labels) -> (losses, dlogits)``;
plain SGD consumes the mean-batch gradient. All randomness is seeded.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import Dataset, feature_matrix
from .errors import ConfigError, NumericError, ShapeError

PROB_CLAMP = 1e-12
INIT_SCALE = 0.05


@dataclass(frozen=True)
class Params:
    """Classifier weights. ``linear``: w1 is (dims, k). ``mlp``: w1 (dims, h),
    w2 (h, k)."""

    arch: str
    dims: int
    k: int
    w1: np.ndarray
    b1: np.ndarray
    hidden: int | None = None
    w2: np.ndarray | None = None
    b2: np.ndarray | None = None

    def copy(self) -> "Params":
        return dataclasses.replace(
            self,
            w1=self.w1.copy(),
            b1=self.b1.copy(),
            w2=None if self.w2 is None else self.w2.copy(),
            b2=None if self.b2 is None else self.b2.copy(),
        )


@dataclass(frozen=True)
class Batch:
    X: sp.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        if self.X.shape[0] != len(self.labels):
            raise ShapeError(
                f"batch has {self.X.shape[0]} rows but {len(self.labels)} labels"
            )
        if len(self.labels) == 0:
            raise ShapeError("empty batch")


def init_params(
    dims: int, k: int, seed: int, arch: str = "linear", hidden: int = 64
) -> Params:
    """Seeded uniform init in [-0.05, 0.05]."""
    rng = np.random.default_rng(seed)
    if arch == "linear":
        return Params(
            arch="linear",
            dims=dims,
            k=k,
            w1=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(dims, k)),
            b1=rng.uniform(-INIT_SCALE, INIT_SCALE, size=k),
        )
    if arch == "mlp":
        return Params(
            arch="mlp",
            dims=dims,
            k=k,
            hidden=hidden,
            w1=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(dims, hidden)),
            b1=rng.uniform(-INIT_SCALE, INIT_SCALE, size=hidden),
            w2=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden, k)),
            b2=rng.uniform(-INIT_SCALE, INIT_SCALE, size=k),
        )
    raise ConfigError(f"unknown architecture {arch!r}")


def softmax(Z: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax (max subtraction)."""
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def _forward_batch(p: Params, X: sp.csr_matrix):
    """Returns (probs, hidden activations or None)."""
    if X.shape[1] != p.dims:
        raise ShapeError(f"input dims {X.shape[1]} != model dims {p.dims}")
    if p.arch == "linear":
        Z = X @ p.w1 + p.b1
        H = None
    else:
        H = np.tanh(X @ p.w1 + p.b1)
        Z = H @ p.w2 + p.b2
    if not np.all(np.isfinite(Z)):
        raise NumericError("non-finite activation in forward pass")
    return softmax(Z), H


def predict_probs(p: Params, ds: Dataset) -> np.ndarray:
    """Probability matrix (n, k) over a featurized dataset."""
    probs, _ = _forward_batch(p, feature_matrix(ds))
    return probs


class CrossEntropy:
    """Plain CE against the (noisy) training label."""

    def per_sample(self, probs: np.ndarray, labels: np.ndarray):
        n = len(labels)
        idx = np.arange(n)
        losses = -np.log(np.maximum(probs[idx, labels], PROB_CLAMP))
        G = probs.copy()
        G[idx, labels] -= 1.0
        return losses, G


class SmoothedCrossEntropy:
    """CE against (1-alpha) * one-hot + alpha * uniform targets."""

    def __init__(self, alpha: float):
        if not 0 <= alpha < 1:
            raise ConfigError(f"alpha must be in [0,1), got {alpha}")
        self.alpha = alpha

    def per_sample(self, probs: np.ndarray, labels: np.ndarray):
        n, k = probs.shape
        idx = np.arange(n)
        T = np.full((n, k), self.alpha / k)
        T[idx, labels] += 1.0 - self.alpha
        losses = -(T * np.log(np.maximum(probs, PROB_CLAMP))).sum(axis=1)
        return losses, probs - T


def _backprop(p: Params, X: sp.csr_matrix, H, dlogits: np.ndarray, lr: float) -> Params:
    n = X.shape[0]
    dZ = dlogits / n
    if p.arch == "linear":
        grads = {"w1": X.T @ dZ, "b1": dZ.sum(axis=0)}
    else:
        dH = dZ @ p.w2.T
        dZ1 = dH * (1.0 - H * H)
        grads = {
            "w1": X.T @ dZ1,
            "b1": dZ1.sum(axis=0),
            "w2": H.T @ dZ,
            "b2": dZ.sum(axis=0),
        }
    for name, g in grads.items():
        g = np.asarray(g)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter block {name}")
        grads[name] = g
    updates = {name: getattr(p, name) - lr * g for name, g in grads.items()}
    return dataclasses.replace(p, **updates)


def step(p: Params, batch: Batch, lr: float, loss_fn=None) -> tuple[Params, float]:
    """One SGD step on the mean batch loss; returns (new params, mean loss)."""
    if loss_fn is None:
        loss_fn = CrossEntropy()
    probs, H = _forward_batch(p, batch.X)
    losses, dlogits = loss_fn.per_sample(probs, batch.labels)
    new_p = _backprop(p, batch.X, H, dlogits, lr)
    if hasattr(loss_fn, "sgd_update"):
        loss_fn.sgd_update(lr)
    return new_p, float(np.mean(losses))


def evaluate(p: Params, ds: Dataset, use: str = "clean") -> float:
    """Accuracy of argmax predictions against the selected label sequence.

    Argmax ties break to the lowest class index.
    """
    labels = ds.labels(use)
    probs = predict_probs(p, ds)
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def save_checkpoint(p: Params, path, extras: dict | None = None) -> None:
    """NPZ checkpoint: a meta JSON string plus the weight arrays."""
    meta = {"arch": p.arch, "dims": p.dims, "k": p.k, "hidden": p.hidden}
    arrays = {"w1": p.w1, "b1": p.b1}
    if p.arch == "mlp":
        arrays["w2"] = p.w2
        arrays["b2"] = p.b2
    if extras:
        for name, arr in extras.items():
            arrays[f"extra_{name}"] = arr
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_checkpoint(path) -> tuple[Params, dict]:
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["meta"]))
        extras = {
            name[len("extra_") :]: z[name] for name in z.files if name.startswith("extra_")
        }
        p = Params(
            arch=meta["arch"],
            dims=meta["dims"],
            k=meta["k"],
            hidden=meta["hidden"],
            w1=z["w1"],
            b1=z["b1"],
            w2=z["w2"] if meta["arch"] == "mlp" else None,
            b2=z["b2"] if meta["arch"] == "mlp" else None,
        )
    return p, extras
