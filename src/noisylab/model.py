"""Softmax classifier (linear or one-hidden-layer tanh MLP) over sparse
features, with closed-form gradients and per-sample loss evaluation.

Loss functionals expose ``per_sample(probs, labels) -> (losses, dlogits)``;
plain SGD consumes the mean-batch gradient. All randomness is seeded.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from .data import Dataset, feature_matrix
from .errors import ConfigError, NumericError, ParseError

PROB_CLAMP = 1e-12
INIT_SCALE = 0.05
ARCHS = ("linear", "mlp")


@dataclass(frozen=True)
class Params:
    """Classifier weights. A linear model is w1 (dims, k) and b1; an MLP is
    w1 (dims, h), b1, w2 (h, k) and b2. ``step`` updates the arrays in place;
    ``train`` returns parameters whose arrays it owns."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray | None = None
    b2: np.ndarray | None = None

    def arrays(self) -> dict[str, np.ndarray]:
        """The arrays that are set, by field name."""
        return {name: a for name, a in vars(self).items() if a is not None}

    def copy(self) -> "Params":
        return Params(**{name: a.copy() for name, a in self.arrays().items()})


def init_params(
    dims: int, k: int, seed: int, arch: str = "linear", hidden: int = 64, rows=None
) -> Params:
    """Seeded uniform init in [-0.05, 0.05]; each layer draws its weights,
    then its bias. With ``rows`` (ascending indices into ``dims``), ``w1`` is
    those rows of the full draw, and every array is bitwise as in it."""
    if arch not in ARCHS:
        raise ConfigError(f"unknown architecture {arch!r}")
    sizes = [dims, k] if arch == "linear" else [dims, hidden, k]
    rng = np.random.default_rng(seed)
    arrays = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        arrays.append(_uniform_rows(rng, None if arrays else rows, fan_in, fan_out))  # rows pick w1's only
        arrays.append(rng.uniform(-INIT_SCALE, INIT_SCALE, size=fan_out))
    return Params(*arrays)


def _uniform_rows(rng, rows, dims: int, width: int) -> np.ndarray:
    """Rows ``rows`` (all rows when None) of ``rng.uniform(size=(dims,
    width))``, leaving ``rng`` where that draw would. A double takes one
    64-bit output, so each run of consecutive rows is one draw after advancing
    the generator past the rows before it. The draws are scaled as ``uniform``
    scales them, in place."""
    rows = np.arange(dims) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or np.any(np.diff(rows) <= 0) or np.any((rows < 0) | (rows >= dims)):
        raise ConfigError(f"rows must be ascending indices in [0,{dims})")
    begins = np.diff(rows, prepend=-2) != 1  # the rows that begin a run
    ends = np.diff(rows, append=dims + 1) != 1  # and those that end one
    skips = (np.append(rows[begins], dims) - np.append(0, rows[ends] + 1)) * width
    bounds = np.append(np.flatnonzero(begins), len(rows)).tolist()
    out = np.empty((len(rows), width))
    for s, e, skip in zip(bounds, bounds[1:], skips.tolist()):
        rng.bit_generator.advance(skip)
        rng.random(out=out[s:e])
    rng.bit_generator.advance(int(skips[-1]))  # past the rows after the last run
    out *= 2 * INIT_SCALE  # uniform's low + (high - low) * u
    out -= INIT_SCALE
    return out


def softmax(Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable row-wise softmax (max subtraction), into ``out``
    when given; ``out`` may be ``Z``."""
    out = np.subtract(Z, Z.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


class CSRArrays(NamedTuple):
    """A CSR matrix as its arrays, under scipy's attribute names. These four
    are all that ``_forward_batch``, ``step`` and ``accuracy`` read of a
    matrix, so a scipy CSR matrix serves them as well."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def _matvecs(kernel, indptr, indices, data, shape, dense: np.ndarray) -> np.ndarray:
    """``S @ dense`` for the ``shape`` CSR (``kernel`` ``csr_matvecs``) or CSC
    (``csc_matvecs``) matrix S over these arrays: the kernel scipy's ``@``
    runs, into a zeroed output of the dtype scipy's ``_matmul_multivector``
    gives it, so the product has ``@``'s bits."""
    m, n = shape
    if dense.ndim != 2 or dense.shape[0] != n:  # the kernel reads n rows of dense
        raise ValueError(f"dimension mismatch: {shape} @ {dense.shape}")
    out = np.zeros((m, dense.shape[1]), dtype=np.result_type(data, dense))
    kernel(m, n, dense.shape[1], indptr, indices, data, dense.ravel(), out.ravel())
    return out


def _forward_batch(p: Params, X, A=None):
    """Returns (probs, A), where A is the first layer's output: a linear
    model's logits or an MLP's hidden activations. ``X`` is a CSR matrix or
    ``CSRArrays``. Each row of A depends only on that row of X, so a caller
    that ran the batch may pass rows of its A for those rows of X; only the
    layers after it run again, and they leave A as it is. Rows of an MLP's
    output layer are not: BLAS may round a row differently in another batch."""
    if A is None:
        if getattr(X, "format", "csr") != "csr":  # the kernel reads its arrays as CSR
            raise ConfigError(f"features must be a CSR matrix, got {X.format}")
        if X.shape[1] != p.w1.shape[0]:
            raise ConfigError(f"input dims {X.shape[1]} != model dims {p.w1.shape[0]}")
        A = _matvecs(csr_matvecs, X.indptr, X.indices, X.data, X.shape, p.w1)
        A += p.b1
        if p.w2 is not None:
            np.tanh(A, out=A)
    # The softmax overwrites Z; a linear model's Z is a copy, so A keeps the logits.
    Z = A.copy() if p.w2 is None else A @ p.w2 + p.b2
    if not np.isfinite(Z).all():
        raise NumericError("non-finite activation in forward pass")
    return softmax(Z, out=Z), A


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


def _take_rows(X, sel) -> CSRArrays:
    """Rows ``sel`` of a CSR matrix, as ``X[sel]`` holds them, by one gather:
    the new row i's entries are the old row sel[i]'s, shifted to its start."""
    lens = np.diff(X.indptr)[sel]
    indptr = np.zeros(len(lens) + 1, dtype=X.indptr.dtype)
    np.cumsum(lens, out=indptr[1:])
    at = np.repeat(X.indptr[sel] - indptr[:-1], lens) + np.arange(indptr[-1], dtype=indptr.dtype)
    return CSRArrays(X.data[at], X.indices[at], indptr, (len(lens), X.shape[1]))


def step(p: Params, X, labels: np.ndarray, lr: float, loss_fn, forward=None) -> float:
    """One SGD step on the mean batch loss over a CSR matrix or ``CSRArrays``
    ``X``. Updates ``p``'s arrays in place, touching only the ``w1`` rows of
    the batch's feature columns, and returns the mean loss. ``forward`` is the
    first layer's output on ``X`` under ``p`` (``_forward_batch``'s A) when the
    caller already has it; ``step`` overwrites it. The gradient that
    ``loss_fn.per_sample`` returns is divided in place. On ``NumericError``
    ``p`` is left unchanged."""
    n, dims = X.shape
    probs, H = _forward_batch(p, X, forward)
    losses, dZ = loss_fn.per_sample(probs, labels)
    dZ /= n
    # The batch's transpose over its own columns only, as CSC arrays: the same
    # entries in the same order as X.T, so each touched row's gradient sums
    # bitwise as X.T's. The columns come ascending from a marker over the rows.
    seen = np.zeros(dims, dtype=bool)
    seen[X.indices] = True
    cols = np.flatnonzero(seen)
    position = np.empty(dims, dtype=X.indices.dtype)
    position[cols] = np.arange(len(cols))
    XcT = (X.indptr, position[X.indices], X.data, (len(cols), n))
    if p.w2 is None:
        grads = [_matvecs(csc_matvecs, *XcT, dZ), dZ.sum(axis=0)]
    else:
        dZ1 = dZ @ p.w2.T
        dw2 = H.T @ dZ  # before H becomes tanh's derivative, 1 - H * H
        H *= H
        np.subtract(1.0, H, out=H)
        dZ1 *= H
        grads = [_matvecs(csc_matvecs, *XcT, dZ1), dZ1.sum(axis=0), dw2, dZ.sum(axis=0)]
    blocks = p.arrays()  # by name, in the order of grads
    for name, g in zip(blocks, grads):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter block {name}")
        g *= lr
    rows = p.w1.take(cols, axis=0)  # the touched rows: gathered, updated, scattered back
    rows -= grads[0]
    p.w1[cols] = rows
    for a, g in zip(list(blocks.values())[1:], grads[1:]):
        a -= g
    if hasattr(loss_fn, "sgd_update"):
        loss_fn.sgd_update(lr)
    return float(losses.sum() / len(losses))  # np.mean's bits


def accuracy(p: Params, X, labels: np.ndarray) -> float:
    """Share of rows whose argmax prediction is the label; argmax ties break
    to the lowest class index."""
    probs, _ = _forward_batch(p, X)
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def save_checkpoint(p: Params, path) -> None:
    """NPZ checkpoint of the weight arrays, by field name."""
    np.savez(path, **p.arrays())


def load_arrays(path, *layouts: set[str]) -> dict[str, np.ndarray]:
    """The arrays of an NPZ file, by name. Any other file, or one that holds
    other than numeric arrays named as one of ``layouts``, is a ``ParseError``."""
    try:
        with np.lib.npyio.NpzFile(path) as z:  # rejects pickled objects
            arrays = {name: np.asarray(z[name]) for name in z.files}  # a non-.npy member is bytes
    except (ValueError, zipfile.BadZipFile) as e:
        raise ParseError(f"{path}: not an NPZ archive of arrays: {e}") from None
    if set(arrays) not in layouts or any(a.dtype.kind not in "biuf" for a in arrays.values()):
        held = ", ".join(f"{name} ({a.dtype})" for name, a in sorted(arrays.items()))
        expected = " or ".join(str(sorted(names)) for names in layouts)
        raise ParseError(f"{path}: holds {held or 'no arrays'}; expected numeric {expected}")
    return arrays


def load_checkpoint(path) -> Params:
    """The parameters ``save_checkpoint`` wrote; any other file is a ``ParseError``."""
    return Params(**load_arrays(path, {"w1", "b1"}, {"w1", "b1", "w2", "b2"}))
