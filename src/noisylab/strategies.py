"""The six noise-handling training baselines as pluggable strategies.

Each strategy builds its own loss functional with ``loss(k)``. Vanilla and
NoValidation train on plain CE; NMat composes the model's output with a fixed
transition matrix before the CE; NMwR learns an unconstrained matrix jointly
with the classifier under an L2 penalty; CoTeaching cross-selects small-loss
samples between two networks; LabelSmoothing mixes the one-hot target with a
uniform vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericError, ShapeError
from .model import PROB_CLAMP, CrossEntropy, SmoothedCrossEntropy
from .noise import TransitionMatrix


@dataclass(frozen=True)
class Vanilla:
    name = "vanilla"

    def loss(self, k: int):
        return CrossEntropy()


@dataclass(frozen=True)
class NoValidation:
    name = "no_validation"

    def loss(self, k: int):
        return CrossEntropy()


@dataclass(frozen=True)
class NMat:
    T: TransitionMatrix
    name = "nmat"

    def loss(self, k: int):
        if self.T.k != k:
            raise ShapeError(
                f"noise matrix is {self.T.k}x{self.T.k} but the data has k={k}"
            )
        return NMatCorrectedCE(self.T)


@dataclass(frozen=True)
class NMwR:
    lam: float = 1e-3
    name = "nmwr"

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError(f"lam must be non-negative, got {self.lam}")

    def loss(self, k: int):
        return NMwRTrainableLoss(k, self.lam)


@dataclass(frozen=True)
class CoTeaching:
    eps: float
    ramp_epochs: int = 5
    name = "coteaching"

    def __post_init__(self):
        if not 0 <= self.eps < 1:
            raise ConfigError(f"eps must be in [0,1), got {self.eps}")
        if self.ramp_epochs < 1:
            raise ConfigError("ramp_epochs must be positive")

    def loss(self, k: int):
        return CrossEntropy()


@dataclass(frozen=True)
class LabelSmoothing:
    alpha: float = 0.1
    name = "label_smoothing"

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ConfigError(f"alpha must be in [0,1), got {self.alpha}")

    def loss(self, k: int):
        return SmoothedCrossEntropy(self.alpha)


Strategy = Vanilla | NoValidation | NMat | NMwR | CoTeaching | LabelSmoothing


class NMatCorrectedCE:
    """Loss functional for NMat; gradient flows through probs only."""

    def __init__(self, T: TransitionMatrix):
        self.T = T.rows

    def per_sample(self, probs: np.ndarray, labels: np.ndarray):
        # A[n, i] = T[i, y_n]; q_y reduces to probs[y] exactly when T = I,
        # which keeps the NMat(identity) trajectory bitwise equal to Vanilla.
        A = self.T[:, labels].T
        qy = np.maximum((probs * A).sum(axis=1), PROB_CLAMP)
        losses = -np.log(qy)
        G = probs - (probs * A) / qy[:, None]
        return losses, G


class NMwRTrainableLoss:
    """Loss functional for NMwR; carries the learned matrix M as state.

    M starts at identity and is updated by the same SGD step as the model.
    """

    def __init__(self, k: int, lam: float):
        self.M = np.eye(k)
        self.lam = lam
        self._dM = None

    def per_sample(self, probs: np.ndarray, labels: np.ndarray):
        n, k = probs.shape
        idx = np.arange(n)
        U = probs @ self.M
        dead = np.all(U < PROB_CLAMP, axis=1)
        if np.any(dead):
            raise NumericError(
                f"noisy head output fully clamped for sample {int(np.argmax(dead))}"
            )
        Uc = np.maximum(U, PROB_CLAMP)
        S = Uc.sum(axis=1)
        qy = np.maximum(Uc[idx, labels] / S, PROB_CLAMP)
        frob = float((self.M * self.M).sum())
        losses = -np.log(qy) + self.lam * frob
        active = (U >= PROB_CLAMP).astype(np.float64)
        dU = active / S[:, None]
        dU[idx, labels] -= active[idx, labels] / Uc[idx, labels]
        Gp = dU @ self.M.T
        dlogits = probs * (Gp - (probs * Gp).sum(axis=1, keepdims=True))
        self._dM = probs.T @ dU / n + 2.0 * self.lam * self.M
        return losses, dlogits

    def sgd_update(self, lr: float) -> None:
        if self._dM is not None:
            self.M = self.M - lr * self._dM
            self._dM = None


def keep_fraction(epoch: int, eps: float, ramp_epochs: int) -> float:
    """Co-teaching keep schedule: linear ramp from 1 down to 1 - eps."""
    if ramp_epochs < 1:
        raise DomainError("ramp_epochs must be positive")
    return 1.0 - eps * min(epoch / ramp_epochs, 1.0)


def coteach_select(losses_a, losses_b, frac: float):
    """Cross-select the small-loss fraction of a batch for each network.

    Net A trains on the ceil(frac*n) smallest losses under net B's losses and
    vice versa; ties break to the lower index.
    """
    losses_a = np.asarray(losses_a)
    losses_b = np.asarray(losses_b)
    if losses_a.shape != losses_b.shape or losses_a.ndim != 1:
        raise ShapeError(
            f"loss shapes differ: {losses_a.shape} vs {losses_b.shape}"
        )
    n = len(losses_a)
    if n == 0:
        raise ShapeError("empty loss sequences")
    if not 0 < frac <= 1:
        raise DomainError(f"frac must be in (0,1], got {frac}")
    m = math.ceil(frac * n)
    idx_for_a = np.sort(np.argsort(losses_b, kind="stable")[:m])
    idx_for_b = np.sort(np.argsort(losses_a, kind="stable")[:m])
    return idx_for_a, idx_for_b

