"""The six noise-handling training baselines as pluggable strategies.

Each strategy builds its own loss functional with ``loss(k)``. Vanilla and
NoValidation train on plain CE; NMat composes the model's output with a fixed
transition matrix before the CE; NMwR does the same with a row-stochastic
matrix learned jointly with the classifier under an L2 penalty; CoTeaching
cross-selects small-loss samples between two networks; LabelSmoothing mixes
the one-hot target with a uniform vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
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
            raise ConfigError(f"noise matrix is {self.T.k}x{self.T.k} but the data has k={k}")
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

    def keep_fraction(self, epoch: int) -> float:
        """The share of each batch kept at ``epoch``: R(T) = 1 - eps * min(T / ramp_epochs, 1)."""
        return 1.0 - self.eps * min(epoch / self.ramp_epochs, 1.0)


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
        self.M = T.rows

    def per_sample(self, probs: np.ndarray, labels: np.ndarray):
        # A[n, i] = M[i, y_n]; q_y reduces to probs[y] exactly when M = I,
        # which keeps the NMat(identity) trajectory bitwise equal to Vanilla.
        A = self.M[:, labels].T
        qy = np.maximum((probs * A).sum(axis=1), PROB_CLAMP)
        losses = -np.log(qy)
        G = probs - (probs * A) / qy[:, None]
        return losses, G


# NMwR steps its matrix at this fraction of the model's learning rate. At the
# full rate a column of M can reach 0, a q_y under the clamp then gives a huge
# step, and the projection sends every row of M to one vertex: the final test
# accuracy fell to chance on 6 of 20 synthetic seeds, and at a tenth on none.
M_LR_FRACTION = 0.1


class NMwRTrainableLoss(NMatCorrectedCE):
    """Loss functional for NMwR: NMat's corrected CE over a learned matrix M,
    plus lam*||M||^2. After each SGD step every row of M is projected onto the
    probability simplex (Sukhbaatar et al., 2015), so M stays row-stochastic."""

    def __init__(self, k: int, lam: float):
        self.M = np.eye(k)
        self.lam = lam
        self._dM = None

    def per_sample(self, probs: np.ndarray, labels: np.ndarray):
        losses, dlogits = super().per_sample(probs, labels)
        # d(-log q_y)/dM[i, y] = -probs[i] / q_y, and q_y = exp(-loss)
        dq = np.zeros_like(probs)
        dq[np.arange(len(labels)), labels] = -np.exp(losses)
        self._dM = probs.T @ dq / len(labels) + 2.0 * self.lam * self.M
        return losses + self.lam * float((self.M * self.M).sum()), dlogits

    def sgd_update(self, lr: float) -> None:
        if self._dM is not None:
            self.M = project_rows_to_simplex(self.M - M_LR_FRACTION * lr * self._dM)
            self._dM = None


def project_rows_to_simplex(V: np.ndarray) -> np.ndarray:
    """The Euclidean projection of each row of ``V`` onto the probability
    simplex, by the sort-based algorithm (Wang & Carreira-Perpinan, 2013)."""
    # Shifting a row leaves its projection as it is; shifting by the max keeps
    # each sum exact when V holds huge entries (from a q_y under the clamp).
    V = V - V.max(axis=1, keepdims=True)
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    # rho: how many of the largest entries stay above theta
    rho = np.count_nonzero(U * np.arange(1, V.shape[1] + 1) > css, axis=1)
    theta = css[np.arange(len(V)), rho - 1] / rho
    return np.maximum(V - theta[:, None], 0.0)


def coteach_select(losses_a, losses_b, frac: float):
    """Cross-select the small-loss fraction of a batch for each network.

    Net A trains on the ceil(frac*n) smallest losses under net B's losses and
    vice versa; ties break to the lower index.
    """
    losses_a = np.asarray(losses_a)
    losses_b = np.asarray(losses_b)
    if losses_a.shape != losses_b.shape or losses_a.ndim != 1:
        raise ConfigError(f"loss shapes differ: {losses_a.shape} vs {losses_b.shape}")
    n = len(losses_a)
    if n == 0:
        raise ConfigError("empty loss sequences")
    if not 0 < frac <= 1:
        raise ConfigError(f"frac must be in (0,1], got {frac}")
    m = math.ceil(frac * n)
    idx_for_a = np.sort(np.argsort(losses_b, kind="stable")[:m])
    idx_for_b = np.sort(np.argsort(losses_a, kind="stable")[:m])
    return idx_for_a, idx_for_b

