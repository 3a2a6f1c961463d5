"""Training loop with early stopping on a (noisy) validation set.

Records the trajectory at a fixed evaluation cadence, tracks the checkpoint
with the best validation accuracy, and implements the no-validation
train-to-convergence baseline. Clean test accuracy is recorded for analysis
but never visible to the stopping rule.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, feature_matrix
from .errors import ConfigError
from .model import Batch, Params, _forward_batch, init_params, step
from .strategies import CoTeaching, NoValidation, Strategy, coteach_select, keep_fraction


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.5
    batch_size: int = 32
    max_epochs: int = 20
    eval_every: int = 50
    patience: int = 10
    seed: int = 0
    val_policy: str = "noisy"
    convergence_tol: float = 1e-4
    arch: str = "linear"
    hidden: int = 64

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")
        if min(self.batch_size, self.max_epochs, self.eval_every, self.patience) < 1:
            raise ConfigError("batch_size, max_epochs, eval_every, patience must be >= 1")
        if self.val_policy not in ("noisy", "clean"):
            raise ConfigError(f"unknown val_policy {self.val_policy!r}")
        if self.convergence_tol <= 0:
            raise ConfigError("convergence_tol must be positive")


@dataclass(frozen=True)
class EvalEntry:
    step: int
    train_loss: float
    val_acc: float
    test_acc: float


@dataclass
class RunRecord:
    entries: list[EvalEntry] = field(default_factory=list)
    best_step: int = -1
    final_step: int = -1

    @property
    def best_entry(self) -> EvalEntry:
        return next(e for e in self.entries if e.step == self.best_step)

    @property
    def final_entry(self) -> EvalEntry:
        return self.entries[-1]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for e in self.entries:
                f.write(json.dumps(dataclasses.asdict(e)) + "\n")

    def summary(self) -> dict:
        best = self.best_entry
        final = self.final_entry
        return {
            "best_step": self.best_step,
            "final_step": self.final_step,
            "best_val_acc": best.val_acc,
            "best_test_acc": best.test_acc,
            "final_test_acc": final.test_acc,
        }


def _accuracy(params: Params, X, labels) -> float:
    probs, _ = _forward_batch(params, X)
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch])


def train(
    train_ds: Dataset,
    val_ds: Dataset,
    test_ds: Dataset,
    strategy: Strategy,
    cfg: TrainConfig,
) -> tuple[RunRecord, Params, Params]:
    """Train under a strategy; returns (record, best params, final params).

    Early stopping selects the checkpoint with maximal validation accuracy
    (ties to the earlier step) and halts after ``patience`` evaluations
    without improvement. NoValidation ignores patience and runs until the
    epoch-mean train loss stops improving by ``convergence_tol`` for two
    consecutive epochs; it reports final-step performance.
    """
    if train_ds.noisy_labels is None:
        raise ConfigError("training set needs noisy labels")
    val_labels = val_ds.labels(cfg.val_policy)
    test_labels = test_ds.labels("clean")

    Xtr = feature_matrix(train_ds)
    Xval = feature_matrix(val_ds)
    Xte = feature_matrix(test_ds)
    ytr = train_ds.noisy_labels
    n = len(train_ds)
    k = train_ds.k

    no_validation = isinstance(strategy, NoValidation)
    coteach = isinstance(strategy, CoTeaching)

    loss_fn = strategy.loss(k)
    params = init_params(train_ds.dims, k, cfg.seed, arch=cfg.arch, hidden=cfg.hidden)
    if coteach:
        params_b = init_params(
            train_ds.dims, k, cfg.seed + 1, arch=cfg.arch, hidden=cfg.hidden
        )

    record = RunRecord()
    best_acc = -1.0
    best_params = params.copy()
    evals_since_best = 0
    step_count = 0
    loss_acc: list[float] = []
    stop = False
    prev_epoch_loss = None
    flat_epochs = 0

    def run_eval():
        nonlocal best_acc, best_params, evals_since_best
        val_acc = _accuracy(params, Xval, val_labels)
        test_acc = _accuracy(params, Xte, test_labels)
        train_loss = float(np.mean(loss_acc)) if loss_acc else math.nan
        loss_acc.clear()
        record.entries.append(EvalEntry(step_count, train_loss, val_acc, test_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = params.copy()
            record.best_step = step_count
            evals_since_best = 0
        else:
            evals_since_best += 1

    for epoch in range(cfg.max_epochs):
        order = _epoch_rng(cfg.seed, epoch).permutation(n)
        epoch_losses = []
        if coteach:
            frac = keep_fraction(epoch, strategy.eps, strategy.ramp_epochs)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            X = Xtr[idx]
            y = ytr[idx]
            if coteach:
                probs_a, _ = _forward_batch(params, X)
                probs_b, _ = _forward_batch(params_b, X)
                la, _ = loss_fn.per_sample(probs_a, y)
                lb, _ = loss_fn.per_sample(probs_b, y)
                sel_a, sel_b = coteach_select(la, lb, frac)
                params, _ = step(params, Batch(X[sel_a], y[sel_a]), cfg.lr, loss_fn)
                params_b, _ = step(params_b, Batch(X[sel_b], y[sel_b]), cfg.lr, loss_fn)
                mean_loss = float(np.mean(la))
            else:
                params, mean_loss = step(params, Batch(X, y), cfg.lr, loss_fn)
            step_count += 1
            loss_acc.append(mean_loss)
            epoch_losses.append(mean_loss)
            if step_count % cfg.eval_every == 0:
                run_eval()
                if not no_validation and evals_since_best >= cfg.patience:
                    stop = True
                    break
        if stop:
            break
        epoch_loss = float(np.mean(epoch_losses))
        if no_validation:
            if prev_epoch_loss is not None and prev_epoch_loss - epoch_loss < cfg.convergence_tol:
                flat_epochs += 1
                if flat_epochs >= 2:
                    stop = True
            else:
                flat_epochs = 0
            prev_epoch_loss = epoch_loss
            if stop:
                break

    if not record.entries or record.entries[-1].step != step_count:
        run_eval()
    record.final_step = step_count
    final_params = params
    if no_validation:
        # last-epoch performance is the reported one; best coincides with final
        record.best_step = record.final_step
        best_params = final_params.copy()
    return record, best_params, final_params


def compare_val_policies(
    train_ds: Dataset,
    val_ds: Dataset,
    test_ds: Dataset,
    strategy: Strategy,
    cfg: TrainConfig,
) -> tuple[float, float, float]:
    """Clean-test accuracy under noisy- vs clean-validation early stopping.

    Returns (acc with noisy policy, acc with clean policy, absolute gap).
    Both runs share the same seed and data order.
    """
    if val_ds.clean_labels is None or val_ds.noisy_labels is None:
        raise ConfigError("validation set needs both label sequences")
    rec_noisy, _, _ = train(
        train_ds, val_ds, test_ds, strategy, dataclasses.replace(cfg, val_policy="noisy")
    )
    rec_clean, _, _ = train(
        train_ds, val_ds, test_ds, strategy, dataclasses.replace(cfg, val_policy="clean")
    )
    a = rec_noisy.best_entry.test_acc
    b = rec_clean.best_entry.test_acc
    return a, b, abs(a - b)
