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
from .model import ARCHS, CSRArrays, Params, _forward_batch, _take_rows, accuracy, init_params, step
from .strategies import CoTeaching, NoValidation, Strategy, coteach_select


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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown arch {self.arch!r}; expected one of {ARCHS}")
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")


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

    @property
    def final_step(self) -> int:
        return self.entries[-1].step

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


def _row_slice(X, start: int, stop: int) -> CSRArrays:
    """Rows ``start:stop`` of a CSR matrix, as views of its data and indices."""
    indptr = X.indptr[start : stop + 1]
    a, b = indptr[0], indptr[-1]
    return CSRArrays(X.data[a:b], X.indices[a:b], indptr - a, (len(indptr) - 1, X.shape[1]))


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

    if not all(np.array_equal(ds.buckets, train_ds.buckets) for ds in (val_ds, test_ds)):
        raise ConfigError("train, val and test must share one column numbering")

    loss_fn = strategy.loss(k)
    # A compacted dataset's model is the used rows of the hash-width model.
    dims = train_ds.hash_dims or train_ds.dims
    init = dict(arch=cfg.arch, hidden=cfg.hidden, rows=train_ds.buckets)
    params = init_params(dims, k, cfg.seed, **init)
    if coteach:
        params_b = init_params(dims, k, cfg.seed + 1, **init)

    record = RunRecord()
    losses: list[float] = []  # the mean batch loss of every step
    # NoValidation reports its final parameters; the others copy the best seen.
    best_params = params

    def run_eval():
        nonlocal best_params
        val_acc = accuracy(params, Xval, val_labels)
        test_acc = accuracy(params, Xte, test_labels)
        since = losses[record.entries[-1].step if record.entries else 0 :]
        train_loss = float(np.mean(since)) if since else math.nan
        best = no_validation or all(val_acc > e.val_acc for e in record.entries)
        record.entries.append(EvalEntry(len(losses), train_loss, val_acc, test_acc))
        if best:  # NoValidation's last evaluation is its best
            record.best_step = len(losses)
            best_params = params if no_validation else params.copy()

    def stalled() -> bool:  # patience evaluations follow the best one
        return sum(e.step > record.best_step for e in record.entries) >= cfg.patience

    per_epoch = -(-n // cfg.batch_size)  # steps
    for epoch in range(cfg.max_epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        Xe, ye = _take_rows(Xtr, order), ytr[order]
        if coteach:
            frac = strategy.keep_fraction(epoch)
        for start in range(0, n, cfg.batch_size):
            X = _row_slice(Xe, start, start + cfg.batch_size)
            y = ye[start : start + cfg.batch_size]
            if coteach:
                probs_a, A_a = _forward_batch(params, X)
                probs_b, A_b = _forward_batch(params_b, X)
                la, _ = loss_fn.per_sample(probs_a, y)
                lb, _ = loss_fn.per_sample(probs_b, y)
                sel_a, sel_b = coteach_select(la, lb, frac)
                # Each network steps on its kept rows of the first layer it just ran.
                step(params, _take_rows(X, sel_a), y[sel_a], cfg.lr, loss_fn, forward=A_a[sel_a])
                step(params_b, _take_rows(X, sel_b), y[sel_b], cfg.lr, loss_fn, forward=A_b[sel_b])
                losses.append(float(np.mean(la)))
            else:
                losses.append(step(params, X, y, cfg.lr, loss_fn))
            if len(losses) % cfg.eval_every == 0:
                run_eval()
                if stalled():
                    break
        if stalled():
            break
        if no_validation and epoch >= 2:  # converged: the epoch mean gained under tol twice
            a, b, c = (np.mean(losses[e * per_epoch : (e + 1) * per_epoch])
                       for e in (epoch - 2, epoch - 1, epoch))
            if a - b < cfg.convergence_tol and b - c < cfg.convergence_tol:
                break

    if not record.entries or record.entries[-1].step != len(losses):
        run_eval()
    return record, best_params, params
