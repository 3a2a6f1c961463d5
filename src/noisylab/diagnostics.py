"""Loss-separability analysis: per-sample loss snapshots at the early-stopping
step, histograms of correct vs wrong labels, and ROC/AUC for wrong-label
detection (higher loss predicts "wrong label")."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DegenerateClassError
from .model import CrossEntropy, Params, predict_probs


@dataclass(frozen=True)
class LossSnapshot:
    losses: np.ndarray
    is_wrong: np.ndarray
    step: int

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=np.float64)
        is_wrong = np.asarray(self.is_wrong, dtype=bool)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "is_wrong", is_wrong)
        if losses.ndim != 1 or losses.shape != is_wrong.shape:
            raise ConfigError(f"losses {losses.shape}, is_wrong {is_wrong.shape}: not aligned 1-d")
        if len(losses) and (not np.all(np.isfinite(losses)) or losses.min() < 0):
            raise ConfigError("losses must be finite and non-negative")


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # aligned with points; first entry is +inf
    points: np.ndarray  # (m, 2) of (fpr, tpr), from (0,0) to (1,1)
    auc: float


def snapshot_losses(params: Params, ds: Dataset, step: int = 0) -> LossSnapshot:
    """Plain CE against the noisy label for every example, whatever strategy
    produced the checkpoint; is_wrong flags where noisy differs from clean."""
    if ds.clean_labels is None or ds.noisy_labels is None:
        raise ConfigError("separability needs both clean and noisy labels")
    losses, _ = CrossEntropy().per_sample(predict_probs(params, ds), ds.noisy_labels)
    return LossSnapshot(
        losses=losses, is_wrong=ds.noisy_labels != ds.clean_labels, step=step
    )


def histogram(snap: LossSnapshot, bins: int = 50):
    """Equal-width bins over [0, max loss]; returns (edges, correct, wrong)."""
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    if len(snap.losses) == 0:
        raise ConfigError("empty snapshot")
    hi = float(snap.losses.max())
    if hi == 0.0:
        hi = 1.0  # all-zero losses: a single degenerate spike in bin 0
    edges = np.linspace(0.0, hi, bins + 1)
    correct, _ = np.histogram(snap.losses[~snap.is_wrong], bins=edges)
    wrong, _ = np.histogram(snap.losses[snap.is_wrong], bins=edges)
    return edges, correct, wrong


def roc(snap: LossSnapshot) -> RocCurve:
    """Threshold sweep over distinct loss values; trapezoidal AUC.

    Equal losses move together between points, which makes the trapezoidal
    area equal to the tie-aware Mann-Whitney statistic.
    """
    n_wrong = int(snap.is_wrong.sum())
    n_correct = len(snap.is_wrong) - n_wrong
    if n_wrong == 0 or n_correct == 0:
        raise DegenerateClassError(
            "ROC needs at least one wrong and one correct example"
        )
    order = np.argsort(-snap.losses, kind="stable")
    sorted_losses = snap.losses[order]
    sorted_wrong = snap.is_wrong[order]
    tp = np.cumsum(sorted_wrong)
    fp = np.cumsum(~sorted_wrong)
    # keep one point per distinct loss value (the last index of each group)
    distinct = np.append(sorted_losses[1:] != sorted_losses[:-1], True)
    thresholds = np.concatenate(([np.inf], sorted_losses[distinct]))
    fpr = np.concatenate(([0.0], fp[distinct] / n_correct))
    tpr = np.concatenate(([0.0], tp[distinct] / n_wrong))
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(
        thresholds=thresholds, points=np.column_stack([fpr, tpr]), auc=auc
    )


def write_csv(out, header, rows) -> None:
    """A header line, then one line per row, to the open text stream ``out``."""
    w = csv.writer(out)
    w.writerow(header)
    w.writerows(rows)


def write_histogram_csv(snap: LossSnapshot, path, bins: int = 50) -> None:
    edges, correct, wrong = histogram(snap, bins)
    rows = ([f"{lo:.6g}", f"{hi:.6g}", c, w] for lo, hi, c, w in zip(edges, edges[1:], correct, wrong))
    with open(path, "w", newline="", encoding="utf-8") as f:
        write_csv(f, ["bin_left", "bin_right", "count_correct", "count_wrong"], rows)


def write_roc_csv(curve: RocCurve, path) -> None:
    rows = (["inf" if np.isinf(t) else f"{t:.12g}", f"{fpr:.12g}", f"{tpr:.12g}"]
            for t, (fpr, tpr) in zip(curve.thresholds, curve.points))
    with open(path, "w", newline="", encoding="utf-8") as f:
        write_csv(f, ["threshold", "fpr", "tpr"], rows)


def write_report_csv(rows: list[dict], path) -> None:
    numbers = ("auc", "best_val_acc", "best_test_acc", "final_test_acc")
    with open(path, "w", newline="", encoding="utf-8") as f:
        write_csv(f, ["strategy", *numbers],
                  ([r["strategy"], *(f"{r[key]:.6f}" for key in numbers)] for r in rows))
