"""Noise transition matrices, label corruption, and realized-noise measurement.

Two parametric corruption families (uniform-flip and single-flip), empirical
matrix estimation from clean/noisy label pairs, rule-based feature-dependent
corruption over text, plus the false-discovery-rate and diagonal-dominance
audits.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, tokenize
from .errors import ConfigError, DomainError, ParseError, ShapeError

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic k x k matrix; rows[i][j] = p(noisy=j | clean=i)."""

    k: int
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        if rows.shape != (self.k, self.k):
            raise ShapeError(f"expected shape ({self.k},{self.k}), got {rows.shape}")
        if np.any(rows < 0) or np.any(rows > 1):
            i = int(np.argmax(np.any((rows < 0) | (rows > 1), axis=1)))
            raise DomainError(f"row {i} has an entry outside [0,1]")
        sums = rows.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DomainError(f"row {i} sums to {sums[i]}, not 1")

    def save_csv(self, path) -> None:
        np.savetxt(path, self.rows, delimiter=",", fmt="%.17g")

    @classmethod
    def load_csv(cls, path) -> "TransitionMatrix":
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(k=rows.shape[0], rows=rows)


@dataclass(frozen=True)
class RuleSet:
    """Ordered keyword -> class rules; a gazetteer-style weak labeler."""

    rules: tuple[tuple[str, int], ...]
    abstain_to_clean: bool = True

    def __post_init__(self):
        for kw, c in self.rules:
            if not kw:
                raise DomainError("empty keyword in rule set")
            if c < 0:
                raise DomainError(f"negative class in rule ({kw!r}, {c})")

    @classmethod
    def load_jsonl(cls, path, abstain_to_clean: bool = True) -> "RuleSet":
        rules = []
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    rules.append((str(rec["keyword"]), int(rec["class"])))
                except KeyError as e:
                    raise ParseError(f"{path}: line {lineno}: missing {e}") from None
                except (TypeError, ValueError) as e:
                    raise ParseError(f"{path}: line {lineno}: {e}") from None
        return cls(rules=tuple(rules), abstain_to_clean=abstain_to_clean)


def uniform_matrix(k: int, eps: float) -> TransitionMatrix:
    """Keep the label w.p. 1-eps, spread eps evenly over the k-1 wrong classes."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if not 0 <= eps < 1:
        raise DomainError(f"eps must be in [0,1), got {eps}")
    rows = np.full((k, k), eps / (k - 1))
    np.fill_diagonal(rows, 1.0 - eps)
    return TransitionMatrix(k=k, rows=rows)


def single_flip_matrix(
    k: int, eps: float, flip_map: dict[int, int] | None = None
) -> TransitionMatrix:
    """Send eps mass of each class to exactly one wrong class.

    Default flip_map is the cyclic shift i -> (i+1) mod k.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if not 0 <= eps < 1:
        raise DomainError(f"eps must be in [0,1), got {eps}")
    if flip_map is None:
        flip_map = {i: (i + 1) % k for i in range(k)}
    if set(flip_map) != set(range(k)):
        raise DomainError("flip_map must be total over classes")
    rows = np.zeros((k, k))
    for i in range(k):
        j = flip_map[i]
        if j == i:
            raise DomainError(f"flip_map has fixed point at class {i}")
        if not 0 <= j < k:
            raise DomainError(f"flip_map target {j} out of range")
        rows[i, i] = 1.0 - eps
        rows[i, j] += eps
    return TransitionMatrix(k=k, rows=rows)


def matrix_from_pairs(clean, noisy, k: int) -> TransitionMatrix:
    """Empirical transition matrix from aligned clean/noisy label pairs.

    Classes absent from the clean sequence get a one-hot self row.
    """
    clean = np.asarray(clean, dtype=np.int64)
    noisy = np.asarray(noisy, dtype=np.int64)
    if clean.shape != noisy.shape or clean.ndim != 1 or len(clean) == 0:
        raise ShapeError(
            f"need equal-length nonempty sequences, got {clean.shape} and {noisy.shape}"
        )
    if min(clean.min(), noisy.min()) < 0 or max(clean.max(), noisy.max()) >= k:
        raise DomainError(f"label out of range for k={k}")
    counts = np.zeros((k, k))
    np.add.at(counts, (clean, noisy), 1.0)
    totals = counts.sum(axis=1)
    rows = np.eye(k)
    seen = totals > 0
    rows[seen] = counts[seen] / totals[seen, None]
    return TransitionMatrix(k=k, rows=rows)


def inject(labels, T: TransitionMatrix, seed: int) -> np.ndarray:
    """Corrupt each label independently by sampling from its matrix row.

    Draw i is a pure function of (seed, i), so the output is deterministic
    per (labels, T, seed) and independent of evaluation order.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) and (labels.min() < 0 or labels.max() >= T.k):
        raise DomainError("label out of range for transition matrix")
    cum = np.cumsum(T.rows, axis=1)
    # rows may sum to 1 within ROW_SUM_TOL; a draw must never land past the last
    cum[:, -1] = 1.0
    draws = np.random.default_rng(seed).random(len(labels))
    return (draws[:, None] >= cum[labels]).sum(axis=1).astype(np.int64)


def inject_rules(ds: Dataset, rules: RuleSet) -> Dataset:
    """Assign noisy labels by first-match keyword rules over tokens.

    Matching is case-insensitive whole-token, first rule wins. Examples where
    no rule fires keep their clean label when abstain_to_clean, else they are
    dropped. The induced noise is feature-dependent by construction.
    """
    if not rules.rules:
        raise ConfigError("empty rule set")
    if ds.clean_labels is None:
        raise ConfigError("rule injection needs clean labels")
    for kw, c in rules.rules:
        if c >= ds.k:
            raise DomainError(f"rule class {c} out of range for k={ds.k}")
    keywords = [(kw.lower(), c) for kw, c in rules.rules]
    noisy = []
    keep = []
    for i, ex in enumerate(ds.examples):
        toks = set(tokenize(ex.text))
        for kw, c in keywords:
            if kw in toks:
                noisy.append(c)
                keep.append(i)
                break
        else:
            if rules.abstain_to_clean:
                noisy.append(int(ds.clean_labels[i]))
                keep.append(i)
    out = ds if len(keep) == len(ds) else ds.subset(np.array(keep, dtype=np.int64))
    return dataclasses.replace(out, noisy_labels=np.array(noisy, dtype=np.int64))


def fdr(clean, noisy) -> float:
    """Fraction of positions where the noisy label is wrong (1 - precision)."""
    clean = np.asarray(clean)
    noisy = np.asarray(noisy)
    if clean.shape != noisy.shape:
        raise ShapeError(f"length mismatch: {clean.shape} vs {noisy.shape}")
    return float(np.mean(clean != noisy))


def diag_dominant(T: TransitionMatrix) -> bool:
    """True iff every diagonal entry strictly beats its row's off-diagonals."""
    rows = T.rows
    off = rows - np.diag(np.diag(rows))
    return bool(np.all(np.diag(rows) > off.max(axis=1)))
