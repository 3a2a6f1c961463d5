"""Noise transition matrices, label corruption, and realized-noise measurement.

Two parametric corruption families (uniform-flip and single-flip), empirical
matrix estimation from clean/noisy label pairs, rule-based feature-dependent
corruption over text, plus the false-discovery-rate and diagonal-dominance
audits.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, json_int, read_jsonl, tokenize
from .errors import ConfigError, ParseError

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
            raise ConfigError(f"expected shape ({self.k},{self.k}), got {rows.shape}")
        outside = ~((rows >= 0) & (rows <= 1))  # NaN is outside too
        if np.any(outside):
            i = int(np.argmax(np.any(outside, axis=1)))
            raise ConfigError(f"row {i} has an entry outside [0,1]")
        sums = rows.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ConfigError(f"row {i} sums to {sums[i]}, not 1")

    @classmethod
    def load_csv(cls, path) -> "TransitionMatrix":
        """The matrix in a CSV file of k rows of k numbers; a file that is not
        rows of numbers is a ``ParseError``."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # numpy warns on an empty file
                rows = np.loadtxt(path, delimiter=",", ndmin=2)
        except (ValueError, UserWarning) as e:
            raise ParseError(f"{path}: not a CSV matrix: {e}") from None
        return cls(k=rows.shape[0], rows=rows)


@dataclass(frozen=True)
class RuleSet:
    """Ordered keyword -> class rules; a gazetteer-style weak labeler."""

    rules: tuple[tuple[str, int], ...]
    abstain_to_clean: bool = True

    def __post_init__(self):
        for kw, c in self.rules:
            if tokenize(kw) != [kw.lower()]:  # inject_rules matches whole tokens only
                raise ConfigError(f"rule keyword {kw!r} is not one token, so it never matches")
            if c < 0:
                raise ConfigError(f"negative class in rule ({kw!r}, {c})")

    @classmethod
    def load_jsonl(cls, path, abstain_to_clean: bool = True) -> "RuleSet":
        rules = []
        for lineno, rec in read_jsonl(path):
            where = f"{path}: line {lineno}"
            if "keyword" not in rec:
                raise ParseError(f"{where}: missing 'keyword'")
            if not isinstance(kw := rec["keyword"], str):
                raise ParseError(f"{where}: keyword must be a string, got {json.dumps(kw)}")
            rules.append((kw, json_int(rec.get("class"), f"{where}: class")))
        return cls(rules=tuple(rules), abstain_to_clean=abstain_to_clean)


def check_level(level: float) -> float:
    """A noise level, which must be in [0,1)."""
    if not 0 <= level < 1:
        raise ConfigError(f"level must be in [0,1), got {level}")
    return level


def uniform_matrix(k: int, level: float) -> TransitionMatrix:
    """Keep the label w.p. 1-level, spread level evenly over the k-1 wrong classes."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    check_level(level)
    rows = np.full((k, k), level / (k - 1))
    np.fill_diagonal(rows, 1.0 - level)
    return TransitionMatrix(k=k, rows=rows)


def single_flip_matrix(k: int, level: float) -> TransitionMatrix:
    """Send level mass of each class i to the one wrong class (i+1) mod k."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    check_level(level)
    rows = np.zeros((k, k))
    for i in range(k):
        rows[i, i] = 1.0 - level
        rows[i, (i + 1) % k] = level
    return TransitionMatrix(k=k, rows=rows)


def matrix_from_pairs(clean, noisy, k: int) -> TransitionMatrix:
    """Empirical transition matrix from aligned clean/noisy label pairs.

    Classes absent from the clean sequence get a one-hot self row.
    """
    clean = np.asarray(clean, dtype=np.int64)
    noisy = np.asarray(noisy, dtype=np.int64)
    if clean.shape != noisy.shape or clean.ndim != 1 or len(clean) == 0:
        raise ConfigError(f"need equal-length nonempty sequences, got {clean.shape} and {noisy.shape}")
    if min(clean.min(), noisy.min()) < 0 or max(clean.max(), noisy.max()) >= k:
        raise ConfigError(f"label out of range for k={k}")
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
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) and (labels.min() < 0 or labels.max() >= T.k):
        raise ConfigError("label out of range for transition matrix")
    cum = np.cumsum(T.rows, axis=1)
    # rows may sum to 1 within ROW_SUM_TOL; a draw must never land past the last
    cum[:, -1] = 1.0
    draws = np.random.default_rng(seed).random(len(labels))
    return (draws[:, None] >= cum[labels]).sum(axis=1).astype(np.int64)


def inject_rules(ds: Dataset, rules: RuleSet) -> Dataset:
    """Assign noisy labels by first-match keyword rules over tokens.

    Matching is case-insensitive whole-token, first rule wins. Examples where
    no rule fires keep their clean label when abstain_to_clean, else they are
    dropped. The induced noise is feature-dependent by construction. A
    synthetic dataset, which has no text, and an example with empty text are
    rejected.
    """
    if not rules.rules:
        raise ConfigError("empty rule set")
    if ds.clean_labels is None:
        raise ConfigError("rule injection needs clean labels")
    for kw, c in rules.rules:
        if c >= ds.k:
            raise ConfigError(f"rule class {c} out of range for k={ds.k}")
    keywords = [(kw.lower(), c) for kw, c in rules.rules]
    noisy = []
    keep = []
    for i, text in enumerate(ds.text_list()):
        if not text:
            raise ConfigError(f"rule noise needs text; example {ds.ids[i]!r} has none")
        toks = set(tokenize(text))
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
        raise ConfigError(f"length mismatch: {clean.shape} vs {noisy.shape}")
    return float(np.mean(clean != noisy))


def diag_dominant(T: TransitionMatrix) -> bool:
    """True iff every diagonal entry strictly beats its row's off-diagonals."""
    rows = T.rows
    off = rows - np.diag(np.diag(rows))
    return bool(np.all(np.diag(rows) > off.max(axis=1)))
