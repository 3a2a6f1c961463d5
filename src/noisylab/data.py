"""Dataset containers, JSONL ingestion, splitting, and hashed text features.

A Dataset carries examples with an optional pair of aligned label sequences:
the true (clean) labels and the corrupted (noisy) labels. Features are one
CSR matrix of sparse non-negative rows, built once either from hashed n-gram
counts over text or by the synthetic generator used in experiments.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DomainError, ParseError, ShapeError, SizeError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# FNV-1a, 64-bit. Seedless by design: feature indices must be identical
# across runs and platforms.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(s: str) -> int:
    h = _FNV_OFFSET
    for b in s.encode("utf-8"):
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Example:
    id: str
    text: str


@dataclass(frozen=True)
class Dataset:
    examples: tuple[Example, ...]
    k: int
    clean_labels: np.ndarray | None = None
    noisy_labels: np.ndarray | None = None
    X: sp.csr_matrix | None = None

    def __post_init__(self):
        if self.k < 2:
            raise DomainError(f"k must be >= 2, got {self.k}")
        if self.clean_labels is None and self.noisy_labels is None:
            raise ConfigError("dataset needs at least one label sequence")
        n = len(self.examples)
        for name in ("clean_labels", "noisy_labels"):
            labels = getattr(self, name)
            if labels is None:
                continue
            labels = np.asarray(labels, dtype=np.int64)
            object.__setattr__(self, name, labels)
            if len(labels) != n:
                raise ShapeError(f"{name} has length {len(labels)}, expected {n}")
            if n and (labels.min() < 0 or labels.max() >= self.k):
                bad = int(np.argmax((labels < 0) | (labels >= self.k)))
                raise DomainError(
                    f"label {labels[bad]} out of range [0,{self.k}) "
                    f"for example {self.examples[bad].id!r}"
                )
        ids = [ex.id for ex in self.examples]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate example ids in dataset")
        if self.X is not None and self.X.shape[0] != n:
            raise ShapeError(f"X has {self.X.shape[0]} rows, expected {n}")

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def dims(self) -> int | None:
        """Feature dimensionality; None before featurization."""
        return None if self.X is None else self.X.shape[1]

    def labels(self, use: str) -> np.ndarray:
        """Select the clean or noisy label sequence by name."""
        if use not in ("clean", "noisy"):
            raise ConfigError(f"unknown label selector {use!r}")
        labels = self.clean_labels if use == "clean" else self.noisy_labels
        if labels is None:
            raise ConfigError(f"dataset has no {use} labels")
        return labels

    def subset(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx)
        return dataclasses.replace(
            self,
            examples=tuple(self.examples[i] for i in idx),
            clean_labels=None if self.clean_labels is None else self.clean_labels[idx],
            noisy_labels=None if self.noisy_labels is None else self.noisy_labels[idx],
            X=None if self.X is None else self.X[idx],
        )


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        if any(f < 0 for f in self.fractions):
            raise DomainError("split fractions must be non-negative")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise DomainError(f"split fractions sum to {sum(self.fractions)}, not 1")


def load_jsonl(path, k: int) -> Dataset:
    """Read a JSONL dataset; each record has id, text, and >=1 label field."""
    examples = []
    clean, noisy = [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}: line {lineno}: {e}") from e
            if "id" not in rec or "text" not in rec:
                raise ParseError(f"{path}: line {lineno}: missing id or text")
            if "clean_label" not in rec and "noisy_label" not in rec:
                raise ParseError(f"{path}: line {lineno}: no label field")
            for field, acc in (("clean_label", clean), ("noisy_label", noisy)):
                if field in rec:
                    lab = int(rec[field])
                    if not 0 <= lab < k:
                        raise DomainError(
                            f"label {lab} out of range [0,{k}) for example {rec['id']!r}"
                        )
                    acc.append(lab)
            examples.append(Example(id=str(rec["id"]), text=rec["text"]))
    n = len(examples)
    if clean and len(clean) != n:
        raise ParseError(f"{path}: clean_label present on only {len(clean)}/{n} lines")
    if noisy and len(noisy) != n:
        raise ParseError(f"{path}: noisy_label present on only {len(noisy)}/{n} lines")
    return Dataset(
        examples=tuple(examples),
        k=k,
        clean_labels=np.array(clean, dtype=np.int64) if clean else None,
        noisy_labels=np.array(noisy, dtype=np.int64) if noisy else None,
    )


def write_jsonl(ds: Dataset, path) -> None:
    """Inverse of load_jsonl; key order id, text, clean_label, noisy_label."""
    with open(path, "w", encoding="utf-8") as f:
        for i, ex in enumerate(ds.examples):
            rec = {"id": ex.id, "text": ex.text}
            if ds.clean_labels is not None:
                rec["clean_label"] = int(ds.clean_labels[i])
            if ds.noisy_labels is not None:
                rec["noisy_label"] = int(ds.noisy_labels[i])
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle then partition; floor-rounded sizes, remainder to train."""
    n = len(ds)
    if n == 0:
        raise SizeError("cannot split an empty dataset")
    f_train, f_val, f_test = spec.fractions
    n_val = int(math.floor(f_val * n))
    n_test = int(math.floor(f_test * n))
    n_train = n - n_val - n_test
    if f_val > 0 and n_val == 0:
        raise SizeError(f"val fraction {f_val} yields empty split at n={n}")
    if f_test > 0 and n_test == 0:
        raise SizeError(f"test fraction {f_test} yields empty split at n={n}")
    if f_train > 0 and n_train == 0:
        raise SizeError(f"train fraction {f_train} yields empty split at n={n}")
    perm = np.random.default_rng(spec.seed).permutation(n)
    return (
        ds.subset(perm[:n_train]),
        ds.subset(perm[n_train : n_train + n_val]),
        ds.subset(perm[n_train + n_val :]),
    )


def featurize(ds: Dataset, dims: int = 2**18) -> Dataset:
    """``ds`` with ``X`` set to hashed unigram+bigram counts, L2-normalized rows.

    Deterministic for fixed (text, dims); the hash is seedless FNV-1a.
    """
    if dims < 1 or dims & (dims - 1):
        raise ConfigError(f"dims must be a power of two, got {dims}")
    mask = dims - 1
    vecs = []
    for ex in ds.examples:
        if not ex.text:
            raise ConfigError(f"example {ex.id!r} has empty text")
        toks = tokenize(ex.text)
        grams = toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        vec: dict[int, float] = {}
        for g in grams:
            idx = fnv1a_64(g) & mask
            vec[idx] = vec.get(idx, 0.0) + 1.0
        vecs.append(vec)
    return dataclasses.replace(ds, X=_stack_rows(vecs, dims))


def synth_dataset(
    k: int,
    n: int,
    margin: float,
    seed: int,
    dims: int = 1024,
    proto_size: int = 16,
    noise_size: int = 16,
) -> Dataset:
    """Synthetic classification data: class prototypes plus seeded perturbation.

    Each class owns a disjoint block of prototype indices with weight 1; each
    example additionally activates a few random indices with weights scaled by
    (1 - margin). At margin=1 examples equal their prototypes and the data is
    linearly separable. Vectors are L2-normalized; clean labels are balanced.
    """
    if not 0 < margin <= 1:
        raise DomainError(f"margin must be in (0,1], got {margin}")
    if n < k:
        raise SizeError(f"need n >= k, got n={n}, k={k}")
    if dims < 2 * k * proto_size:
        raise ConfigError("dims too small for the requested prototypes")
    rng = np.random.default_rng(seed)
    proto_pool = rng.permutation(dims)[: k * proto_size]
    protos = [proto_pool[c * proto_size : (c + 1) * proto_size] for c in range(k)]
    labels = rng.permuted(np.arange(n) % k)
    scale = 1.0 - margin
    vecs = []
    for i in range(n):
        y = labels[i]
        vec = {int(j): 1.0 for j in protos[y]}
        extra_idx = rng.choice(dims, size=noise_size, replace=False)
        extra_w = rng.random(noise_size) * scale
        for j, w in zip(extra_idx, extra_w):
            if w > 0:
                vec[int(j)] = vec.get(int(j), 0.0) + float(w)
        vecs.append(vec)
    return Dataset(
        examples=tuple(Example(id=f"synth-{i}", text="") for i in range(n)),
        k=k,
        clean_labels=labels.astype(np.int64),
        X=_stack_rows(vecs, dims),
    )


def _stack_rows(vecs: list[dict[int, float]], dims: int) -> sp.csr_matrix:
    """L2-normalize sparse vectors and stack them as CSR rows, columns ascending."""
    data, indices, indptr = [], [], [0]
    for vec in vecs:
        norm = math.sqrt(sum(w * w for w in vec.values()))
        for i in sorted(vec):
            indices.append(i)
            data.append(vec[i] / norm)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(len(vecs), dims),
    )


def feature_matrix(ds: Dataset) -> sp.csr_matrix:
    """The dataset's (n, dims) CSR features."""
    if ds.X is None:
        raise ConfigError("dataset is not featurized")
    return ds.X
