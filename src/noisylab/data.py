"""Dataset containers, JSONL ingestion, splitting, and hashed text features.

A Dataset carries examples with an optional pair of aligned label sequences:
the true (clean) labels and the corrupted (noisy) labels. Features are one
CSR matrix of sparse non-negative rows, built once either from hashed n-gram
counts over text or by the synthetic generator used in experiments. Hashed
features can be compacted to the hash buckets the examples use.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ParseError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# FNV-1a, 64-bit. Seedless by design: feature indices must be identical
# across runs and platforms.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_TAIL = 32  # live strings below which a byte loop beats an array pass


def fnv1a_64(strings) -> np.ndarray:
    """The FNV-1a hash of each string's UTF-8 bytes, as a uint64 array.

    One array pass per byte position while more than ``_FNV_TAIL`` strings
    still have a byte there; uint64 arithmetic wraps mod 2^64 as the hash
    does. The few longer strings are then finished one byte at a time, so the
    cost is bounded by the total bytes. The strings are taken longest first,
    so those with a byte at a position are a prefix of them.
    """
    encoded = [s.encode("utf-8") for s in strings]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    live = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0) + 1))
    cut = int(np.count_nonzero(live > _FNV_TAIL))  # live ends in 0, so live[cut] exists
    buf = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    h = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    for pos, n in enumerate(live[:cut].tolist()):
        h[:n] ^= buf[starts[:n] + pos]
        h[:n] *= _FNV_PRIME
    for i in range(live[cut]):
        value = int(h[i])
        for byte in encoded[order[i]][cut:]:
            value = (value ^ byte) * _FNV_PRIME % 2**64
        h[i] = value
    out = np.empty_like(h)
    out[order] = h
    return out


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
    buckets: np.ndarray | None = None  # each column's hash bucket, once compacted
    hash_dims: int | None = None  # the hash width the buckets index

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        if 8 * self.k * self.k > np.iinfo(np.intp).max:
            raise ConfigError(f"k={self.k} is too large for a k x k noise matrix")
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
                raise ConfigError(f"{name} has length {len(labels)}, expected {n}")
            if n and (labels.min() < 0 or labels.max() >= self.k):
                bad = int(np.argmax((labels < 0) | (labels >= self.k)))
                raise ConfigError(
                    f"label {labels[bad]} out of range [0,{self.k}) "
                    f"for example {self.examples[bad].id!r}"
                )
        ids = [ex.id for ex in self.examples]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate example ids in dataset")
        if self.X is not None and self.X.shape[0] != n:
            raise ConfigError(f"X has {self.X.shape[0]} rows, expected {n}")

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def dims(self) -> int | None:
        """Number of feature columns; None before featurization. After
        ``compact_columns`` it counts the used hash buckets, not ``hash_dims``."""
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


def read_jsonl(path):
    """``(line number, record)`` for each non-blank line of a JSONL file; a line
    that is not one JSON object is a ``ParseError`` naming the file and line."""
    with open(path, "rb") as f:  # json decodes the bytes, so bad UTF-8 is a ValueError
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
                raise ParseError(f"{path}: line {lineno}: {e}") from None
            if not isinstance(rec, dict):
                raise ParseError(f"{path}: line {lineno}: not a JSON object")
            yield lineno, rec


def json_int(value, what: str) -> int:
    if type(value) is not int or abs(value) >= 2**63:
        raise ParseError(f"{what} must be a 64-bit integer, got {json.dumps(value)}")
    return value


def load_jsonl(path, k: int) -> Dataset:
    """Read a JSONL dataset; each record has id, text, and >=1 label field."""
    examples = []
    labels = {"clean_label": [], "noisy_label": []}
    for lineno, rec in read_jsonl(path):
        where = f"{path}: line {lineno}"
        if "id" not in rec or not isinstance(rec.get("text"), str):
            raise ParseError(f"{where}: needs an id and a string text")
        if not labels.keys() & rec.keys():
            raise ParseError(f"{where}: no label field")
        for field, acc in labels.items():
            if field in rec:
                acc.append(json_int(rec[field], f"{where}: {field}"))
        examples.append(Example(id=str(rec["id"]), text=rec["text"]))
    n = len(examples)
    for field, acc in labels.items():
        if acc and len(acc) != n:
            raise ParseError(f"{path}: {field} present on only {len(acc)}/{n} lines")
    clean, noisy = (np.array(acc, dtype=np.int64) if acc else None for acc in labels.values())
    return Dataset(examples=tuple(examples), k=k, clean_labels=clean, noisy_labels=noisy)


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


def split(ds: Dataset, train: float = 0.8, val: float = 0.1, test: float = 0.1,
          seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle then partition; floor-rounded sizes, remainder to train.
    Every fraction must be > 0 and they must sum to 1."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    fractions = (train, val, test)
    if not all(f > 0 for f in fractions):
        raise ConfigError(f"fractions must be > 0, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions sum to {sum(fractions)}, not 1")
    n = len(ds)
    if n == 0:
        raise ConfigError("cannot split an empty dataset")
    n_val = int(math.floor(val * n))
    n_test = int(math.floor(test * n))
    n_train = n - n_val - n_test
    for name, f, size in (("val", val, n_val), ("test", test, n_test), ("train", train, n_train)):
        if size == 0:
            raise ConfigError(f"{name} fraction {f} yields empty split at n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return (
        ds.subset(perm[:n_train]),
        ds.subset(perm[n_train : n_train + n_val]),
        ds.subset(perm[n_train + n_val :]),
    )


def featurize(ds: Dataset, dims: int = 2**18) -> Dataset:
    """``ds`` with ``X`` set to hashed unigram+bigram counts, L2-normalized rows.

    Deterministic for fixed (text, dims); the hash is seedless FNV-1a. The
    corpus's grams are hashed together and counted with one ``np.unique``.
    """
    n = len(ds)
    _check_width(dims, n, "dims")
    grams, per_row = [], []
    for ex in ds.examples:
        if not ex.text:
            raise ConfigError(f"example {ex.id!r} has empty text")
        toks = tokenize(ex.text)
        grams += toks
        grams += [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        per_row.append(max(2 * len(toks) - 1, 0))
    rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
    cols = (fnv1a_64(grams) & np.uint64(dims - 1)).astype(np.int64)
    keys, counts = np.unique(rows * dims + cols, return_counts=True)  # row-major, columns ascending
    rows = keys // dims
    counts = counts.astype(np.float64)  # small integers: the squared sums are exact
    norms = np.sqrt(np.bincount(rows, weights=counts * counts, minlength=n))
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=n)))
    X = sp.csr_matrix((counts / norms[rows], keys % dims, indptr), shape=(n, dims))
    return dataclasses.replace(ds, X=X)


def _check_width(dims: int, n: int, what: str) -> None:
    """Reject a hash width ``dims``, named ``what``, that is not a power of two
    or whose keys over ``n`` rows, row * dims + column, overflow an int64."""
    if dims < 1 or dims & (dims - 1):
        raise ConfigError(f"{what} must be a power of two, got {dims}")
    if max(n, 1) * dims >= 2**63:
        raise ConfigError(f"{what} {dims} is too wide for {n} examples")


def load_text(path: str, k: int, featurize_dims: int = 2**18) -> Dataset:
    """A JSONL text dataset, featurized and compacted to the buckets it uses."""
    ds = load_jsonl(path, k)
    _check_width(featurize_dims, len(ds), "featurize_dims")
    return compact_columns(featurize(ds, featurize_dims))


def compact_columns(ds: Dataset) -> Dataset:
    """``ds`` with ``X`` over only the columns some example uses, renumbered in
    ascending order, so each row keeps its entries in the same order. Records
    each new column's old index in ``buckets`` and the old width in ``hash_dims``."""
    X = feature_matrix(ds)
    used, cols = np.unique(X.indices, return_inverse=True)
    X = sp.csr_matrix((X.data, cols, X.indptr), shape=(X.shape[0], len(used)))
    return dataclasses.replace(ds, X=X, buckets=used, hash_dims=ds.dims)


def synth_dataset(
    k: int,
    n: int,
    margin: float,
    seed: int,
    dims: int = 1024,
    *,
    proto_size: int = 16,
    noise_size: int = 16,
) -> Dataset:
    """Synthetic classification data: class prototypes plus seeded perturbation.

    Each class owns a disjoint block of prototype indices with weight 1; each
    example additionally activates a few random indices with weights scaled by
    (1 - margin). At margin=1 examples equal their prototypes and the data is
    linearly separable. Vectors are L2-normalized; clean labels are balanced.
    Each example's extras are a ``choice`` of ``noise_size`` of the ``dims``
    indices without replacement, then ``noise_size`` weights from ``random``;
    ``_noise_draws`` gives all examples' draws, byte for byte, from one bulk
    draw. The rows are built as arrays.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if not 0 < margin <= 1:
        raise ConfigError(f"margin must be in (0,1], got {margin}")
    if n < k:
        raise ConfigError(f"need n >= k, got n={n}, k={k}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if proto_size < 0:
        raise ConfigError(f"proto_size must be >= 0, got {proto_size}")
    if not 0 <= noise_size <= dims:
        raise ConfigError(f"noise_size must be in [0, dims={dims}], got {noise_size}")
    if dims < 2 * k * proto_size:
        raise ConfigError("dims too small for the requested prototypes")
    if 8 * max(n, dims, n * (proto_size + noise_size)) > np.iinfo(np.intp).max:
        raise ConfigError(f"n={n} with dims={dims} needs an array too large to allocate")
    rng = np.random.default_rng(seed)
    protos = rng.permutation(dims)[: k * proto_size].reshape(k, proto_size)
    labels = rng.permuted(np.arange(n) % k)
    extra_idx, extra_w = _noise_draws(rng, n, dims, noise_size)
    extra_w *= 1.0 - margin
    # Each row in insertion order: its prototype columns with weight 1, then its
    # extras. An extra on a prototype column adds to it and leaves 0 in its slot.
    protos = protos[labels]
    cols = np.concatenate([protos, extra_idx], axis=1)
    W = np.concatenate([np.ones(protos.shape), extra_w], axis=1)
    rows, hit, at = np.nonzero(extra_idx[:, :, None] == protos[:, None, :])
    W[rows, at] += extra_w[rows, hit]
    W[rows, proto_size + hit] = 0.0
    sq = np.zeros(n)
    for col in W.T:  # left to right, as a Python sum of the squares; a 0 adds nothing
        sq += col * col
    order = np.argsort(cols, axis=1)
    cols, W = np.take_along_axis(cols, order, 1), np.take_along_axis(W, order, 1)
    keep = W > 0
    counts = keep.sum(axis=1)
    data = W[keep] / np.repeat(np.sqrt(sq), counts)
    X = sp.csr_matrix((data, cols[keep], np.append(0, np.cumsum(counts))), shape=(n, dims))
    return Dataset(
        examples=tuple(Example(id=f"synth-{i}", text="") for i in range(n)),
        k=k,
        clean_labels=labels.astype(np.int64),
        X=X,
    )


def _noise_draws(rng: np.random.Generator, n: int, dims: int, size: int):
    """The (n, size) indices and weights of ``n`` rows that each call
    ``rng.choice(dims, size, replace=False)`` then ``rng.random(size)``, with
    ``rng`` left as those calls leave it. ``0 <= size <= dims`` and ``rng``
    is a PCG64 generator.

    One ``random_raw`` call, then array passes that replay numpy 2's
    algorithm on the raw outputs. ``choice`` picks by Floyd's algorithm: for
    j from dims - size to dims - 1 it draws a value in [0, j] and takes j if
    the row holds that value already. It then shuffles the row by
    Fisher-Yates, drawing in [0, i] for i from size - 1 down to 1. A draw in
    [0, b] is Lemire's: a 32-bit half of a raw output times b + 1, shifted
    right 32 bits. The low half serves first; the high half is kept in
    ``has_uint32``/``uinteger`` for the next draw, in this row or the next.
    A draw in [0, 0] takes nothing. Each weight takes a whole raw output as
    ``(raw >> 11) * 2**-53``.

    Lemire draws again when the product's low 32 bits fall below
    2**32 mod (b + 1). numpy shuffles the tail of an arange instead when
    dims > 10000 and size > dims // 50, and draws 64 bits for b >= 2**32
    (b = 2**32 - 1 takes a half as it is, as the product does). Those inputs
    run the calls row by row, from the state the replay found.
    """
    if dims > 2**32 or (dims > 10000 and size > dims // 50):
        return _noise_loop(rng, n, dims, size)
    bitgen = rng.bit_generator
    saved = bitgen.state
    buffered = saved["has_uint32"]
    floyd = np.arange(max(dims - size, 1), dims, dtype=np.uint64)  # a first j of 0 draws nothing
    spans = np.concatenate([floyd, np.arange(size - 1, 0, -1, dtype=np.uint64)]) + np.uint64(1)
    per_row = len(spans)
    draws = n * per_row
    # Row i's raw outputs: those whose low half its draws take, then its weights.
    halves_before = (np.arange(n + 1) * per_row - buffered + 1) // 2
    counts = np.column_stack([np.diff(halves_before), np.full(n, size)]).ravel()
    is_weight = np.repeat(np.tile([False, True], n), counts)
    # The results are allocated before the temporaries, so that they do not
    # sit between the blocks the temporaries free.
    idx = np.empty((n, size), dtype=np.int64)
    weights = np.empty((n, size))
    raw = bitgen.random_raw(halves_before[-1] + n * size)
    bits = raw[is_weight]
    bits >>= 11
    np.multiply(bits, 2.0**-53, out=weights.reshape(-1))
    del bits
    raw = raw[~is_weight]
    halves = np.empty(buffered + 2 * len(raw), dtype=np.uint64)  # each below 2**32
    halves[:buffered] = saved["uinteger"]
    halves[buffered::2] = raw
    halves[buffered::2] &= 0xFFFFFFFF
    raw >>= 32
    halves[buffered + 1 :: 2] = raw
    del raw, is_weight
    last = int(halves[-1]) if len(halves) else saved["uinteger"]  # before the product overwrites it
    product = halves[:draws].reshape(n, per_row)
    product *= spans
    if (product.astype(np.uint32) < 2**32 % spans).any():  # a rejection: Lemire draws again
        bitgen.state = saved
        return _noise_loop(rng, n, dims, size)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = len(halves) - draws, last
    bitgen.state = state
    product >>= 32
    picks = product.astype(np.uint32)
    del halves, product
    # Floyd: step p draws v_p in [0, base + p]. v_p is held already when an
    # earlier step drew it, or when it is base + q for an earlier step q that
    # took its own j; follow those links by pointer jumping.
    base = dims - size
    steps = np.arange(size)
    idx[:, : size - len(floyd)] = 0
    idx[:, size - len(floyd) :] = picks[:, : len(floyd)]
    order = np.argsort(idx, axis=1, kind="stable")
    ranked = np.take_along_axis(idx, order, 1)
    held_already = np.zeros((n, size), dtype=bool)
    np.put_along_axis(held_already, order[:, 1:], ranked[:, 1:] == ranked[:, :-1], 1)
    del order, ranked
    starts = np.arange(n) * size
    link = idx - base
    linked = (link >= 0) & (link < steps)
    np.copyto(link, steps, where=~linked)  # an unlinked step links to itself
    link += starts[:, None]
    link = link.ravel()  # flat positions
    nodes = np.flatnonzero(linked)
    del linked
    flat_held = held_already.ravel()
    for _ in range((size - 1).bit_length()):
        flat_held[nodes] |= flat_held[link[nodes]]
        link[nodes] = link[link[nodes]]
    np.copyto(idx, base + steps, where=held_already)
    del link, held_already
    # Fisher-Yates, one step for every row at a time.
    flat = idx.ravel()
    for col, i in enumerate(range(size - 1, 0, -1), len(floyd)):
        a, b = starts + picks[:, col], starts + i
        flat[a], flat[b] = flat[b], flat[a]
    return idx, weights


def _noise_loop(rng: np.random.Generator, n: int, dims: int, size: int):
    """``_noise_draws`` by numpy's own calls, one row at a time."""
    idx = np.empty((n, size), dtype=np.int64)
    weights = np.empty((n, size))
    for i in range(n):
        idx[i] = rng.choice(dims, size=size, replace=False)
        weights[i] = rng.random(size)
    return idx, weights


def feature_matrix(ds: Dataset) -> sp.csr_matrix:
    """The dataset's (n, dims) CSR features."""
    if ds.X is None:
        raise ConfigError("dataset is not featurized")
    return ds.X
