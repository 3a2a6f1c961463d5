import dataclasses

import numpy as np
import pytest

import noisylab as nl
from noisylab.data import Dataset, Example


def keyword_corpus(k=4, n=3000, ambiguous_frac=0.3, words_per_class=40, seed=0):
    """Synthetic gazetteer corpus: each class has its own vocabulary and a
    keyword (word 0). A fraction of texts are genuinely ambiguous: they mix in
    wrong-class words including that class's keyword, so keyword rules
    mislabel exactly those examples (feature-dependent noise)."""
    rng = np.random.default_rng(seed)
    labels = rng.permuted(np.arange(n) % k)
    examples = []
    for i in range(n):
        y = int(labels[i])
        z = (y + 1) % k
        if rng.random() < ambiguous_frac:
            toks = [f"c{y}w{j}" for j in rng.integers(1, words_per_class, 4)]
            toks += [f"c{z}w{j}" for j in rng.integers(1, words_per_class, 3)]
            toks.append(f"c{z}w0")
        else:
            toks = [f"c{y}w{j}" for j in rng.integers(1, words_per_class, 8)]
            if rng.random() < 0.5:
                toks.append(f"c{y}w0")
        rng.shuffle(toks)
        examples.append(Example(id=f"kw-{i}", text=" ".join(toks)))
    return Dataset(examples=tuple(examples), k=k, clean_labels=labels.astype(np.int64))


def keyword_rules(k=4):
    return nl.RuleSet(rules=tuple((f"c{j}w0", j) for j in range(k)), abstain_to_clean=True)


def with_noise(ds, eps, seed, kind="uniform"):
    """Attach uniform/single-flip noisy labels to a clean dataset."""
    if kind == "uniform":
        T = nl.uniform_matrix(ds.k, eps)
    else:
        T = nl.single_flip_matrix(ds.k, eps)
    return dataclasses.replace(ds, noisy_labels=nl.inject(ds.clean_labels, T, seed))


def mann_whitney_auc(losses, is_wrong):
    """Brute-force pairwise oracle: fraction of (wrong, correct) pairs with
    loss_wrong > loss_correct, ties counted 1/2."""
    losses = np.asarray(losses, dtype=float)
    is_wrong = np.asarray(is_wrong, dtype=bool)
    wrong = losses[is_wrong]
    correct = losses[~is_wrong]
    total = 0.0
    for lw in wrong:
        for lc in correct:
            if lw > lc:
                total += 1.0
            elif lw == lc:
                total += 0.5
    return total / (len(wrong) * len(correct))


def dense_probs(p, row):
    """Independent single-example forward pass: a 1-row CSR matrix densified
    to a numpy row, through the weights, then a max-shifted softmax."""
    z = row.toarray()[0] @ p.w1 + p.b1
    if p.arch == "mlp":
        z = np.tanh(z) @ p.w2 + p.b2
    e = np.exp(z - z.max())
    return e / e.sum()


def row_loss(loss_fn, probs, label):
    """Per-sample loss of one example under a vectorized loss functional."""
    return float(loss_fn.per_sample(np.asarray(probs)[None, :], np.array([label]))[0][0])


@pytest.fixture
def small_noisy_splits():
    """Small featurized train/val/test with 40% uniform noise on train+val."""
    ds = nl.synth_dataset(k=4, n=400, margin=0.8, seed=1)
    tr, va, te = nl.split(ds, nl.SplitSpec((0.8, 0.1, 0.1), seed=2))
    tr = with_noise(tr, 0.4, seed=3)
    va = with_noise(va, 0.4, seed=4)
    return tr, va, te
