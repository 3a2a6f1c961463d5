import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import noisylab as nl
from noisylab.diagnostics import LossSnapshot
from noisylab.errors import ConfigError, DegenerateClassError, SizeError
from noisylab.model import Params
from conftest import dense_probs, mann_whitney_auc, with_noise


def _snap(losses, is_wrong):
    return LossSnapshot(losses=np.asarray(losses, float), is_wrong=np.asarray(is_wrong, bool), step=0)


class TestSnapshotLosses:
    def test_matches_per_example_loop(self):
        ds = with_noise(nl.synth_dataset(k=3, n=40, margin=0.7, seed=30, dims=128), 0.3, seed=31)
        p = nl.init_params(128, 3, seed=32)
        snap = nl.snapshot_losses(p, ds)
        for i in range(len(ds)):
            probs = dense_probs(p, ds.X[i])
            expected = -np.log(max(probs[ds.noisy_labels[i]], 1e-12))
            assert snap.losses[i] == pytest.approx(expected, abs=1e-12)
            assert snap.is_wrong[i] == (ds.noisy_labels[i] != ds.clean_labels[i])

    def test_perfect_fit_all_zero(self):
        # one exclusive feature per example lets a linear model saturate
        # toward every noisy label
        n, k = 16, 2
        rng = np.random.default_rng(33)
        clean = rng.integers(0, k, n)
        examples = tuple(nl.Example(id=str(i), text="") for i in range(n))
        ds = nl.Dataset(
            examples=examples, k=k, clean_labels=clean, X=sp.identity(n, format="csr")
        )
        ds = with_noise(ds, 0.3, seed=34)
        w = np.zeros((n, k))
        for i, y in enumerate(ds.noisy_labels):
            w[i, y] = 1e6
        p = Params(arch="linear", dims=n, k=k, w1=w, b1=np.zeros(k))
        snap = nl.snapshot_losses(p, ds)
        assert np.all(snap.losses < 1e-9)

    def test_needs_clean_labels(self):
        ds = with_noise(nl.synth_dataset(k=2, n=10, margin=1.0, seed=35, dims=128), 0.3, seed=36)
        ds = dataclasses.replace(ds, clean_labels=None)
        with pytest.raises(ConfigError):
            nl.snapshot_losses(nl.init_params(128, 2, seed=0), ds)


class TestHistogram:
    def test_identical_losses_single_bin(self):
        edges, correct, wrong = nl.histogram(_snap([2.0] * 10, [False] * 5 + [True] * 5), bins=4)
        assert np.count_nonzero(correct) == 1
        assert np.count_nonzero(wrong) == 1
        assert correct.sum() + wrong.sum() == 10

    def test_counts_partition_n(self):
        rng = np.random.default_rng(37)
        losses = rng.random(100) * 3
        is_wrong = rng.random(100) < 0.4
        _, correct, wrong = nl.histogram(_snap(losses, is_wrong), bins=7)
        assert correct.sum() + wrong.sum() == 100

    def test_constructed_zero_overlap(self):
        losses = [0.1, 0.2, 0.3, 1.2, 1.5, 1.9]
        is_wrong = [False, False, False, True, True, True]
        _, correct, wrong = nl.histogram(_snap(losses, is_wrong), bins=4)
        occupied_correct = set(np.nonzero(correct)[0])
        occupied_wrong = set(np.nonzero(wrong)[0])
        assert not occupied_correct & occupied_wrong

    def test_permutation_invariant(self):
        rng = np.random.default_rng(38)
        losses = rng.random(60)
        is_wrong = rng.random(60) < 0.5
        perm = rng.permutation(60)
        a = nl.histogram(_snap(losses, is_wrong), bins=9)
        b = nl.histogram(_snap(losses[perm], is_wrong[perm]), bins=9)
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    def test_empty_snapshot(self):
        with pytest.raises(SizeError):
            nl.histogram(_snap([], []), bins=3)


class TestRoc:
    def test_perfect_separation(self):
        snap = _snap([0.1, 0.2, 2.0, 3.0], [False, False, True, True])
        curve = nl.roc(snap)
        assert curve.auc == 1.0
        assert tuple(curve.points[0]) == (0.0, 0.0)
        assert tuple(curve.points[-1]) == (1.0, 1.0)

    def test_random_labels_auc_half(self):
        rng = np.random.default_rng(39)
        losses = rng.random(10_000)
        is_wrong = rng.random(10_000) < 0.5
        assert abs(nl.roc(_snap(losses, is_wrong)).auc - 0.5) < 0.05

    def test_trapezoid_equals_mann_whitney(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(5, 120))
            # quantized losses force ties
            losses = np.round(rng.random(n) * 4, 1)
            is_wrong = rng.random(n) < 0.4
            if is_wrong.all() or not is_wrong.any():
                continue
            snap = _snap(losses, is_wrong)
            assert nl.roc(snap).auc == pytest.approx(
                mann_whitney_auc(losses, is_wrong), abs=1e-9
            )

    def test_monotone_staircase(self):
        rng = np.random.default_rng(41)
        snap = _snap(rng.random(200), rng.random(200) < 0.3)
        pts = nl.roc(snap).points
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)
        assert 0.0 <= nl.roc(snap).auc <= 1.0

    def test_reversed_scores_flip_auc(self):
        rng = np.random.default_rng(42)
        losses = rng.random(300) * 2
        is_wrong = rng.random(300) < 0.4
        auc = nl.roc(_snap(losses, is_wrong)).auc
        flipped = nl.roc(_snap(losses.max() - losses, is_wrong)).auc
        assert flipped == pytest.approx(1.0 - auc, abs=1e-9)

    def test_single_class_degenerate(self):
        with pytest.raises(DegenerateClassError):
            nl.roc(_snap([0.1, 0.2], [False, False]))

