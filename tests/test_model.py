import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

import noisylab as nl
from noisylab.errors import ConfigError, NumericError, ShapeError
from noisylab.model import (
    Batch,
    CrossEntropy,
    Params,
    SmoothedCrossEntropy,
    _forward_batch,
    load_checkpoint,
    save_checkpoint,
    softmax,
    step,
)
from conftest import dense_probs, row_loss


def _random_batch(rng, n, dims, k):
    X = sp.csr_matrix(rng.random((n, dims)))
    y = rng.integers(0, k, n)
    return Batch(X, y)


def _batch_loss(p, batch, loss_fn):
    probs, _ = _forward_batch(p, batch.X)
    losses, _ = loss_fn.per_sample(probs, batch.labels)
    return float(np.mean(losses))


def _flatten(p):
    blocks = [("w1", p.w1), ("b1", p.b1)]
    if p.arch == "mlp":
        blocks += [("w2", p.w2), ("b2", p.b2)]
    return blocks


def fd_gradcheck(p, batch, loss_fn, h=1e-6, rel_tol=1e-5):
    """Analytic parameter gradient (recovered from a unit SGD step) vs central
    finite differences of the mean batch loss."""
    new_p, _ = step(p, batch, lr=1.0, loss_fn=loss_fn)
    for name, arr in _flatten(p):
        analytic = arr - getattr(new_p, name)
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            pert = arr.copy()
            pert[idx] += h
            up = _batch_loss(dataclasses.replace(p, **{name: pert}), batch, loss_fn)
            pert[idx] -= 2 * h
            down = _batch_loss(dataclasses.replace(p, **{name: pert}), batch, loss_fn)
            numeric[idx] = (up - down) / (2 * h)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < rel_tol, name


def _probs(p, x):
    """Forward pass on a one-row batch; x is a feature dict or a dense row."""
    if isinstance(x, dict):
        X = sp.csr_matrix((list(x.values()), ([0] * len(x), list(x))), shape=(1, p.dims))
    else:
        X = sp.csr_matrix(np.asarray(x, dtype=np.float64).reshape(1, -1))
    return _forward_batch(p, X)[0][0]


class TestForward:
    def test_zero_weights_uniform(self):
        p = Params(arch="linear", dims=4, k=3, w1=np.zeros((4, 3)), b1=np.zeros(3))
        probs = _probs(p, {0: 1.0})
        assert np.allclose(probs, 1 / 3)

    def test_large_logits_no_overflow(self):
        p = Params(arch="linear", dims=1, k=2, w1=np.zeros((1, 2)), b1=np.array([1000.0, 0.0]))
        probs = _probs(p, {0: 1.0})
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        p = nl.init_params(8, 5, seed=1)
        for _ in range(10):
            probs = _probs(p, rng.random(8))
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs > 0)

    def test_dim_mismatch(self):
        p = nl.init_params(8, 3, seed=1)
        with pytest.raises(ShapeError):
            _probs(p, np.ones(5))

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        p = nl.init_params(6, 4, seed=2)
        perm = rng.permutation(4)
        pp = dataclasses.replace(p, w1=p.w1[:, perm], b1=p.b1[perm])
        x = rng.random(6)
        assert np.allclose(_probs(pp, x), _probs(p, x)[perm], atol=1e-12)


class TestCeLoss:
    def test_one_hot_zero(self):
        probs = np.array([0.0, 1.0, 0.0])
        assert row_loss(CrossEntropy(), probs, 1) == 0.0

    def test_uniform_ln_k(self):
        k = 5
        assert row_loss(CrossEntropy(), np.full(k, 1 / k), 2) == pytest.approx(math.log(k))

    def test_clamp(self):
        probs = np.array([1e-20, 1.0 - 1e-20])
        assert row_loss(CrossEntropy(), probs, 0) == pytest.approx(-math.log(1e-12))

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            probs = softmax(rng.normal(size=(1, 4)) * 5)[0]
            assert row_loss(CrossEntropy(), probs, int(rng.integers(0, 4))) >= 0.0


class TestLsLoss:
    def test_alpha_zero_equals_ce(self):
        rng = np.random.default_rng(5)
        probs = softmax(rng.normal(size=(1, 4)))[0]
        assert row_loss(SmoothedCrossEntropy(0.0), probs, 2) == row_loss(CrossEntropy(), probs, 2)

    def test_uniform_probs_ln_k(self):
        k = 4
        probs = np.full(k, 1 / k)
        for alpha in (0.0, 0.1, 0.5):
            assert row_loss(SmoothedCrossEntropy(alpha), probs, 1) == pytest.approx(math.log(k))

    def test_hand_arithmetic(self):
        probs = np.array([0.8, 0.2])
        expected = -(0.9 * math.log(0.8) + 0.1 * math.log(0.2))
        assert row_loss(SmoothedCrossEntropy(0.2), probs, 0) == pytest.approx(expected, rel=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            SmoothedCrossEntropy(1.0)


class TestGradStep:
    def test_lr_zero_noop(self):
        rng = np.random.default_rng(6)
        p = nl.init_params(5, 3, seed=7)
        batch = _random_batch(rng, 4, 5, 3)
        q, _ = step(p, batch, lr=0.0)
        assert np.array_equal(q.w1, p.w1) and np.array_equal(q.b1, p.b1)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_finite_difference_ce(self, arch):
        rng = np.random.default_rng(8)
        p = nl.init_params(5, 3, seed=9, arch=arch, hidden=4)
        fd_gradcheck(p, _random_batch(rng, 6, 5, 3), CrossEntropy())

    def test_finite_difference_ls(self):
        rng = np.random.default_rng(10)
        p = nl.init_params(5, 3, seed=11)
        fd_gradcheck(p, _random_batch(rng, 6, 5, 3), SmoothedCrossEntropy(0.2))

    def test_loss_decreases_on_separable_toy(self):
        ds = nl.synth_dataset(k=2, n=64, margin=1.0, seed=12)
        tr = dataclasses.replace(ds, noisy_labels=ds.clean_labels)
        from noisylab.data import feature_matrix

        X = feature_matrix(tr)
        batch = Batch(X, tr.noisy_labels)
        p = nl.init_params(tr.dims, 2, seed=13)
        losses = []
        for _ in range(50):
            p, loss = step(p, batch, lr=1.0)
            losses.append(loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_non_finite_gradient_names_block(self):
        p = Params(arch="linear", dims=2, k=2, w1=np.full((2, 2), 1e308), b1=np.zeros(2))
        X = sp.csr_matrix(np.array([[1e308, 0.0]]))
        with pytest.raises(NumericError):
            step(p, Batch(X, np.array([0])), lr=0.1)


class TestEvaluate:
    def test_oracle_params(self):
        ds = nl.synth_dataset(k=3, n=30, margin=1.0, seed=14, dims=128)
        # weights that read off the class prototype blocks
        w = np.zeros((128, 3))
        for c in range(3):
            for r, y in enumerate(ds.clean_labels):
                if y == c:
                    row = ds.X[r]
                    for i, v in zip(row.indices, row.data):
                        w[i, c] += v
        p = Params(arch="linear", dims=128, k=3, w1=w, b1=np.zeros(3))
        assert nl.evaluate(p, ds, "clean") == 1.0

    def test_tie_break_to_class_zero(self):
        ds = nl.synth_dataset(k=2, n=40, margin=1.0, seed=15, dims=128)
        p = Params(arch="linear", dims=128, k=2, w1=np.zeros((128, 2)), b1=np.zeros(2))
        frac_zero = float(np.mean(ds.clean_labels == 0))
        assert nl.evaluate(p, ds, "clean") == frac_zero == 0.5

    def test_matches_per_example_loop(self):
        ds = nl.synth_dataset(k=3, n=25, margin=0.6, seed=16, dims=128)
        p = nl.init_params(128, 3, seed=17)
        correct = 0
        for r, y in enumerate(ds.clean_labels):
            probs = dense_probs(p, ds.X[r])
            if int(np.argmax(probs)) == y:
                correct += 1
        assert nl.evaluate(p, ds, "clean") == correct / len(ds)

    def test_missing_labels(self):
        ds = nl.synth_dataset(k=2, n=10, margin=1.0, seed=18)
        with pytest.raises(ConfigError):
            nl.evaluate(nl.init_params(ds.dims, 2, seed=0), ds, "noisy")


class TestCheckpoint:
    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_round_trip(self, tmp_path, arch):
        p = nl.init_params(16, 3, seed=19, arch=arch, hidden=8)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(p, path, extras={"M": np.eye(3)})
        q, extras = load_checkpoint(path)
        assert q.arch == p.arch and q.dims == p.dims and q.k == p.k
        assert np.array_equal(q.w1, p.w1)
        if arch == "mlp":
            assert np.array_equal(q.w2, p.w2)
        assert np.array_equal(extras["M"], np.eye(3))
