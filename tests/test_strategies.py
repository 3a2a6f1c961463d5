import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisylab as nl
from noisylab.errors import ConfigError
from noisylab.model import CrossEntropy, softmax
from noisylab.strategies import NMatCorrectedCE, NMwRTrainableLoss, project_rows_to_simplex
from conftest import row_loss


def _rand_probs(rng, k):
    return softmax(rng.normal(size=(1, k)) * 2)[0]


def _nmwr(M, lam):
    fn = NMwRTrainableLoss(k=len(M), lam=lam)
    fn.M = M
    return fn


class TestNmatLoss:
    def test_identity_equals_ce(self):
        rng = np.random.default_rng(0)
        T = nl.TransitionMatrix(k=3, rows=np.eye(3))
        for _ in range(20):
            probs = _rand_probs(rng, 3)
            y = int(rng.integers(0, 3))
            assert row_loss(NMatCorrectedCE(T), probs, y) == row_loss(CrossEntropy(), probs, y)

    def test_one_hot_probs_select_row(self):
        T = nl.uniform_matrix(4, 0.6)
        probs = np.array([0.0, 0.0, 1.0, 0.0])
        q = probs @ T.rows
        assert np.allclose(q, T.rows[2])
        assert row_loss(NMatCorrectedCE(T), probs, 1) == pytest.approx(-math.log(T.rows[2, 1]))

    def test_hand_arithmetic(self):
        T = nl.TransitionMatrix(k=2, rows=np.array([[0.6, 0.4], [0.4, 0.6]]))
        probs = np.array([0.7, 0.3])
        assert row_loss(NMatCorrectedCE(T), probs, 0) == pytest.approx(-math.log(0.54), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError, match="noise matrix is 3x3 but the data has k=2"):
            nl.NMat(T=nl.uniform_matrix(3, 0.1)).loss(2)

    def test_q_stays_on_simplex(self):
        rng = np.random.default_rng(1)
        T = nl.uniform_matrix(5, 0.45)
        for _ in range(50):
            q = _rand_probs(rng, 5) @ T.rows
            assert abs(q.sum() - 1.0) < 1e-9
            assert np.all(q >= 0)


class TestNmwrLoss:
    def test_identity_lambda_zero_equals_ce(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            probs = _rand_probs(rng, 4)
            y = int(rng.integers(0, 4))
            loss = row_loss(_nmwr(np.eye(4), 0.0), probs, y)
            assert loss == pytest.approx(row_loss(CrossEntropy(), probs, y), abs=1e-12)

    def test_regularizer_identity(self):
        probs = np.full(4, 0.25)
        lam = 0.7
        loss0 = row_loss(_nmwr(np.eye(4), 0.0), probs, 0)
        loss1 = row_loss(_nmwr(np.eye(4), lam), probs, 0)
        assert loss1 - loss0 == pytest.approx(lam * 4, rel=1e-12)

    def test_finite_difference_both_gradients(self):
        # the functional exposes the gradients training uses: d/dM as _dM and
        # d/dlogits as its second return value
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            z = rng.normal(size=(1, 3)) * 2
            probs = softmax(z)[0]
            # row-stochastic, as training keeps M; entries >= 0.02 keep q_y
            # off the clamp and the finite differences accurate
            M = 0.94 * rng.dirichlet(np.ones(3), size=3) + 0.02
            y = int(rng.integers(0, 3))
            lam = 0.01
            fn = _nmwr(M, lam)
            _, g_z = fn.per_sample(softmax(z), np.array([y]))
            g_M = fn._dM
            num_M = np.zeros_like(M)
            for i in range(3):
                for j in range(3):
                    up = M.copy(); up[i, j] += h
                    dn = M.copy(); dn[i, j] -= h
                    num_M[i, j] = (
                        row_loss(_nmwr(up, lam), probs, y) - row_loss(_nmwr(dn, lam), probs, y)
                    ) / (2 * h)
            assert np.linalg.norm(g_M - num_M) / max(np.linalg.norm(num_M), 1e-12) < 1e-5
            num_z = np.zeros(3)
            for i in range(3):
                up = z.copy(); up[0, i] += h
                dn = z.copy(); dn[0, i] -= h
                num_z[i] = (
                    row_loss(fn, softmax(up)[0], y) - row_loss(fn, softmax(dn)[0], y)
                ) / (2 * h)
            assert np.linalg.norm(g_z[0] - num_z) / max(np.linalg.norm(num_z), 1e-12) < 1e-5

    def test_large_lambda_shrinks_M(self):
        loss_fn = NMwRTrainableLoss(k=3, lam=10.0)
        probs = softmax(np.random.default_rng(4).normal(size=(8, 3)))
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        before = np.linalg.norm(loss_fn.M)
        loss_fn.per_sample(probs, labels)
        loss_fn.sgd_update(0.01)
        assert np.linalg.norm(loss_fn.M) < before


@st.composite
def _matrices(draw):
    """Small matrices, some rows shifted as far as a step on a clamped q_y
    moves a row of M."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.floats(-10, 10), min_size=n * k, max_size=n * k))
    shifts = draw(st.lists(st.just(0.0) | st.floats(-1e12, 1e12), min_size=n, max_size=n))
    return np.array(entries).reshape(n, k) + np.array(shifts)[:, None]


@given(V=_matrices(), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_projection_is_the_nearest_simplex_point(V, seed):
    P = project_rows_to_simplex(V)
    assert np.all(P >= 0)
    assert np.all(np.abs(P.sum(axis=1) - 1.0) <= 1e-12)
    rng = np.random.default_rng(seed)
    k = V.shape[1]
    for v, p in zip(V, P):
        # dense, sparse and near-uniform simplex points, and points on the
        # segments from p towards each vertex, the vertices included
        Q = np.vstack(
            [rng.dirichlet(np.full(k, a), size=100) for a in (0.1, 1.0, 10.0)]
            + [p + t * (np.eye(k) - p) for t in (1e-3, 0.1, 1.0)]
        )
        nearest = np.linalg.norm(p - v)
        assert np.all(np.linalg.norm(Q - v, axis=1) >= nearest * (1 - 1e-12) - 1e-12)


class TestKeepFraction:
    def test_ramp_start(self):
        assert nl.CoTeaching(eps=0.4, ramp_epochs=5).keep_fraction(0) == 1.0

    def test_plateau(self):
        assert nl.CoTeaching(eps=0.4, ramp_epochs=5).keep_fraction(5) == pytest.approx(0.6)
        assert nl.CoTeaching(eps=0.4, ramp_epochs=5).keep_fraction(50) == pytest.approx(0.6)

    def test_linear_midpoint(self):
        assert nl.CoTeaching(eps=0.4, ramp_epochs=4).keep_fraction(2) == pytest.approx(0.8)


class TestCoteachSelect:
    def test_cross_selection(self):
        la = np.array([0.5, 0.1, 0.9, 0.2])
        lb = np.array([0.1, 0.9, 0.2, 0.5])
        sel_a, sel_b = nl.coteach_select(la, lb, 0.5)
        assert list(sel_a) == [0, 2]  # smallest under b's losses
        assert list(sel_b) == [1, 3]  # smallest under a's losses

    def test_keep_all(self):
        la = np.array([0.3, 0.2, 0.1])
        sel_a, sel_b = nl.coteach_select(la, la, 1.0)
        assert list(sel_a) == [0, 1, 2]
        assert list(sel_b) == [0, 1, 2]

    def test_tie_break_lower_index(self):
        la = np.array([0.5, 0.5, 0.5, 0.5])
        sel_a, _ = nl.coteach_select(la, la, 0.5)
        assert list(sel_a) == [0, 1]

    def test_selected_mean_not_above_batch_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            la = rng.random(n)
            lb = rng.random(n)
            frac = float(rng.uniform(0.1, 1.0))
            sel_a, sel_b = nl.coteach_select(la, lb, frac)
            assert lb[sel_a].mean() <= lb.mean() + 1e-12
            assert la[sel_b].mean() <= la.mean() + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        la, lb = rng.random(17), rng.random(17)
        sel_a, sel_b = nl.coteach_select(la, lb, 0.4)
        swapped_a, swapped_b = nl.coteach_select(lb, la, 0.4)
        assert np.array_equal(sel_a, swapped_b)
        assert np.array_equal(sel_b, swapped_a)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match=re.escape("loss shapes differ: (1,) vs (2,)")):
            nl.coteach_select([0.1], [0.1, 0.2], 0.5)

    def test_bad_frac(self):
        with pytest.raises(ConfigError, match=re.escape("frac must be in (0,1], got 0.0")):
            nl.coteach_select([0.1], [0.2], 0.0)


class TestFunctionalGradients:
    def test_nmat_dlogits_finite_difference(self):
        rng = np.random.default_rng(7)
        T = nl.uniform_matrix(4, 0.4)
        fn = NMatCorrectedCE(T)
        h = 1e-6
        for _ in range(10):
            z = rng.normal(size=(1, 4))
            y = np.array([int(rng.integers(0, 4))])
            _, g = fn.per_sample(softmax(z), y)
            num = np.zeros(4)
            for i in range(4):
                up = z.copy(); up[0, i] += h
                dn = z.copy(); dn[0, i] -= h
                num[i] = (
                    fn.per_sample(softmax(up), y)[0][0]
                    - fn.per_sample(softmax(dn), y)[0][0]
                ) / (2 * h)
            assert np.linalg.norm(g[0] - num) / max(np.linalg.norm(num), 1e-12) < 1e-5

    def test_nmwr_dlogits_finite_difference(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(10):
            fn = NMwRTrainableLoss(k=3, lam=0.01)
            fn.M = np.eye(3) + rng.normal(scale=0.1, size=(3, 3))
            z = rng.normal(size=(1, 3))
            y = np.array([int(rng.integers(0, 3))])
            _, g = fn.per_sample(softmax(z), y)
            num = np.zeros(3)
            for i in range(3):
                up = z.copy(); up[0, i] += h
                dn = z.copy(); dn[0, i] -= h
                num[i] = (
                    fn.per_sample(softmax(up), y)[0][0]
                    - fn.per_sample(softmax(dn), y)[0][0]
                ) / (2 * h)
            assert np.linalg.norm(g[0] - num) / max(np.linalg.norm(num), 1e-12) < 1e-5
