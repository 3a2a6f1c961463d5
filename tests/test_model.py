import dataclasses
import math
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

import noisylab as nl
from noisylab.errors import ConfigError, NumericError, ParseError
from noisylab.model import (
    CrossEntropy,
    Params,
    SmoothedCrossEntropy,
    _forward_batch,
    _matvecs,
    _take_rows,
    accuracy,
    load_checkpoint,
    save_checkpoint,
    softmax,
    step,
)
from noisylab.strategies import NMatCorrectedCE, NMwRTrainableLoss
from conftest import dense_probs, dense_reference_step, row_loss


def _random_batch(rng, n, dims, k):
    X = sp.csr_matrix(rng.random((n, dims)))
    y = rng.integers(0, k, n)
    return X, y


def _batch_loss(p, batch, loss_fn):
    X, y = batch
    probs, _ = _forward_batch(p, X)
    losses, _ = loss_fn.per_sample(probs, y)
    return float(np.mean(losses))


def _flatten(p):
    blocks = [("w1", p.w1), ("b1", p.b1)]
    if p.w2 is not None:
        blocks += [("w2", p.w2), ("b2", p.b2)]
    return blocks


def fd_gradcheck(p, batch, loss_fn, h=1e-6, rel_tol=1e-5):
    """Analytic parameter gradient (recovered from a unit SGD step) vs central
    finite differences of the mean batch loss."""
    new_p = p.copy()
    step(new_p, *batch, lr=1.0, loss_fn=loss_fn)
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
        X = sp.csr_matrix((list(x.values()), ([0] * len(x), list(x))), shape=(1, p.w1.shape[0]))
    else:
        X = sp.csr_matrix(np.asarray(x, dtype=np.float64).reshape(1, -1))
    return _forward_batch(p, X)[0][0]


class TestForward:
    def test_zero_weights_uniform(self):
        p = Params(w1=np.zeros((4, 3)), b1=np.zeros(3))
        probs = _probs(p, {0: 1.0})
        assert np.allclose(probs, 1 / 3)

    def test_large_logits_no_overflow(self):
        p = Params(w1=np.zeros((1, 2)), b1=np.array([1000.0, 0.0]))
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
        with pytest.raises(ConfigError, match="input dims 5 != model dims 8"):
            _probs(p, np.ones(5))

    def test_csc_features_rejected(self):
        """The forward pass reads a matrix's arrays as CSR, so another sparse
        format is refused rather than misread."""
        X = sp.csr_matrix(np.eye(3))
        p = nl.init_params(3, 2, seed=1)
        with pytest.raises(ConfigError, match="features must be a CSR matrix, got csc"):
            accuracy(p, X.tocsc(), np.zeros(3, dtype=int))

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
        q = p.copy()
        step(q, *batch, lr=0.0, loss_fn=CrossEntropy())
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
        p = nl.init_params(tr.dims, 2, seed=13)
        losses = []
        for _ in range(50):
            loss = step(p, X, tr.noisy_labels, lr=1.0, loss_fn=CrossEntropy())
            losses.append(loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_non_finite_gradient_names_block(self):
        p = Params(w1=np.full((2, 2), 1e308), b1=np.zeros(2))
        X = sp.csr_matrix(np.array([[1e308, 0.0]]))
        before = p.copy()
        with pytest.raises(NumericError):
            step(p, X, np.array([0]), lr=0.1, loss_fn=CrossEntropy())
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(_flatten(p), _flatten(before)))

    def test_non_finite_w1_gradient_leaves_params_unchanged(self):
        # A duplicated column entry keeps the forward pass finite, but its two
        # contributions to the w1 gradient overflow.
        w1 = np.zeros((3, 2))
        w1[1, 0] = 0.01
        p = Params(w1=w1, b1=np.zeros(2))
        X = sp.csr_matrix((np.full(2, 1.5e308), np.array([1, 1]), np.array([0, 2])), shape=(1, 3))
        before = p.copy()
        with pytest.raises(NumericError, match="w1"):
            step(p, X, np.array([1]), lr=0.1, loss_fn=CrossEntropy())
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(_flatten(p), _flatten(before)))


@st.composite
def _sparse_batches(draw):
    """A small CSR batch with labels and a nonempty sorted row subset. Rows may
    be empty, share a column or repeat one; some columns may go unused, or
    one row may use every column."""
    n = draw(st.integers(1, 6))
    dims = draw(st.integers(1, 10))
    k = draw(st.integers(2, 4))
    entry = st.tuples(st.integers(0, dims - 1), st.floats(-2.0, 2.0))
    rows = [draw(st.lists(entry, max_size=5)) for _ in range(n)]
    if draw(st.booleans()):  # one row uses every column
        rows[draw(st.integers(0, n - 1))] += [(c, draw(st.floats(-2.0, 2.0))) for c in range(dims)]
    flat = [e for row in rows for e in row]
    X = sp.csr_matrix(
        (
            np.array([v for _, v in flat], dtype=np.float64),
            np.array([c for c, _ in flat], dtype=np.int32),
            np.cumsum([0] + [len(row) for row in rows]),
        ),
        shape=(n, dims),
    )
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    sel = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return X, labels, sel, k


_LOSSES = {
    "ce": lambda k: CrossEntropy(),
    "ls": lambda k: SmoothedCrossEntropy(0.2),
    "nmat": lambda k: NMatCorrectedCE(nl.uniform_matrix(k, 0.3)),
    "nmwr": lambda k: NMwRTrainableLoss(k, 1e-3),
}


@pytest.mark.parametrize("loss", sorted(_LOSSES))
@pytest.mark.parametrize("arch", ["linear", "mlp"])
@given(batch=_sparse_batches(), seed=st.integers(0, 2**16), lr=st.floats(0.01, 0.5))
@settings(max_examples=60, deadline=None)
def test_step_equals_dense_reference_bitwise(arch, loss, batch, seed, lr):
    """The in-place touched-row step and the dense step give the same bits: a
    full batch, then a row subset of it as co-teaching passes."""
    X, labels, sel, k = batch
    p = nl.init_params(X.shape[1], k, seed, arch=arch, hidden=3)
    ref = p.copy()
    loss_fn, ref_loss_fn = _LOSSES[loss](k), _LOSSES[loss](k)
    for Xb, yb in ((X, labels), (X[sel], labels[sel])):
        mean = step(p, Xb, yb, lr, loss_fn)
        ref, ref_mean = dense_reference_step(ref, Xb, yb, lr, ref_loss_fn)
        assert mean == ref_mean
        for (name, a), (_, b) in zip(_flatten(p), _flatten(ref)):
            assert a.tobytes() == b.tobytes(), name
        if loss == "nmwr":
            assert loss_fn.M.tobytes() == ref_loss_fn.M.tobytes()


def _step_reference(p, X, labels, lr, loss_fn):
    """``step`` with the column set from ``np.unique`` and a forward pass of
    its own, updating ``p`` in place."""
    n = X.shape[0]
    probs, H = _forward_batch(p, X)
    losses, dlogits = loss_fn.per_sample(probs, labels)
    dZ = dlogits / n
    cols, inv = np.unique(X.indices, return_inverse=True)
    XcT = sp.csc_matrix((X.data, inv, X.indptr), shape=(len(cols), n))
    if p.w2 is None:
        grads = {"w1": XcT @ dZ, "b1": dZ.sum(axis=0)}
    else:
        dZ1 = (dZ @ p.w2.T) * (1.0 - H * H)
        grads = {"w1": XcT @ dZ1, "b1": dZ1.sum(axis=0), "w2": H.T @ dZ, "b2": dZ.sum(axis=0)}
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter block {name}")
    p.w1[cols] -= lr * grads.pop("w1")
    for name, g in grads.items():
        getattr(p, name)[...] -= lr * g
    if hasattr(loss_fn, "sgd_update"):
        loss_fn.sgd_update(lr)
    return float(np.mean(losses))


@pytest.mark.parametrize("loss", sorted(_LOSSES))
@pytest.mark.parametrize("arch", ["linear", "mlp"])
@given(batch=_sparse_batches(), seed=st.integers(0, 2**16), lr=st.floats(0.01, 0.5),
       reuse=st.booleans())
@settings(max_examples=60, deadline=None)
def test_step_equals_reference_bitwise(arch, loss, batch, seed, lr, reuse):
    """``step`` gives ``_step_reference``'s bits on a full batch, then on a row
    subset of it; with ``reuse`` it is handed those rows of the first layer's
    output on the whole batch, as co-teaching does."""
    X, labels, sel, k = batch
    p = nl.init_params(X.shape[1], k, seed, arch=arch, hidden=3)
    ref = p.copy()
    loss_fn, ref_loss_fn = _LOSSES[loss](k), _LOSSES[loss](k)
    for rows in (np.arange(X.shape[0]), sel):
        forward = _forward_batch(p, X)[1][rows] if reuse else None
        mean = step(p, X[rows], labels[rows], lr, loss_fn, forward=forward)
        assert mean == _step_reference(ref, X[rows], labels[rows], lr, ref_loss_fn)
        for (name, a), (_, b) in zip(_flatten(p), _flatten(ref)):
            assert a.tobytes() == b.tobytes(), name
        if loss == "nmwr":
            assert loss_fn.M.tobytes() == ref_loss_fn.M.tobytes()


@pytest.mark.parametrize("arch", ["linear", "mlp"])
@given(data=st.data(), n=st.integers(1, 40), dims=st.integers(1, 300), k=st.integers(2, 5),
       hidden=st.sampled_from([1, 3, 64]), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_first_layer_rows_equal_first_layer_of_rows(arch, data, n, dims, k, hidden, seed):
    """Rows ``sel`` of the first layer's output on a batch are bitwise its
    output on rows ``sel``, and the layers after it give the same bits from
    either: what lets co-teaching step on rows of its selection pass."""
    rng = np.random.default_rng(seed)
    X = sp.random(n, dims, density=rng.random(), format="csr", random_state=rng)
    sel = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    p = nl.init_params(dims, k, seed, arch=arch, hidden=hidden)
    _, A = _forward_batch(p, X)
    probs, A_sel = _forward_batch(p, X[sel])
    assert A[sel].tobytes() == A_sel.tobytes()
    assert _forward_batch(p, X[sel], A[sel])[0].tobytes() == probs.tobytes()


# An axis past int32's range makes scipy's constructors keep int64 indices.
_WIDE = 2**31 + 7


@st.composite
def _canonical_arrays(draw):
    """``(data, indices, indptr, minor)``: compressed arrays in canonical form,
    at least one line, each line's indices ascending and distinct in
    ``[0, minor)``, in the index dtype scipy's constructors keep for them:
    int64 when ``minor`` is past int32's range, else int32. Some draws hold
    only empty lines."""
    wide = draw(st.booleans())
    minor = _WIDE if wide else draw(st.integers(1, 10))
    size = draw(st.sampled_from([0, 5]))  # 0: every line is empty
    lines = draw(st.lists(st.sets(st.integers(0, minor - 1), max_size=size).map(sorted),
                          min_size=1, max_size=12))
    dtype = np.int64 if wide else np.int32
    indices = np.array([c for line in lines for c in line], dtype=dtype)
    data = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(indices), max_size=len(indices)))
    indptr = np.cumsum([0] + [len(line) for line in lines]).astype(dtype)
    return np.array(data, dtype=np.float64), indices, indptr, minor


def _assert_same_arrays(got, want):
    """The same shape, and equal arrays of equal dtypes."""
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


@given(data=st.data(), n=st.integers(0, 8), dims=st.integers(1, 8), width=st.integers(1, 4),
       wide=st.booleans(), dtype=st.sampled_from([np.float64, np.float32, np.int64]),
       dense_dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_matvecs_is_scipy_matmul(data, n, dims, width, wide, dtype, dense_dtype, seed):
    """``_matvecs`` gives ``@``'s dtype and bytes for the forward product
    ``X @ dense`` and for ``step``'s column-restricted transpose, with int32
    or int64 index arrays, one dense column (which ``@`` hands to
    ``csr_matvec``) or several, empty rows, duplicate column entries, and
    float or integer data."""
    rows = [data.draw(st.lists(st.integers(0, dims - 1), max_size=5)) for _ in range(n)]
    indices = np.array([c for row in rows for c in row], dtype=np.int32)
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.int32)
    rng = np.random.default_rng(seed)
    values = rng.integers(-3, 4, len(indices)) if dtype is np.int64 else rng.uniform(-2, 2, len(indices))
    X = sp.csr_matrix((values.astype(dtype), indices, indptr), shape=(n, dims))
    if wide:
        indices, indptr = indices.astype(np.int64), indptr.astype(np.int64)
    dense = rng.standard_normal((dims, width)).astype(dense_dtype)
    got = _matvecs(csr_matvecs, indptr, indices, X.data, X.shape, dense)
    assert got.dtype == (X @ dense).dtype and got.tobytes() == (X @ dense).tobytes()
    with pytest.raises(ValueError, match="dimension mismatch"):
        _matvecs(csr_matvecs, indptr, indices, X.data, X.shape, dense[1:])
    # step's transpose over the used columns, numbered in ascending order
    cols = np.unique(indices)
    position = np.empty(dims, dtype=indices.dtype)
    position[cols] = np.arange(len(cols))
    XcT = sp.csc_matrix((X.data, position[indices], indptr), shape=(len(cols), n))
    dense = rng.standard_normal((n, width)).astype(dense_dtype)
    got = _matvecs(csc_matvecs, indptr, position[indices], X.data, XcT.shape, dense)
    assert got.dtype == (XcT @ dense).dtype and got.tobytes() == (XcT @ dense).tobytes()


@given(arrays=_canonical_arrays(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_take_rows_is_scipy_row_indexing(arrays, data):
    """``_take_rows(X, sel)`` holds ``X[sel]``'s arrays, dtypes and shape, for
    an epoch's full permutation and for a nonempty sorted subset as
    ``coteach_select`` returns."""
    entries, indices, indptr, minor = arrays
    X = sp.csr_matrix((entries, indices, indptr), shape=(len(indptr) - 1, minor))
    rows = range(X.shape[0])
    sel = data.draw(st.one_of(st.permutations(rows), st.sets(st.sampled_from(rows), min_size=1).map(sorted)))
    sel = np.array(sel, dtype=np.intp)
    _assert_same_arrays(_take_rows(X, sel), X[sel])


@given(batch=_sparse_batches(), seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_linear_forward_leaves_its_logits(batch, seed):
    """A linear model's softmax runs in place on a copy: the A that
    ``_forward_batch`` returns still holds ``X @ w1 + b1``, as co-teaching
    reuses it."""
    X, _, _, k = batch
    p = nl.init_params(X.shape[1], k, seed)
    probs, A = _forward_batch(p, X)
    assert A.tobytes() == (X @ p.w1 + p.b1).tobytes()
    assert not np.shares_memory(probs, A)


@pytest.mark.parametrize("loss", sorted(_LOSSES))
def test_per_sample_gradient_is_its_own_array(loss):
    """``step`` divides ``per_sample``'s gradient in place, so it must not be
    a view of ``probs``."""
    probs = softmax(np.random.default_rng(5).normal(size=(6, 3)))
    _, dlogits = _LOSSES[loss](3).per_sample(probs, np.array([0, 1, 2, 0, 1, 2]))
    assert not np.shares_memory(dlogits, probs)


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
        p = Params(w1=w, b1=np.zeros(3))
        assert accuracy(p, ds.X, ds.labels("clean")) == 1.0

    def test_tie_break_to_class_zero(self):
        ds = nl.synth_dataset(k=2, n=40, margin=1.0, seed=15, dims=128)
        p = Params(w1=np.zeros((128, 2)), b1=np.zeros(2))
        frac_zero = float(np.mean(ds.clean_labels == 0))
        assert accuracy(p, ds.X, ds.labels("clean")) == frac_zero == 0.5

    def test_matches_per_example_loop(self):
        ds = nl.synth_dataset(k=3, n=25, margin=0.6, seed=16, dims=128)
        p = nl.init_params(128, 3, seed=17)
        correct = 0
        for r, y in enumerate(ds.clean_labels):
            probs = dense_probs(p, ds.X[r])
            if int(np.argmax(probs)) == y:
                correct += 1
        assert accuracy(p, ds.X, ds.labels("clean")) == correct / len(ds)

    def test_missing_labels(self):
        ds = nl.synth_dataset(k=2, n=10, margin=1.0, seed=18)
        with pytest.raises(ConfigError):
            accuracy(nl.init_params(ds.dims, 2, seed=0), ds.X, ds.labels("noisy"))


def _uniform_reference(dims, k, seed, arch, hidden):
    """w1, b1 (and w2, b2) as ``rng.uniform`` draws them, in that order."""
    rng = np.random.default_rng(seed)
    shapes = [(dims, k), k] if arch == "linear" else [(dims, hidden), hidden, (hidden, k), k]
    return [rng.uniform(-0.05, 0.05, size=shape) for shape in shapes]


class TestInit:
    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_draws_each_layer_weights_then_bias_in_order(self, arch):
        p = nl.init_params(7, 3, seed=23, arch=arch, hidden=5)
        expected = _uniform_reference(7, 3, 23, arch, hidden=5)
        assert [a.tobytes() for _, a in _flatten(p)] == [a.tobytes() for a in expected]

    @given(
        arch=st.sampled_from(["linear", "mlp"]),
        seed=st.integers(0, 2**32),
        dims_rows=st.integers(1, 40).flatmap(
            lambda dims: st.tuples(st.just(dims), st.sets(st.integers(0, dims - 1)).map(sorted))
        ),
    )
    @example(arch="mlp", seed=1, dims_rows=(1, [0]))
    @example(arch="mlp", seed=2, dims_rows=(10, [0, 9]))
    @example(arch="linear", seed=3, dims_rows=(10, [2, 3, 4, 7, 8]))
    @example(arch="mlp", seed=4, dims_rows=(10, [5]))
    @example(arch="linear", seed=5, dims_rows=(10, list(range(10))))
    @example(arch="mlp", seed=6, dims_rows=(10, []))
    @example(arch="linear", seed=7, dims_rows=(2**18, [0, 2**18 - 1]))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_those_rows_of_the_full_draw(self, arch, seed, dims_rows):
        dims, rows = dims_rows
        part = nl.init_params(dims, 3, seed, arch=arch, hidden=5, rows=rows)
        expected = _uniform_reference(dims, 3, seed, arch, hidden=5)
        expected[0] = expected[0][rows]
        assert [a.tobytes() for _, a in _flatten(part)] == [a.tobytes() for a in expected]

    @pytest.mark.parametrize("rows", [[3, 1], [1, 1], [-1, 2], [2, 8], [[0, 1]]],
                             ids=["descending", "repeated", "negative", "past_dims", "2d"])
    def test_rows_must_be_ascending_indices(self, rows):
        with pytest.raises(ConfigError, match="ascending"):
            nl.init_params(8, 2, seed=0, rows=rows)

    def test_unknown_arch(self):
        with pytest.raises(ConfigError, match="cnn"):
            nl.init_params(4, 2, seed=0, arch="cnn")


_W, _B = np.zeros((2, 2)), np.zeros(2)


def _npz(**arrays):
    return lambda path: np.savez(path, **arrays)


def _truncated_checkpoint(path):
    np.savez(path, w1=_W, b1=_B)
    path.write_bytes(path.read_bytes()[:-30])


def _bare_npy(path):
    with open(path, "wb") as f:
        np.save(f, _W)


def _plain_zip(path):
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("w1", "0,0\n0,0\n")
        z.writestr("b1", "0,0\n")


class TestCheckpoint:
    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_round_trip(self, tmp_path, arch):
        p = nl.init_params(16, 3, seed=19, arch=arch, hidden=8)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(p, path)
        with np.load(path) as z:
            assert set(z.files) == {name for name, _ in _flatten(p)}
        q = load_checkpoint(path)
        assert type(q) is Params
        assert [(n, a.dtype, a.shape, a.tobytes()) for n, a in _flatten(q)] == [
            (n, a.dtype, a.shape, a.tobytes()) for n, a in _flatten(p)
        ]
        assert (q.w2 is None) == (arch == "linear")

    @pytest.mark.parametrize(
        "write",
        [
            _npz(meta='{"arch": "linear", "dims": 2, "k": 2, "hidden": null}', w1=_W, b1=_B),
            _npz(w1=_W, b1=_B, extra_M=np.eye(2)),
            _npz(w1=_W, b1=_B, w2=_W),
            _npz(w1=_W, b1=_B, w2=_W, b2=_B, w3=_B),
            _npz(w1=_W),
            _npz(losses=_B, is_wrong=_B.astype(bool), step=3),
            _truncated_checkpoint,
            lambda path: path.write_bytes(b"w1,b1\n0,0\n"),
            _npz(w1=np.array([{}], dtype=object), b1=_B),
            _bare_npy,
            _npz(w1=np.array([["a", "b"], ["c", "d"]]), b1=_B),
            _plain_zip,
        ],
        ids=["old_meta_format", "extras", "w2_without_b2", "unknown_array", "w1_only", "snapshot",
             "truncated", "not_zip", "pickled_objects", "bare_npy", "string_array", "plain_zip"],
    )
    def test_other_arrays_are_a_parse_error(self, tmp_path, write):
        path = tmp_path / "ckpt.npz"
        write(path)
        with pytest.raises(ParseError, match="ckpt.npz"):
            load_checkpoint(path)
