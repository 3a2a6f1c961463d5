import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noisylab as nl
from noisylab import data
from noisylab.data import _noise_draws, _noise_loop, feature_matrix, fnv1a_64, tokenize
from noisylab.errors import ConfigError, ParseError
from noisylab.model import accuracy


def _write(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def _row(X, r=0):
    """Row r of a CSR matrix as {column: value}."""
    row = X[r]
    return dict(zip(row.indices.tolist(), row.data.tolist()))


def _fnv1a_64_scalar(s):
    """The byte-at-a-time FNV-1a-64 reference."""
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & (2**64 - 1)
    return h


def _featurize_reference(ds, dims):
    """Hashed unigram+bigram counts, one dict per example and one hash per gram,
    L2-normalized and stacked as CSR rows with columns ascending."""
    data, indices, indptr = [], [], [0]
    for ex in ds.examples:
        toks = tokenize(ex.text)
        vec = {}
        for g in toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]:
            idx = _fnv1a_64_scalar(g) & (dims - 1)
            vec[idx] = vec.get(idx, 0.0) + 1.0
        norm = math.sqrt(sum(w * w for w in vec.values()))
        for i in sorted(vec):
            indices.append(i)
            data.append(vec[i] / norm)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(len(ds), dims),
    )


def _synth_reference(k, n, margin, seed, dims=1024, *, proto_size=16, noise_size=16):
    """The synthetic generator with one dict per example, normalized and stacked
    as CSR rows with columns ascending. Each norm sums its squares left to right
    in the dict's insertion order (from Python 3.12 on, ``sum`` of floats is
    compensated, so it is spelled out)."""
    rng = np.random.default_rng(seed)
    proto_pool = rng.permutation(dims)[: k * proto_size]
    protos = [proto_pool[c * proto_size : (c + 1) * proto_size] for c in range(k)]
    labels = rng.permuted(np.arange(n) % k)
    scale = 1.0 - margin
    data, indices, indptr = [], [], [0]
    for i in range(n):
        vec = {int(j): 1.0 for j in protos[labels[i]]}
        extra_idx = rng.choice(dims, size=noise_size, replace=False)
        extra_w = rng.random(noise_size) * scale
        for j, w in zip(extra_idx, extra_w):
            if w > 0:
                vec[int(j)] = vec.get(int(j), 0.0) + float(w)
        sq = 0.0
        for w in vec.values():
            sq += w * w
        norm = math.sqrt(sq)
        for j in sorted(vec):
            indices.append(j)
            data.append(vec[j] / norm)
        indptr.append(len(indices))
    X = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)), shape=(n, dims)
    )
    return labels.astype(np.int64), X


def _assert_same_bytes(got, ref):
    """The two CSR matrices have one shape, and each of their arrays one dtype and bytes."""
    assert got.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


def _corpus(texts):
    return nl.Dataset(
        ids=[str(i) for i in range(len(texts))],
        texts=texts,
        k=2,
        clean_labels=np.zeros(len(texts), dtype=np.int64),
    )


def _same_csr(a, b):
    """Bitwise equality of two CSR matrices' shape, data, indices and indptr."""
    return (
        a.shape == b.shape
        and a.data.tobytes() == b.data.tobytes()
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.indptr, b.indptr)
    )


class TestLoadJsonl:
    def test_clean_only(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write(path, [{"id": str(i), "text": f"t{i}", "clean_label": i % 3} for i in range(3)])
        ds = nl.load_jsonl(path, k=3)
        assert len(ds) == 3
        assert ds.noisy_labels is None
        assert list(ds.clean_labels) == [0, 1, 2]

    def test_label_out_of_range_names_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write(path, [{"id": "bad-one", "text": "t", "clean_label": 7}])
        with pytest.raises(ConfigError, match=re.escape("label 7 out of range [0,5) for example 'bad-one'")):
            nl.load_jsonl(path, k=5)

    def test_malformed_line_has_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "text": "t", "clean_label": 0}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            nl.load_jsonl(path, k=2)

    @pytest.mark.parametrize(
        "line, expected",
        [
            ('{"id": "b", "text": "t", "clean_label": "zz"}', 'line 2: clean_label .* "zz"'),
            ('{"id": "b", "text": "t", "clean_label": true}', "line 2: clean_label .* true"),
            ('{"id": "b", "text": "t", "noisy_label": 1.7}', "line 2: noisy_label .* 1.7"),
            ('{"id": "b", "text": "t", "clean_label": 1e30}', "line 2: clean_label"),
            ('{"id": "b", "text": "t", "clean_label": 9223372036854775808}', "line 2: clean_label"),
            ('{"id": "b", "text": 5, "clean_label": 1}', "line 2: .*string text"),
            ("5", "line 2: not a JSON object"),
            ('"x"', "line 2: not a JSON object"),
            ('{"id": "b", "text": "\xff", "clean_label": 1}', "line 2"),
        ],
        ids=["label_string", "label_bool", "label_fraction", "label_float_exponent",
             "label_beyond_int64", "text_number", "line_number", "line_string", "bad_utf8"],
    )
    def test_bad_record_is_a_parse_error_naming_the_line(self, tmp_path, line, expected):
        path = tmp_path / "d.jsonl"
        first = b'{"id": "a", "text": "t", "clean_label": 0, "noisy_label": 0}\n'
        path.write_bytes(first + line.encode("latin-1") + b"\n")
        with pytest.raises(ParseError, match=expected):
            nl.load_jsonl(path, k=2)

    def test_round_trip_both_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = nl.Dataset(
            ids=[f"e{i}" for i in range(10)],
            texts=[f"word{i} word{i+1}" for i in range(10)],
            k=4,
            clean_labels=rng.integers(0, 4, 10),
            noisy_labels=rng.integers(0, 4, 10),
        )
        path = tmp_path / "rt.jsonl"
        nl.write_jsonl(ds, path)
        back = nl.load_jsonl(path, k=4)
        assert back.ids.tolist() == ds.ids.tolist()
        assert back.texts.tolist() == ds.texts.tolist()
        assert np.array_equal(back.clean_labels, ds.clean_labels)
        assert np.array_equal(back.noisy_labels, ds.noisy_labels)

    def test_writer_key_order(self, tmp_path):
        ds = nl.Dataset(
            ids=["a"], texts=["t"],
            k=2,
            clean_labels=np.array([0]),
            noisy_labels=np.array([1]),
        )
        path = tmp_path / "o.jsonl"
        nl.write_jsonl(ds, path)
        assert path.read_text().strip() == '{"id": "a", "text": "t", "clean_label": 0, "noisy_label": 1}'


class TestSplit:
    def test_sizes_10(self):
        ds = nl.synth_dataset(k=2, n=10, margin=1.0, seed=0)
        tr, va, te = nl.split(ds, seed=1)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_deterministic(self):
        ds = nl.synth_dataset(k=2, n=50, margin=1.0, seed=0)
        a = nl.split(ds, seed=1)
        b = nl.split(ds, seed=1)
        for x, y in zip(a, b):
            assert x.ids.tolist() == y.ids.tolist()

    def test_remainder_to_train(self):
        ds = nl.synth_dataset(k=2, n=109, margin=1.0, seed=0)
        tr, va, te = nl.split(ds, seed=1)
        assert (len(tr), len(va), len(te)) == (89, 10, 10)

    def test_empty_split_error(self):
        ds = nl.synth_dataset(k=2, n=4, margin=1.0, seed=0)
        with pytest.raises(ConfigError, match="val fraction 0.1 yields empty split at n=4"):
            nl.split(ds, seed=1)

    @pytest.mark.parametrize(
        "fractions", [(0.9, 0.0, 0.1), (0.9, 0.1, 0.0), (0.0, 0.5, 0.5), (1.1, -0.05, -0.05)]
    )
    def test_fraction_not_positive_rejected(self, fractions):
        ds = nl.synth_dataset(k=2, n=100, margin=1.0, seed=0)
        with pytest.raises(ConfigError, match=r"^fractions must be > 0, got "):
            nl.split(ds, *fractions)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partition_property(self, seed):
        ds = nl.synth_dataset(k=3, n=47, margin=0.9, seed=9)
        parts = nl.split(ds, 0.7, 0.2, 0.1, seed=seed)
        ids = [i for p in parts for i in p.ids.tolist()]
        assert sorted(ids) == sorted(ds.ids.tolist())
        # labels and feature rows travel with their ids
        for p in parts:
            orig = [int(i.split("-")[1]) for i in p.ids.tolist()]
            assert np.array_equal(p.clean_labels, ds.clean_labels[orig])
            assert _same_csr(p.X, ds.X[orig])


class TestFnv1a64:
    def test_published_vectors(self):
        assert fnv1a_64(["", "a", "foobar"]).tolist() == [
            0xCBF29CE484222325, 0xAF63DC4C8601EC8C, 0x85944171F73967E8
        ]

    @given(strings=st.lists(st.text(max_size=40)))
    @example(strings=[])
    @example(strings=["x" * 300, "", "é", "a b", "a b"])
    @settings(max_examples=100, deadline=None)
    def test_equals_the_scalar_hash(self, strings):
        out = fnv1a_64(strings)
        assert out.dtype == np.uint64
        assert out.tolist() == [_fnv1a_64_scalar(s) for s in strings]

    def test_long_strings_past_the_array_passes(self):
        # More strings than the array passes stop at, some far longer than the rest.
        rng = np.random.default_rng(0)
        strings = ["é" * int(m) for m in rng.integers(0, 60, 200)] + ["ab" * 5000, "z" * 70, "y" * 61]
        assert fnv1a_64(strings).tolist() == [_fnv1a_64_scalar(s) for s in strings]


# texts with no token, repeated grams, non-ASCII letters and a long token
_TEXTS = st.one_of(
    st.text(alphabet="ab c\u00e9\u00df!", min_size=1, max_size=16),
    st.sampled_from(["!!!", "a a a b a b", "caf\u00e9 stra\u00dfe", "w" * 300]),
)


class TestFeaturize:
    @given(texts=st.lists(_TEXTS, min_size=1, max_size=8), dims=st.sampled_from([2, 64, 2**18]))
    @example(texts=["!!!"], dims=64)
    @example(texts=["a"], dims=2)
    @example(texts=["a b a b", "!!!", "x" * 300 + " y"], dims=2**18)
    @settings(max_examples=100, deadline=None)
    def test_equals_the_per_gram_reference(self, texts, dims):
        got = nl.featurize(_corpus(texts), dims).X
        _assert_same_bytes(got, _featurize_reference(_corpus(texts), dims))

    def test_deterministic(self):
        ds = nl.Dataset(
            ids=["a"], texts=["Hello noisy world"],
            k=2,
            clean_labels=np.array([0]),
        )
        f1 = _row(nl.featurize(ds, 256).X)
        f2 = _row(nl.featurize(ds, 256).X)
        assert f1 == f2

    def test_l2_norm(self):
        ds = nl.Dataset(
            ids=["a"], texts=["a b c a b a"],
            k=2,
            clean_labels=np.array([0]),
        )
        f = _row(nl.featurize(ds, 1024).X)
        assert abs(math.sqrt(sum(w * w for w in f.values())) - 1.0) < 1e-9

    def test_bigram_order_matters(self):
        # hand-compute the expected hashed index sets for the fixed hash
        dims = 2**16
        grams_ab = ["a", "b", "a b"]
        grams_ba = ["b", "a", "b a"]
        idx_ab = set((fnv1a_64(grams_ab) & np.uint64(dims - 1)).tolist())
        idx_ba = set((fnv1a_64(grams_ba) & np.uint64(dims - 1)).tolist())
        assert idx_ab != idx_ba
        ds = nl.Dataset(
            ids=["x", "y"], texts=["a b", "b a"],
            k=2,
            clean_labels=np.array([0, 1]),
        )
        out = nl.featurize(ds, dims)
        fx, fy = _row(out.X, 0), _row(out.X, 1)
        assert fx != fy
        assert set(fx) == idx_ab
        assert set(fy) == idx_ba

    def test_dims_power_of_two(self):
        ds = nl.Dataset(
            ids=["a"], texts=["t"], k=2, clean_labels=np.array([0])
        )
        with pytest.raises(ConfigError):
            nl.featurize(ds, 1000)

    def test_dims_too_wide_for_a_row_major_key(self):
        with pytest.raises(ConfigError, match="too wide"):
            nl.featurize(_corpus(["a b", "c"]), 2**62)

    @given(text=st.text(alphabet="abc xyz", min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_pure_function_of_text_and_dims(self, text):
        if not tokenize(text):
            return
        ds = nl.Dataset(
            ids=["a"], texts=[text], k=2, clean_labels=np.array([0])
        )
        assert _row(nl.featurize(ds, 128).X) == _row(nl.featurize(ds, 128).X)

    @given(
        texts=st.lists(st.text(alphabet="ab cd", min_size=1, max_size=12), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_subset_commutes_with_featurize(self, texts, data):
        # what makes featurizing once, before the split, safe
        ds = nl.Dataset(
            ids=[str(i) for i in range(len(texts))],
            texts=texts,
            k=2,
            clean_labels=np.zeros(len(texts), dtype=np.int64),
        )
        idx = np.array(
            data.draw(st.lists(st.integers(0, len(texts) - 1), unique=True)), dtype=np.int64
        )
        assert _same_csr(nl.featurize(ds, 64).subset(idx).X, nl.featurize(ds.subset(idx), 64).X)

    def test_wrong_row_count(self):
        X = nl.featurize(
            nl.Dataset(ids=["a"], texts=["t"], k=2, clean_labels=np.array([0])),
            64,
        ).X
        with pytest.raises(ConfigError, match="X has 1 rows, expected 2"):
            nl.Dataset(
                ids=["a", "b"], texts=["t", "u"],
                k=2,
                clean_labels=np.array([0, 1]),
                X=X,
            )

    @pytest.mark.parametrize("k", [2**31, 2**63])
    def test_k_past_any_noise_matrix(self, k):
        with pytest.raises(ConfigError, match=f"k={k} is too large for a k x k noise matrix"):
            nl.Dataset(ids=[], texts=[], k=k, clean_labels=np.array([], dtype=np.int64))

    @pytest.mark.parametrize("dims, expected", [(0, "featurize_dims must be a power of two, got 0"),
                                                (2**62, f"featurize_dims {2**62} is too wide for 2 examples")],
                             ids=["0", "2^62"])
    def test_load_text_names_featurize_dims(self, tmp_path, dims, expected):
        path = tmp_path / "d.jsonl"
        _write(path, [{"id": "a", "text": "a b", "clean_label": 0}, {"id": "b", "text": "c", "clean_label": 1}])
        with pytest.raises(ConfigError, match=expected):
            nl.load_text(path, 2, dims)


class TestCompactColumns:
    @given(texts=st.lists(st.text(alphabet="ab cd", min_size=1, max_size=12), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_maps_back_to_the_hashed_columns(self, texts):
        ds = nl.Dataset(
            ids=[str(i) for i in range(len(texts))],
            texts=texts,
            k=2,
            clean_labels=np.zeros(len(texts), dtype=np.int64),
        )
        full = nl.featurize(ds, 64)
        out = nl.compact_columns(full)
        assert out.hash_dims == 64 and out.dims == len(out.buckets)
        assert np.array_equal(out.buckets, np.unique(full.X.indices))
        back = sp.csr_matrix((out.X.data, out.buckets[out.X.indices], out.X.indptr), shape=full.X.shape)
        assert _same_csr(back, full.X)  # each row keeps its entries, in order


@st.composite
def _synth_args(draw):
    """synth_dataset arguments with small dims, so extras often hit prototypes."""
    k = draw(st.integers(2, 5))
    proto_size = draw(st.integers(0, 6))
    noise_size = draw(st.integers(0, 40))
    return dict(
        k=k,
        n=draw(st.integers(k, 60)),
        margin=draw(st.one_of(st.just(1.0), st.floats(0, 1, exclude_min=True))),
        seed=draw(st.integers(0, 2**32 - 1)),
        dims=draw(st.integers(max(2 * k * proto_size, noise_size, 1), 96)),
        proto_size=proto_size,
        noise_size=noise_size,
    )


class TestSynthDataset:
    @given(args=_synth_args())
    @example(args=dict(k=4, n=4000, margin=0.7, seed=0))  # the README shape
    @example(args=dict(k=4, n=4000, margin=0.5, seed=11, noise_size=32))  # the acceptance fixture
    @example(args=dict(k=2, n=30, margin=0.5, seed=3, dims=16, proto_size=4, noise_size=16))
    @example(args=dict(k=2, n=5, margin=0.5, seed=0, dims=12000, noise_size=300))  # a tail shuffle
    @example(args=dict(k=2, n=100, margin=0.5, seed=261, dims=10000))  # seed 261: Lemire rejects
    @example(args=dict(k=3, n=40, margin=0.5, seed=7, dims=64, proto_size=0))  # no prototype columns
    @example(args=dict(k=3, n=40, margin=0.5, seed=7, dims=128, noise_size=0))  # no extras
    @settings(max_examples=100, deadline=None)
    def test_equals_the_dict_reference(self, args):
        ds = nl.synth_dataset(**args)
        labels, X = _synth_reference(**args)
        assert (ds.clean_labels.dtype, ds.clean_labels.tobytes()) == (labels.dtype, labels.tobytes())
        _assert_same_bytes(ds.X, X)

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            (dict(noise_size=2000), "noise_size must be in [0, dims=1024], got 2000"),
            (dict(noise_size=-1), "noise_size must be in [0, dims=1024], got -1"),
            (dict(proto_size=-1), "proto_size must be >= 0, got -1"),
        ],
    )
    def test_rejects_bad_sizes(self, kwargs, expected):
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            nl.synth_dataset(k=4, n=50, margin=0.7, seed=0, **kwargs)

    def test_builds_no_example_until_read(self, monkeypatch):
        init, calls = nl.Example.__init__, []
        monkeypatch.setattr(nl.Example, "__init__", lambda self, *a, **kw: calls.append(a) or init(self, *a, **kw))
        train = nl.split(nl.synth_dataset(k=3, n=60, margin=0.7, seed=11), seed=1)[0]
        view = train.examples
        assert calls == [] and len(view) == 48
        assert [ex.id for ex in view] == train.ids.tolist()
        assert len(calls) == 48
        assert view[-1] == nl.Example(train.ids[-1], "")

    @pytest.mark.parametrize(
        "op",
        [
            lambda ds, path: nl.featurize(ds, 64),
            lambda ds, path: nl.write_jsonl(ds, path),
            lambda ds, path: nl.inject_rules(ds, nl.RuleSet(rules=(("a", 1),))),
        ],
        ids=["featurize", "write_jsonl", "inject_rules"],
    )
    def test_has_no_text(self, tmp_path, op):
        ds = nl.synth_dataset(k=2, n=10, margin=0.5, seed=0)
        with pytest.raises(ConfigError, match="^a synthetic dataset has no text$"):
            op(ds, tmp_path / "out.jsonl")
        assert not (tmp_path / "out.jsonl").exists()

    def test_separable_at_margin_one(self):
        ds = nl.synth_dataset(k=2, n=100, margin=1.0, seed=3)
        tr = dataclasses.replace(ds, noisy_labels=ds.clean_labels)
        cfg = nl.TrainConfig(lr=1.0, max_epochs=20, eval_every=5, patience=1000, seed=2)
        _, best, _ = nl.train(tr, tr, tr, nl.Vanilla(), cfg)
        assert accuracy(best, tr.X, tr.labels("clean")) == 1.0

    def test_deterministic(self):
        a = nl.synth_dataset(k=3, n=60, margin=0.7, seed=11)
        b = nl.synth_dataset(k=3, n=60, margin=0.7, seed=11)
        assert np.array_equal(a.clean_labels, b.clean_labels)
        assert _same_csr(a.X, b.X)

    def test_logistic_regression_bound(self):
        # frozen regression: reference trainer reached 1.0 on this fixture
        ds = nl.synth_dataset(k=4, n=1000, margin=0.8, seed=5)
        tr, va, te = nl.split(ds, seed=6)
        tr = dataclasses.replace(tr, noisy_labels=tr.clean_labels)
        va = dataclasses.replace(va, noisy_labels=va.clean_labels)
        cfg = nl.TrainConfig(lr=1.0, max_epochs=10, eval_every=25, patience=100, seed=1)
        rec, _, _ = nl.train(tr, va, te, nl.Vanilla(), cfg)
        assert rec.summary()["best_test_acc"] >= 0.95

    def test_feature_indices_below_dims(self):
        ds = nl.synth_dataset(k=2, n=20, margin=0.5, seed=1, dims=128)
        X = feature_matrix(ds)
        assert X.indices.max() < 128
        assert X.shape == (20, 128)
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        assert np.allclose(norms, 1.0, atol=1e-9)


def _noise_both_ways(seed, before, n, dims, size):
    """Run ``_noise_draws`` and ``_noise_loop`` from equal generators, after the
    ``integers``/``permutation`` draws named in ``before``; assert equal bytes
    and equal states after. Returns the state the loop found each time
    ``_noise_draws`` fell back to it, and the state ``_noise_draws`` started at."""
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (got_rng, ref_rng):
        for name in before:  # each takes one 32-bit half, so the parity of the buffer varies
            rng.integers(0, 10) if name == "integers" else rng.permutation(2)
    start = got_rng.bit_generator.state
    entered = []

    def loop(rng, *args):
        entered.append(rng.bit_generator.state)
        return _noise_loop(rng, *args)

    with mock.patch.object(data, "_noise_loop", loop):
        idx, w = _noise_draws(got_rng, n, dims, size)
    ref_idx, ref_w = _noise_loop(ref_rng, n, dims, size)
    assert (idx.dtype, idx.shape, idx.tobytes()) == (ref_idx.dtype, ref_idx.shape, ref_idx.tobytes())
    assert (w.dtype, w.shape, w.tobytes()) == (ref_w.dtype, ref_w.shape, ref_w.tobytes())
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state  # has_uint32 and uinteger too
    return entered, start


@st.composite
def _noise_shapes(draw):
    dims = draw(st.one_of(st.integers(1, 100), st.sampled_from([1024, 10000, 3 * 2**30, 2**32])))
    return dict(n=draw(st.integers(0, 30)), dims=dims, size=draw(st.integers(0, min(dims, 40))))


class TestNoiseDraws:
    """``_noise_draws`` replays numpy's ``choice`` and ``random``; these tests
    fail if a numpy release changes how those calls draw."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        before=st.lists(st.sampled_from(["integers", "permutation"]), max_size=3),
        shape=_noise_shapes(),
    )
    @example(seed=0, before=[], shape=dict(n=3, dims=16, size=16))
    @example(seed=0, before=["integers"], shape=dict(n=3, dims=16, size=16))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_loop(self, seed, before, shape):
        entered, start = _noise_both_ways(seed, before, **shape)
        assert entered in ([], [start])  # a fallback restores the generator first

    @pytest.mark.parametrize(
        "n, dims, size",
        [
            (3, 3 * 2**30, 4),  # Lemire rejects about a quarter of draws over [0, ~3 * 2**30]
            (2, 12000, 300),  # numpy shuffles the tail of an arange
            (2, 2**32 + 1, 3),  # a bound of 2**32 draws 64 bits
        ],
    )
    def test_the_loop_takes_what_the_replay_cannot(self, n, dims, size):
        entered, start = _noise_both_ways(0, ["integers"], n, dims, size)
        assert entered == [start]
