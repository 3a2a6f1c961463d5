import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisylab as nl
from noisylab.data import feature_matrix, fnv1a_64, tokenize
from noisylab.errors import ConfigError, DomainError, ParseError, ShapeError, SizeError


def _write(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def _row(X, r=0):
    """Row r of a CSR matrix as {column: value}."""
    row = X[r]
    return dict(zip(row.indices.tolist(), row.data.tolist()))


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
        with pytest.raises(DomainError, match="bad-one"):
            nl.load_jsonl(path, k=5)

    def test_malformed_line_has_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "text": "t", "clean_label": 0}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            nl.load_jsonl(path, k=2)

    def test_round_trip_both_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        examples = tuple(nl.Example(id=f"e{i}", text=f"word{i} word{i+1}") for i in range(10))
        ds = nl.Dataset(
            examples=examples,
            k=4,
            clean_labels=rng.integers(0, 4, 10),
            noisy_labels=rng.integers(0, 4, 10),
        )
        path = tmp_path / "rt.jsonl"
        nl.write_jsonl(ds, path)
        back = nl.load_jsonl(path, k=4)
        assert [e.id for e in back.examples] == [e.id for e in ds.examples]
        assert [e.text for e in back.examples] == [e.text for e in ds.examples]
        assert np.array_equal(back.clean_labels, ds.clean_labels)
        assert np.array_equal(back.noisy_labels, ds.noisy_labels)

    def test_writer_key_order(self, tmp_path):
        ds = nl.Dataset(
            examples=(nl.Example(id="a", text="t"),),
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
        tr, va, te = nl.split(ds, nl.SplitSpec((0.8, 0.1, 0.1), seed=1))
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_deterministic(self):
        ds = nl.synth_dataset(k=2, n=50, margin=1.0, seed=0)
        spec = nl.SplitSpec((0.8, 0.1, 0.1), seed=1)
        a = nl.split(ds, spec)
        b = nl.split(ds, spec)
        for x, y in zip(a, b):
            assert [e.id for e in x.examples] == [e.id for e in y.examples]

    def test_remainder_to_train(self):
        ds = nl.synth_dataset(k=2, n=100, margin=1.0, seed=0)
        tr, va, te = nl.split(ds, nl.SplitSpec((0.9, 0.1, 0.0), seed=1))
        assert (len(tr), len(va), len(te)) == (90, 10, 0)

    def test_empty_split_error(self):
        ds = nl.synth_dataset(k=2, n=4, margin=1.0, seed=0)
        with pytest.raises(SizeError):
            nl.split(ds, nl.SplitSpec((0.8, 0.1, 0.1), seed=1))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partition_property(self, seed):
        ds = nl.synth_dataset(k=3, n=47, margin=0.9, seed=9)
        parts = nl.split(ds, nl.SplitSpec((0.7, 0.2, 0.1), seed=seed))
        ids = [e.id for p in parts for e in p.examples]
        assert sorted(ids) == sorted(e.id for e in ds.examples)
        # labels travel with examples
        for p in parts:
            for i, ex in enumerate(p.examples):
                orig = int(ex.id.split("-")[1])
                assert p.clean_labels[i] == ds.clean_labels[orig]


class TestFeaturize:
    def test_deterministic(self):
        ds = nl.Dataset(
            examples=(nl.Example(id="a", text="Hello noisy world"),),
            k=2,
            clean_labels=np.array([0]),
        )
        f1 = _row(nl.featurize(ds, 256).X)
        f2 = _row(nl.featurize(ds, 256).X)
        assert f1 == f2

    def test_l2_norm(self):
        ds = nl.Dataset(
            examples=(nl.Example(id="a", text="a b c a b a"),),
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
        idx_ab = {fnv1a_64(g) & (dims - 1) for g in grams_ab}
        idx_ba = {fnv1a_64(g) & (dims - 1) for g in grams_ba}
        assert idx_ab != idx_ba
        ds = nl.Dataset(
            examples=(nl.Example(id="x", text="a b"), nl.Example(id="y", text="b a")),
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
            examples=(nl.Example(id="a", text="t"),), k=2, clean_labels=np.array([0])
        )
        with pytest.raises(ConfigError):
            nl.featurize(ds, 1000)

    @given(text=st.text(alphabet="abc xyz", min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_pure_function_of_text_and_dims(self, text):
        if not tokenize(text):
            return
        ds = nl.Dataset(
            examples=(nl.Example(id="a", text=text),), k=2, clean_labels=np.array([0])
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
            examples=tuple(nl.Example(id=str(i), text=t) for i, t in enumerate(texts)),
            k=2,
            clean_labels=np.zeros(len(texts), dtype=np.int64),
        )
        idx = np.array(
            data.draw(st.lists(st.integers(0, len(texts) - 1), unique=True)), dtype=np.int64
        )
        assert _same_csr(nl.featurize(ds, 64).subset(idx).X, nl.featurize(ds.subset(idx), 64).X)

    def test_wrong_row_count(self):
        X = nl.featurize(
            nl.Dataset(examples=(nl.Example(id="a", text="t"),), k=2, clean_labels=np.array([0])),
            64,
        ).X
        with pytest.raises(ShapeError):
            nl.Dataset(
                examples=(nl.Example(id="a", text="t"), nl.Example(id="b", text="u")),
                k=2,
                clean_labels=np.array([0, 1]),
                X=X,
            )


class TestSynthDataset:
    def test_separable_at_margin_one(self):
        ds = nl.synth_dataset(k=2, n=100, margin=1.0, seed=3)
        tr = dataclasses.replace(ds, noisy_labels=ds.clean_labels)
        cfg = nl.TrainConfig(lr=1.0, max_epochs=20, eval_every=5, patience=1000, seed=2)
        _, best, _ = nl.train(tr, tr, tr, nl.Vanilla(), cfg)
        assert nl.evaluate(best, tr, "clean") == 1.0

    def test_deterministic(self):
        a = nl.synth_dataset(k=3, n=60, margin=0.7, seed=11)
        b = nl.synth_dataset(k=3, n=60, margin=0.7, seed=11)
        assert np.array_equal(a.clean_labels, b.clean_labels)
        assert _same_csr(a.X, b.X)

    def test_logistic_regression_bound(self):
        # frozen regression: reference trainer reached 1.0 on this fixture
        ds = nl.synth_dataset(k=4, n=1000, margin=0.8, seed=5)
        tr, va, te = nl.split(ds, nl.SplitSpec((0.8, 0.1, 0.1), seed=6))
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
