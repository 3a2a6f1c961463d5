import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._base import _spbase
from scipy.sparse._compressed import _cs_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

import noisylab as nl
from noisylab import model, trainer
from noisylab.errors import ConfigError
from noisylab.model import accuracy
from conftest import keyword_corpus, with_noise


def _cfg(**kw):
    base = dict(lr=1.0, batch_size=32, max_epochs=5, eval_every=5, patience=50, seed=0)
    base.update(kw)
    return nl.TrainConfig(**base)


class TestTrain:
    def test_deterministic(self, small_noisy_splits):
        tr, va, te = small_noisy_splits
        cfg = _cfg()
        rec1, best1, _ = nl.train(tr, va, te, nl.Vanilla(), cfg)
        rec2, best2, _ = nl.train(tr, va, te, nl.Vanilla(), cfg)
        assert rec1.entries == rec2.entries
        assert rec1.best_step == rec2.best_step
        assert np.array_equal(best1.w1, best2.w1)

    def test_patience_stops_at_second_evaluation(self, small_noisy_splits):
        tr, va, te = small_noisy_splits
        # lr=0 freezes the model, so validation accuracy never improves
        cfg = _cfg(lr=0.0, patience=1, eval_every=5, max_epochs=50)
        rec, _, _ = nl.train(tr, va, te, nl.Vanilla(), cfg)
        assert rec.final_step == 10
        assert len(rec.entries) == 2

    def test_best_step_is_argmax_of_val_acc(self, small_noisy_splits):
        tr, va, te = small_noisy_splits
        rec, _, _ = nl.train(tr, va, te, nl.Vanilla(), _cfg())
        best_acc = rec.best_entry.val_acc
        assert all(e.val_acc <= best_acc for e in rec.entries)
        # tie-break: earlier step wins
        first_at_best = min(e.step for e in rec.entries if e.val_acc == best_acc)
        assert rec.best_step == first_at_best

    def test_best_checkpoint_reproduces_val_acc(self, small_noisy_splits):
        tr, va, te = small_noisy_splits
        rec, best, _ = nl.train(tr, va, te, nl.Vanilla(), _cfg())
        assert accuracy(best, va.X, va.labels("noisy")) == rec.best_entry.val_acc

    def test_zero_noise_no_memorization_gap(self):
        ds = nl.synth_dataset(k=3, n=300, margin=1.0, seed=21)
        tr, va, te = nl.split(ds, seed=22)
        tr = dataclasses.replace(tr, noisy_labels=tr.clean_labels)
        va = dataclasses.replace(va, noisy_labels=va.clean_labels)
        rec, _, _ = nl.train(tr, va, te, nl.Vanilla(), _cfg(max_epochs=10))
        assert abs(rec.best_entry.test_acc - rec.final_entry.test_acc) <= 0.01

    def test_no_validation_runs_to_convergence(self, small_noisy_splits):
        tr, va, te = small_noisy_splits
        cfg = _cfg(max_epochs=100, convergence_tol=0.05, patience=1)
        rec, best, final = nl.train(tr, va, te, nl.NoValidation(), cfg)
        # patience is ignored; best is reported at the final step
        assert rec.best_step == rec.final_step
        assert np.array_equal(best.w1, final.w1)
        assert rec.final_step < 100 * (len(tr) // 32 + 1)

    def test_missing_noisy_labels(self):
        ds = nl.synth_dataset(k=2, n=40, margin=1.0, seed=23)
        with pytest.raises(ConfigError):
            nl.train(ds, ds, ds, nl.Vanilla(), _cfg())

    def test_coteaching_runs(self, small_noisy_splits):
        tr, va, te = small_noisy_splits
        strat = nl.CoTeaching(eps=0.4, ramp_epochs=2)
        rec, best, _ = nl.train(tr, va, te, strat, _cfg(max_epochs=3))
        assert rec.best_entry.val_acc == accuracy(best, va.X, va.labels("noisy"))

    @pytest.mark.parametrize(
        "strategy", [nl.Vanilla(), nl.CoTeaching(eps=0.4, ramp_epochs=2)], ids=["vanilla", "coteaching"]
    )
    def test_best_is_params_at_best_step(self, small_noisy_splits, monkeypatch, strategy):
        after = {}  # id of each network -> a copy of its parameters after each step
        real_step = trainer.step

        def recording_step(p, *args, **kwargs):
            loss = real_step(p, *args, **kwargs)
            after.setdefault(id(p), []).append(p.copy())
            return loss

        monkeypatch.setattr(trainer, "step", recording_step)
        tr, va, te = small_noisy_splits
        cfg = _cfg(max_epochs=3, eval_every=2, arch="mlp", hidden=8)
        rec, best, _ = nl.train(tr, va, te, strategy, cfg)
        accs = [e.val_acc for e in rec.entries]
        gains = [i for i, a in enumerate(accs) if a > max(accs[:i], default=-1.0)]
        assert len(gains) >= 2 and rec.best_step < rec.final_step
        at_best = next(iter(after.values()))[rec.best_step - 1]  # net A steps first
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(best, name).tobytes() == getattr(at_best, name).tobytes(), name

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_coteaching_steps_on_its_selection_forward_bitwise(self, small_noisy_splits, monkeypatch, arch):
        tr, va, te = small_noisy_splits
        strat, cfg = nl.CoTeaching(eps=0.4, ramp_epochs=2), _cfg(max_epochs=3, arch=arch, hidden=16)
        reused = nl.train(tr, va, te, strat, cfg)
        real_step = trainer.step
        monkeypatch.setattr(trainer, "step", lambda p, X, y, lr, loss_fn, forward=None: real_step(p, X, y, lr, loss_fn))
        rerun = nl.train(tr, va, te, strat, cfg)
        assert reused[0].entries == rerun[0].entries and reused[0].best_step == rerun[0].best_step
        for a, b in zip(reused[1:], rerun[1:]):  # best, then final
            assert a.arrays().keys() == b.arrays().keys()
            for name, arr in a.arrays().items():
                assert arr.tobytes() == b.arrays()[name].tobytes(), name

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize(
        "strategy", [nl.Vanilla(), nl.CoTeaching(eps=0.4, ramp_epochs=2), nl.NMwR(lam=1e-3)],
        ids=["vanilla", "coteaching", "nmwr"],
    )
    def test_constructs_no_sparse_object(self, small_noisy_splits, monkeypatch, strategy, arch):
        """Batches, their transposes and co-teaching's selections are arrays:
        ``train`` runs no scipy constructor and no ``@`` on a sparse object,
        and every product it runs has the training matrix's index dtype in
        both index arrays."""
        calls, index_dtypes = [], set()
        init, matmul, matvecs = _cs_matrix.__init__, _spbase.__matmul__, model._matvecs

        def counted_init(self, *args, **kwargs):
            calls.append("__init__")
            init(self, *args, **kwargs)

        def counted_matmul(self, other):
            calls.append("__matmul__")
            return matmul(self, other)

        def noted(kernel, indptr, indices, data, shape, dense):
            index_dtypes.add((indices.dtype, indptr.dtype))
            return matvecs(kernel, indptr, indices, data, shape, dense)

        monkeypatch.setattr(_cs_matrix, "__init__", counted_init)
        monkeypatch.setattr(_spbase, "__matmul__", counted_matmul)
        monkeypatch.setattr(model, "_matvecs", noted)
        rec, _, _ = nl.train(*small_noisy_splits, strategy, _cfg(max_epochs=2, arch=arch, hidden=8))
        assert rec.final_step == 2 * 10 and calls == []
        assert index_dtypes == {(small_noisy_splits[0].X.indices.dtype,) * 2}
        sp.csr_matrix((2, 2)) @ np.ones((2, 2))  # the wrappers see both calls
        assert calls == ["__init__", "__matmul__"]

    def test_nmwr_runs(self, small_noisy_splits):
        tr, va, te = small_noisy_splits
        rec, _, _ = nl.train(tr, va, te, nl.NMwR(lam=1e-3), _cfg(max_epochs=3))
        assert rec.entries

    def test_nmwr_matrix_stays_row_stochastic(self, monkeypatch):
        # An unconstrained M drove a whole row of probs @ M under the clamp at
        # step 207 of this run, which then ended in NumericError.
        real_step = trainer.step
        steps = []

        def checked_step(p, X, y, lr, loss_fn):
            loss = real_step(p, X, y, lr, loss_fn)
            assert np.all(loss_fn.M >= 0), len(steps)
            assert np.all(np.abs(loss_fn.M.sum(axis=1) - 1.0) <= 1e-12), len(steps)
            steps.append(loss)
            return loss

        monkeypatch.setattr(trainer, "step", checked_step)
        ds = nl.synth_dataset(k=4, n=4000, margin=0.7, seed=1560023975)
        tr, va, te = nl.split(ds, seed=2025197565)
        tr = with_noise(tr, 0.4, seed=1892783322)
        va = with_noise(va, 0.4, seed=1892783323)
        cfg = nl.TrainConfig(
            lr=0.5, batch_size=32, max_epochs=3, eval_every=100, seed=1098067558, arch="mlp"
        )
        rec, _, _ = nl.train(tr, va, te, nl.NMwR(lam=1e-4), cfg)
        assert rec.final_step == len(steps) == 300

    def test_nmwr_final_model_does_not_collapse(self):
        # Seed 0 of the synth_sweep benchmark with nmwr added: stepping M at the
        # model's full learning rate sent every row of M to one vertex, and the
        # final test accuracy fell to 0.265 while the best stayed 1.0.
        ds = nl.synth_dataset(k=4, n=4000, margin=0.7, seed=1826701615)
        tr, va, te = nl.split(ds, seed=1367864807)
        tr = with_noise(tr, 0.4, seed=1097657232)
        va = with_noise(va, 0.4, seed=1097657233)
        cfg = nl.TrainConfig(
            lr=0.5, batch_size=32, max_epochs=10, eval_every=100, seed=579362556, arch="mlp"
        )
        rec, _, _ = nl.train(tr, va, te, nl.NMwR(lam=1e-4), cfg)
        assert rec.final_entry.test_acc >= 0.9


def _text_splits(ds):
    tr, va, te = nl.split(ds, seed=31)
    return with_noise(tr, 0.3, seed=32), with_noise(va, 0.3, seed=33), te


class TestCompactedText:
    @pytest.mark.parametrize(
        "strategy, arch",
        [(nl.Vanilla(), "linear"), (nl.Vanilla(), "mlp"), (nl.CoTeaching(eps=0.3, ramp_epochs=2), "mlp")],
        ids=["linear", "mlp", "coteaching"],
    )
    def test_bitwise_the_full_width_run(self, strategy, arch):
        full = nl.featurize(keyword_corpus(n=400, seed=30), 2**14)
        compact = nl.compact_columns(full)
        assert compact.dims < full.dims
        cfg = _cfg(max_epochs=3, eval_every=4, arch=arch, hidden=8)
        runs = []
        for splits in (_text_splits(full), _text_splits(compact)):
            rec, best, final = nl.train(*splits, strategy, cfg)
            snap = nl.snapshot_losses(best, splits[0], step=rec.best_step)
            runs.append((rec, best, final, snap.losses))
        (rec, best, final, losses), (c_rec, c_best, c_final, c_losses) = runs
        assert c_rec.entries == rec.entries and c_rec.best_step == rec.best_step
        assert c_losses.tobytes() == losses.tobytes()
        for p, c in ((best, c_best), (final, c_final)):
            expected = dict(p.arrays(), w1=p.w1[compact.buckets])
            assert {name: a.tobytes() for name, a in c.arrays().items()} == {
                name: a.tobytes() for name, a in expected.items()
            }

    def test_splits_must_share_one_numbering(self):
        # compacting each split on its own numbers their columns differently
        splits = _text_splits(nl.featurize(keyword_corpus(n=100, seed=34), 2**10))
        tr, va, te = (nl.compact_columns(ds) for ds in splits)
        with pytest.raises(ConfigError, match="train, val and test must share one column numbering"):
            nl.train(tr, va, te, nl.Vanilla(), _cfg())


def _scripted(monkeypatch, losses):
    """Make trainer.step leave the model as it is and return ``losses`` in turn."""
    it = iter(losses)
    monkeypatch.setattr(trainer, "step", lambda p, X, y, lr, loss_fn: next(it))


class TestBookkeeping:
    # 320 training rows in batches of 48: 7 steps per epoch.
    PER_EPOCH = 7

    def test_no_validation_stops_after_two_flat_epochs(self, small_noisy_splits, monkeypatch):
        tr, va, te = small_noisy_splits
        # epoch means 5, 4, 3.9995 (first flat), 3 (gain resets), 2.9995, 2.999 (second flat)
        means = [5.0, 4.0, 3.9995, 3.0, 2.9995, 2.999] + [2.999] * 10
        script = [m + 0.01 * (j % 3) for m in means for j in range(self.PER_EPOCH)]
        _scripted(monkeypatch, script)
        cfg = _cfg(batch_size=48, eval_every=3, max_epochs=len(means), convergence_tol=1e-3)
        rec, best, final = nl.train(tr, va, te, nl.NoValidation(), cfg)
        assert rec.final_step == 6 * self.PER_EPOCH
        assert rec.best_step == rec.final_step and best is final

    def test_train_loss_is_the_mean_since_the_last_evaluation(self, small_noisy_splits, monkeypatch):
        tr, va, te = small_noisy_splits
        script = [float(i % 5) + 0.1 * i for i in range(3 * self.PER_EPOCH)]
        _scripted(monkeypatch, script)
        rec, _, _ = nl.train(tr, va, te, nl.Vanilla(), _cfg(batch_size=48, eval_every=4, max_epochs=3))
        steps = [e.step for e in rec.entries]
        assert steps == [4, 8, 12, 16, 20, 21]
        for prev, e in zip([0] + steps, rec.entries):
            assert e.train_loss == np.mean(script[prev : e.step])

    def test_patience_stops_at_evaluation_patience_plus_one(self, small_noisy_splits, monkeypatch):
        tr, va, te = small_noisy_splits
        _scripted(monkeypatch, [1.0] * 100 * self.PER_EPOCH)
        cfg = _cfg(batch_size=48, eval_every=5, patience=3, max_epochs=100)
        rec, _, _ = nl.train(tr, va, te, nl.Vanilla(), cfg)
        # the model never changes, so only the first evaluation is a gain;
        # the stop falls mid-epoch and must end the epoch loop too
        assert [e.step for e in rec.entries] == [5, 10, 15, 20]
        assert rec.best_step == 5 and rec.final_step == 20

    def test_no_stall_before_the_first_evaluation(self, small_noisy_splits, monkeypatch):
        tr, va, te = small_noisy_splits
        _scripted(monkeypatch, [1.0] * 100 * self.PER_EPOCH)
        # evaluations fall every 10 steps, so the first epoch ends with none
        cfg = _cfg(batch_size=48, eval_every=10, patience=1, max_epochs=100)
        rec, _, _ = nl.train(tr, va, te, nl.Vanilla(), cfg)
        assert [e.step for e in rec.entries] == [10, 20]
        assert rec.best_step == 10


class TestValPolicy:
    def test_policies_agree_when_val_labels_agree(self):
        ds = nl.synth_dataset(k=3, n=300, margin=0.9, seed=24)
        tr, va, te = nl.split(ds, seed=25)
        tr = dataclasses.replace(tr, noisy_labels=tr.clean_labels)
        va = dataclasses.replace(va, noisy_labels=va.clean_labels)
        rec_noisy, _, _ = nl.train(tr, va, te, nl.Vanilla(), _cfg(max_epochs=3))
        rec_clean, _, _ = nl.train(tr, va, te, nl.Vanilla(), _cfg(max_epochs=3, val_policy="clean"))
        assert rec_noisy.entries == rec_clean.entries
        assert rec_noisy.best_step == rec_clean.best_step

    def test_clean_policy_needs_clean_labels(self, small_noisy_splits):
        tr, va, te = small_noisy_splits
        va_noisy_only = dataclasses.replace(va, clean_labels=None)
        with pytest.raises(ConfigError, match="clean"):
            nl.train(tr, va_noisy_only, te, nl.Vanilla(), _cfg(val_policy="clean"))


class TestRunRecordIO:
    def test_jsonl_round_trip_fields(self, tmp_path, small_noisy_splits):
        tr, va, te = small_noisy_splits
        rec, _, _ = nl.train(tr, va, te, nl.Vanilla(), _cfg(max_epochs=2))
        path = tmp_path / "rec.jsonl"
        rec.write_jsonl(path)
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(rec.entries)
        assert lines[0]["step"] == rec.entries[0].step
        assert set(lines[0]) == {"step", "train_loss", "val_acc", "test_acc"}


@given(n=st.integers(1, 40), bounds=st.tuples(st.integers(0, 45), st.integers(0, 45)), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_batch_view_is_the_row_slice(n, bounds, seed):
    """A batch holds ``X[start:stop]``'s arrays, in their order, with their
    dtypes and shape."""
    rng = np.random.default_rng(seed)
    X = sp.random(n, 50, density=rng.random(), format="csr", random_state=rng)
    start, stop = min(min(bounds), n - 1), max(bounds)
    got, want = trainer._row_slice(X, start, stop), X[start:stop]
    assert got.shape == want.shape
    for a, b in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
