import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisylab as nl
from noisylab.data import Dataset, Example
from noisylab.errors import ConfigError, DomainError, ShapeError


class TestUniformMatrix:
    def test_k4_eps06(self):
        T = nl.uniform_matrix(4, 0.6)
        assert np.allclose(np.diag(T.rows), 0.4)
        off = T.rows[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.2)

    def test_zero_noise_identity(self):
        assert np.array_equal(nl.uniform_matrix(3, 0.0).rows, np.eye(3))

    def test_k4_eps07(self):
        T = nl.uniform_matrix(4, 0.7)
        assert np.allclose(np.diag(T.rows), 0.3)
        assert np.allclose(T.rows[0, 1], 0.7 / 3)
        assert np.allclose(T.rows.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
    def test_bad_eps(self, eps):
        with pytest.raises(DomainError):
            nl.uniform_matrix(4, eps)


class TestSingleFlipMatrix:
    def test_binary_equals_uniform(self):
        T = nl.single_flip_matrix(2, 0.4)
        assert np.allclose(T.rows, [[0.6, 0.4], [0.4, 0.6]])
        assert np.allclose(T.rows, nl.uniform_matrix(2, 0.4).rows)

    def test_cyclic_two_nonzeros(self):
        T = nl.single_flip_matrix(4, 0.45)
        for i in range(4):
            row = T.rows[i]
            assert np.count_nonzero(row) == 2
            assert row[i] == pytest.approx(0.55)
            assert row[(i + 1) % 4] == pytest.approx(0.45)

    def test_zero_noise_identity(self):
        T = nl.single_flip_matrix(5, 0.0, flip_map={i: (i + 2) % 5 for i in range(5)})
        assert np.array_equal(T.rows, np.eye(5))

    def test_fixed_point_rejected(self):
        with pytest.raises(DomainError):
            nl.single_flip_matrix(3, 0.2, flip_map={0: 0, 1: 2, 2: 1})


class TestMatrixFromPairs:
    def test_direct_counting(self):
        T = nl.matrix_from_pairs([0, 0, 1, 1], [0, 1, 1, 1], k=2)
        assert np.allclose(T.rows, [[0.5, 0.5], [0.0, 1.0]])

    def test_no_noise_identity(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert np.array_equal(nl.matrix_from_pairs(labels, labels, 3).rows, np.eye(3))

    def test_unseen_class_one_hot(self):
        T = nl.matrix_from_pairs([0, 0], [0, 1], k=3)
        assert np.array_equal(T.rows[1], [0, 1, 0])
        assert np.array_equal(T.rows[2], [0, 0, 1])

    def test_monte_carlo_recovery(self):
        # 3 sigma of a binomial at ~250 samples per row is below 0.06
        rng = np.random.default_rng(4)
        clean = rng.integers(0, 4, 1000)
        T = nl.uniform_matrix(4, 0.4)
        noisy = nl.inject(clean, T, seed=104)
        est = nl.matrix_from_pairs(clean, noisy, 4)
        assert np.max(np.abs(est.rows - T.rows)) < 0.06

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nl.matrix_from_pairs([0, 1], [0], k=2)

    @pytest.mark.parametrize("clean, noisy", [([0, 2], [0, 1]), ([0, 1], [0, -1])])
    def test_label_out_of_range(self, clean, noisy):
        with pytest.raises(DomainError):
            nl.matrix_from_pairs(clean, noisy, k=2)


class TestInject:
    def test_identity_is_noop(self):
        labels = np.random.default_rng(1).integers(0, 5, 200)
        T = nl.uniform_matrix(5, 0.0)
        assert np.array_equal(nl.inject(labels, T, 7), labels)

    def test_realized_flip_fraction(self):
        labels = np.random.default_rng(2).integers(0, 4, 100_000)
        noisy = nl.inject(labels, nl.uniform_matrix(4, 0.7), seed=3)
        # binomial concentration: 3 sigma ~ 0.0043
        assert abs(nl.fdr(labels, noisy) - 0.7) < 0.005

    def test_deterministic(self):
        labels = np.arange(100) % 3
        T = nl.uniform_matrix(3, 0.5)
        assert np.array_equal(nl.inject(labels, T, 9), nl.inject(labels, T, 9))

    def test_row_short_of_one_stays_in_range(self, monkeypatch):
        # a row summing to 1 - 5e-10 is within the tolerance; a draw above its
        # cumulative sum must still land on the last class, not on k
        T = nl.TransitionMatrix(k=2, rows=np.array([[0.5, 0.5 - 5e-10], [0.0, 1.0]]))

        class HighDraws:
            def __init__(self, seed):
                pass

            def random(self, n):
                return np.full(n, 1.0 - 1e-10)

        monkeypatch.setattr(np.random, "default_rng", HighDraws)
        assert list(nl.inject([0, 1], T, seed=0)) == [1, 1]


class TestInjectRules:
    def _corpus(self, texts, labels, k=3):
        return Dataset(
            examples=tuple(Example(id=str(i), text=t) for i, t in enumerate(texts)),
            k=k,
            clean_labels=np.array(labels),
        )

    def test_keyword_fires(self):
        ds = self._corpus(["traffic in Lagos today"], [0])
        rules = nl.RuleSet(rules=(("lagos", 2),))
        out = nl.inject_rules(ds, rules)
        assert out.noisy_labels[0] == 2

    def test_abstain_keeps_clean(self):
        ds = self._corpus(["nothing matches here"], [1])
        rules = nl.RuleSet(rules=(("lagos", 2),), abstain_to_clean=True)
        out = nl.inject_rules(ds, rules)
        assert out.noisy_labels[0] == 1

    def test_abstain_drop(self):
        ds = self._corpus(["lagos news", "no match"], [0, 1])
        rules = nl.RuleSet(rules=(("lagos", 2),), abstain_to_clean=False)
        out = nl.inject_rules(ds, rules)
        assert len(out) == 1
        assert out.examples[0].id == "0"

    def test_first_match_wins_whole_token(self):
        ds = self._corpus(["abuja lagos"], [0])
        rules = nl.RuleSet(rules=(("abuja", 1), ("lagos", 2)))
        out = nl.inject_rules(ds, rules)
        assert out.noisy_labels[0] == 1
        # substring must not fire
        ds2 = self._corpus(["lagosian stuff"], [0])
        out2 = nl.inject_rules(ds2, nl.RuleSet(rules=(("lagos", 2),)))
        assert out2.noisy_labels[0] == 0

    def test_misleading_keyword_matrix_row(self):
        # 30% of class-0 texts carry a keyword mapped to class 1
        rng = np.random.default_rng(5)
        texts, labels = [], []
        for i in range(1000):
            if rng.random() < 0.3:
                texts.append("plain words misleading")
            else:
                texts.append("plain words only")
            labels.append(0)
        ds = self._corpus(texts, labels, k=3)
        out = nl.inject_rules(ds, nl.RuleSet(rules=(("misleading", 1),)))
        T = nl.matrix_from_pairs(out.clean_labels, out.noisy_labels, 3)
        assert abs(T.rows[0, 0] - 0.7) < 0.05
        assert abs(T.rows[0, 1] - 0.3) < 0.05

    def test_empty_ruleset(self):
        ds = self._corpus(["text"], [0])
        with pytest.raises(ConfigError):
            nl.inject_rules(ds, nl.RuleSet(rules=()))


class TestFdr:
    def test_quarter(self):
        assert nl.fdr([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25

    def test_zero(self):
        assert nl.fdr([0, 1, 2], [0, 1, 2]) == 0.0

    def test_yoruba_level_fixture(self):
        # fixture constructed to carry exactly 33.28% corrupted positions
        n = 10_000
        clean = np.zeros(n, dtype=np.int64)
        noisy = clean.copy()
        noisy[:3328] = 1
        assert nl.fdr(clean, noisy) == pytest.approx(0.3328)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nl.fdr([0, 1], [0])


class TestDiagDominant:
    def test_uniform_07_dominant(self):
        assert nl.diag_dominant(nl.uniform_matrix(4, 0.7)) is True

    def test_sflip_boundary(self):
        assert nl.diag_dominant(nl.single_flip_matrix(3, 0.5)) is False

    def test_hausa_like_row(self):
        # one class's off-diagonal mass to a single wrong class beats the diagonal
        rows = np.array(
            [
                [0.8, 0.1, 0.1],
                [0.2, 0.3, 0.5],
                [0.1, 0.1, 0.8],
            ]
        )
        assert nl.diag_dominant(nl.TransitionMatrix(k=3, rows=rows)) is False


class TestProperties:
    @given(k=st.integers(2, 6), eps=st.floats(0.0, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_constructors_row_stochastic(self, k, eps):
        for T in (nl.uniform_matrix(k, eps), nl.single_flip_matrix(k, eps)):
            assert np.all(np.abs(T.rows.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all(T.rows >= 0) and np.all(T.rows <= 1)

    def test_sparsity_pattern(self):
        assert np.all(np.count_nonzero(nl.single_flip_matrix(5, 0.3).rows, axis=1) <= 2)
        assert np.all(np.count_nonzero(nl.uniform_matrix(5, 0.3).rows, axis=1) == 5)

    def test_inject_then_estimate_converges(self):
        rng = np.random.default_rng(10)
        clean = rng.integers(0, 5, 100_000)
        T = nl.uniform_matrix(5, 0.45)
        est = nl.matrix_from_pairs(clean, nl.inject(clean, T, 11), 5)
        assert np.max(np.abs(est.rows - T.rows)) < 0.01

    def test_fdr_concentration(self):
        eps = 0.3
        n = 100_000
        clean = np.random.default_rng(12).integers(0, 4, n)
        noisy = nl.inject(clean, nl.uniform_matrix(4, eps), 13)
        assert abs(nl.fdr(clean, noisy) - eps) < 3 * np.sqrt(eps * (1 - eps) / n)


class TestMatrixIO:
    def test_csv_round_trip(self, tmp_path):
        T = nl.uniform_matrix(4, 0.35)
        path = tmp_path / "m.csv"
        T.save_csv(path)
        back = nl.TransitionMatrix.load_csv(path)
        assert np.allclose(back.rows, T.rows, atol=1e-12)

    def test_non_stochastic_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.9,0.9\n")
        with pytest.raises(DomainError, match="row 1"):
            nl.TransitionMatrix.load_csv(path)
