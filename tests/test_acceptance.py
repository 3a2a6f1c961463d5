"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy fixtures (the 4-class MLP run with 40% uniform noise that exhibits the
peak-then-memorize curve) are module-scoped and shared across criteria.
"""

import dataclasses

import numpy as np
import pytest
import yaml

import noisylab as nl
from noisylab.cli import main as cli_main
from noisylab.model import CrossEntropy, SmoothedCrossEntropy, softmax, step
from noisylab.model import Batch
from noisylab.strategies import NMatCorrectedCE, NMwRTrainableLoss
from conftest import keyword_corpus, keyword_rules, mann_whitney_auc, with_noise

EPS_LEVELS = [0.0, 0.2, 0.4, 0.45, 0.6, 0.7]
K_LEVELS = [2, 3, 4, 10]


def check(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {verdict} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------- fixtures

MEMO_CFG = nl.TrainConfig(
    lr=0.5,
    batch_size=32,
    max_epochs=100,
    eval_every=100,
    patience=10**9,
    seed=20,
    arch="mlp",
    hidden=128,
)


@pytest.fixture(scope="module")
def memo_splits():
    """k=4, n=4000 synthetic data with 40% uniform noise on train and val.

    The low margin and extra per-example features let the MLP fit the noise
    within the epoch budget, which produces the peak-then-decline curve.
    """
    ds = nl.synth_dataset(k=4, n=4000, margin=0.5, seed=11, noise_size=32)
    tr, va, te = nl.split(ds, nl.SplitSpec((0.8, 0.1, 0.1), seed=12))
    tr = with_noise(tr, 0.4, seed=13)
    va = with_noise(va, 0.4, seed=14)
    return tr, va, te


def _run_strategy(splits, strategy, cfg=MEMO_CFG):
    tr, va, te = splits
    rec, best, final = nl.train(tr, va, te, strategy, cfg)
    snap = nl.snapshot_losses(best, tr, step=rec.best_step)
    return rec, nl.roc(snap).auc


@pytest.fixture(scope="module")
def memo_runs(memo_splits):
    tr, _, _ = memo_splits
    T = nl.uniform_matrix(4, 0.4)
    strategies = {
        "vanilla": nl.Vanilla(),
        "no_validation": nl.NoValidation(),
        "nmat": nl.NMat(T=T),
        # lambda picked from the {1e-4, 1e-3, 1e-2} sweep: at lr=1.0 the
        # stronger settings decay M to zero and clamp out the noisy head
        "nmwr": nl.NMwR(lam=1e-4),
        "coteaching": nl.CoTeaching(eps=0.4, ramp_epochs=5),
        "label_smoothing": nl.LabelSmoothing(alpha=0.1),
    }
    return {name: _run_strategy(memo_splits, s) for name, s in strategies.items()}


# ---------------------------------------------------------------- criteria


def test_criterion_1_noise_model_exactness():
    ok = True
    for k in K_LEVELS:
        for eps in EPS_LEVELS:
            U = nl.uniform_matrix(k, eps).rows
            expect_u = np.full((k, k), eps / (k - 1))
            np.fill_diagonal(expect_u, 1.0 - eps)
            ok &= np.array_equal(U, expect_u)
            ok &= bool(np.all(np.abs(U.sum(axis=1) - 1.0) <= 1e-9))
            S = nl.single_flip_matrix(k, eps).rows
            expect_s = np.zeros((k, k))
            for i in range(k):
                expect_s[i, i] = 1.0 - eps
                expect_s[i, (i + 1) % k] += eps
            ok &= np.array_equal(S, expect_s)
            ok &= bool(np.all(np.abs(S.sum(axis=1) - 1.0) <= 1e-9))
    check(1, ok, f"parametric matrices exact for k in {K_LEVELS}, eps in {EPS_LEVELS}")


def test_criterion_2_injection_statistics():
    n = 100_000
    k = 4
    clean = np.random.default_rng(0).integers(0, k, n)
    worst_fdr_excess = 0.0
    worst_entry = 0.0
    for i, eps in enumerate(EPS_LEVELS):
        T = nl.uniform_matrix(k, eps)
        noisy = nl.inject(clean, T, seed=1000 + i)
        tol = 3 * np.sqrt(eps * (1 - eps) / n)
        worst_fdr_excess = max(worst_fdr_excess, abs(nl.fdr(clean, noisy) - eps) - tol)
        est = nl.matrix_from_pairs(clean, noisy, k)
        worst_entry = max(worst_entry, float(np.max(np.abs(est.rows - T.rows))))
    ok = worst_fdr_excess <= 0 and worst_entry < 0.01
    check(2, ok, f"max entrywise estimation error {worst_entry:.4f} < 0.01")


def _dlogits_fd(loss_fn, z, y, h=1e-6):
    k = z.shape[1]
    num = np.zeros(k)
    for i in range(k):
        up = z.copy(); up[0, i] += h
        dn = z.copy(); dn[0, i] -= h
        num[i] = (
            loss_fn.per_sample(softmax(up), y)[0][0]
            - loss_fn.per_sample(softmax(dn), y)[0][0]
        ) / (2 * h)
    return num


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(2, 6))
        z = rng.normal(size=(1, k)) * 2
        y = np.array([int(rng.integers(0, k))])
        T = nl.uniform_matrix(k, float(rng.uniform(0.1, 0.7)))
        nmwr = NMwRTrainableLoss(k, lam=0.01)
        # non-negative entries keep the noisy head away from the clamp kink,
        # where the loss is locally constant and finite differences vanish
        nmwr.M = np.eye(k) + rng.uniform(0.0, 0.2, size=(k, k))
        for fn in (
            CrossEntropy(),
            SmoothedCrossEntropy(0.1),
            NMatCorrectedCE(T),
            nmwr,
        ):
            _, g = fn.per_sample(softmax(z), y)
            num = _dlogits_fd(fn, z, y)
            worst = max(worst, np.linalg.norm(g[0] - num) / max(np.linalg.norm(num), 1e-12))
        # NMwR gradient w.r.t. the learned matrix: per_sample leaves it in _dM
        nmwr.per_sample(softmax(z), y)
        g_M = nmwr._dM
        M = nmwr.M
        num_M = np.zeros_like(M)
        h = 1e-6

        def loss_at(M_pert):
            nmwr.M = M_pert
            return nmwr.per_sample(softmax(z), y)[0][0]

        for i in range(k):
            for j in range(k):
                up = M.copy(); up[i, j] += h
                dn = M.copy(); dn[i, j] -= h
                num_M[i, j] = (loss_at(up) - loss_at(dn)) / (2 * h)
        worst = max(worst, np.linalg.norm(g_M - num_M) / max(np.linalg.norm(num_M), 1e-12))
    ok = worst < 1e-5
    check(3, ok, f"worst relative gradient error {worst:.2e} < 1e-5")


def test_criterion_4_strategy_degeneracy_identities():
    ds = nl.synth_dataset(k=4, n=500, margin=0.8, seed=40)
    tr, va, te = nl.split(ds, nl.SplitSpec((0.8, 0.1, 0.1), seed=41))
    tr = with_noise(tr, 0.4, seed=42)
    va = with_noise(va, 0.4, seed=43)
    cfg = nl.TrainConfig(lr=1.0, batch_size=32, max_epochs=3, eval_every=5, patience=10**9, seed=44)
    rec_v, _, _ = nl.train(tr, va, te, nl.Vanilla(), cfg)
    rec_nmat, _, _ = nl.train(
        tr, va, te, nl.NMat(T=nl.TransitionMatrix(k=4, rows=np.eye(4))), cfg
    )
    rec_ls, _, _ = nl.train(tr, va, te, nl.LabelSmoothing(alpha=0.0), cfg)

    def coincide(a, b):
        return len(a.entries) == len(b.entries) and all(
            x.step == y.step
            and abs(x.train_loss - y.train_loss) <= 1e-12
            and abs(x.val_acc - y.val_acc) <= 1e-12
            and abs(x.test_acc - y.test_acc) <= 1e-12
            for x, y in zip(a.entries, b.entries)
        )

    ok_nmat = coincide(rec_v, rec_nmat)
    ok_ls = coincide(rec_v, rec_ls)

    # NMwR(M=I, lambda=0): step-0 gradients to model parameters match Vanilla
    from noisylab.data import feature_matrix

    X = feature_matrix(tr)[:32]
    y = tr.noisy_labels[:32]
    p0 = nl.init_params(tr.dims, 4, seed=44)
    p_ce, _ = step(p0, Batch(X, y), lr=1.0, loss_fn=CrossEntropy())
    p_nmwr, _ = step(p0, Batch(X, y), lr=1.0, loss_fn=NMwRTrainableLoss(4, 0.0))
    ok_nmwr = (
        np.max(np.abs(p_ce.w1 - p_nmwr.w1)) <= 1e-12
        and np.max(np.abs(p_ce.b1 - p_nmwr.b1)) <= 1e-12
    )
    check(
        4,
        ok_nmat and ok_ls and ok_nmwr,
        f"NMat(I)={ok_nmat} LS(0)={ok_ls} NMwR(I,0) step0={ok_nmwr}",
    )


def test_criterion_5_figure1_phenomenon(memo_runs):
    rec_v, _ = memo_runs["vanilla"]
    gap = rec_v.best_entry.test_acc - rec_v.final_entry.test_acc
    rec_nv, _ = memo_runs["no_validation"]
    nv_acc = rec_nv.final_entry.test_acc
    ok = gap >= 0.05 and nv_acc < rec_v.best_entry.test_acc
    check(
        5,
        ok,
        f"memorization gap {gap:.3f} >= 0.05; NV final {nv_acc:.3f} < "
        f"early-stopped {rec_v.best_entry.test_acc:.3f}",
    )


def test_criterion_6_auc_oracle_equivalence():
    rng = np.random.default_rng(60)
    worst = 0.0
    done = 0
    while done < 50:
        n = int(rng.integers(10, 201))
        losses = np.round(rng.random(n) * 5, 1)  # ties on purpose
        is_wrong = rng.random(n) < rng.uniform(0.1, 0.9)
        if is_wrong.all() or not is_wrong.any():
            continue
        snap = nl.LossSnapshot(losses=losses, is_wrong=is_wrong, step=0)
        worst = max(worst, abs(nl.roc(snap).auc - mann_whitney_auc(losses, is_wrong)))
        done += 1
    ok = worst < 1e-9
    check(6, ok, f"max |trapezoid - Mann-Whitney| = {worst:.2e} < 1e-9")


def test_criterion_7_separability_trend():
    corpus = keyword_corpus(k=4, n=3000, ambiguous_frac=0.3, seed=101)
    cfg = nl.TrainConfig(
        lr=1.0, batch_size=32, max_epochs=20, eval_every=25, patience=10, seed=31
    )

    def run(noisy_ds):
        feats = nl.featurize(noisy_ds, 2**12)
        tr, va, te = nl.split(feats, nl.SplitSpec((0.8, 0.1, 0.1), seed=7))
        rec, best, _ = nl.train(tr, va, te, nl.Vanilla(), cfg)
        snap = nl.snapshot_losses(best, tr, step=rec.best_step)
        return nl.roc(snap).auc, nl.fdr(tr.clean_labels, tr.noisy_labels)

    auc_rule, fdr_rule = run(nl.inject_rules(corpus, keyword_rules(4)))
    uni = dataclasses.replace(
        corpus,
        noisy_labels=nl.inject(corpus.clean_labels, nl.uniform_matrix(4, 0.3), 77),
    )
    auc_uni, fdr_uni = run(uni)
    matched = abs(fdr_rule - 0.3) < 0.05 and abs(fdr_uni - 0.3) < 0.05
    ok = matched and (auc_uni - auc_rule) >= 0.05
    check(
        7,
        ok,
        f"AUC uniform {auc_uni:.3f} vs rule-based {auc_rule:.3f} "
        f"(FDRs {fdr_uni:.3f}/{fdr_rule:.3f})",
    )


def test_criterion_8_separability_non_improvement(memo_runs):
    vanilla_auc = memo_runs["vanilla"][1]
    others = {name: auc for name, (_, auc) in memo_runs.items() if name != "vanilla"}
    excess = max(others.values()) - vanilla_auc
    ok = excess <= 0.05
    check(
        8,
        ok,
        f"max strategy AUC - vanilla AUC = {excess:.3f} <= 0.05 "
        f"(vanilla {vanilla_auc:.3f}, others {sorted((round(v, 3) for v in others.values()))})",
    )


def test_criterion_9_validation_policy_gap(memo_splits, memo_runs):
    tr, va, te = memo_splits
    a, b, gap = nl.compare_val_policies(tr, va, te, nl.Vanilla(), MEMO_CFG)
    rec_v, _ = memo_runs["vanilla"]
    memo_gap = rec_v.best_entry.test_acc - rec_v.final_entry.test_acc
    ok = gap < memo_gap
    check(9, ok, f"policy gap {gap:.4f} < memorization gap {memo_gap:.4f}")


def test_criterion_10_end_to_end_determinism(tmp_path):
    def config(out):
        return {
            "dataset": {"synth": {"k": 3, "n": 300, "margin": 0.8, "seed": 1, "dims": 256}},
            "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 2},
            "noise": {"type": "uniform", "level": 0.3, "seed": 3},
            "strategies": [{"name": "vanilla"}, {"name": "label_smoothing", "alpha": 0.1}],
            "train": {
                "lr": 1.0,
                "batch_size": 32,
                "max_epochs": 3,
                "eval_every": 5,
                "patience": 50,
                "seed": 10,
            },
            "trials": 2,
            "output_dir": str(tmp_path / out),
        }

    reports = []
    for i, out in enumerate(("out_a", "out_b")):
        cfg_path = tmp_path / f"cfg_{i}.yaml"
        cfg_path.write_text(yaml.safe_dump(config(out)))
        assert cli_main(["run", str(cfg_path)]) == 0
        report = tmp_path / f"report_{i}.csv"
        assert cli_main(["report", str(tmp_path / out), "--output", str(report)]) == 0
        reports.append(report.read_bytes())
    ok = reports[0] == reports[1]
    check(10, ok, "two sweep executions produced byte-identical report CSVs")
