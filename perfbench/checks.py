"""Output checks for one command sequence.

Each check recomputes a published number from the run's own inputs or raw
artifacts, by a route independent of the program's code, and compares. The
caller also compares the digests returned here across the sequences of a run
(reruns must be byte-identical) and with the digests recorded for the seed in
``references.json``. Every run's ``record.jsonl`` (train loss at full
precision), ``summary.json`` and snapshot losses are digested, so a change in
training numerics shows even where the published tables round it away.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

AUC_TOL = 1e-9


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def mann_whitney_auc(losses, is_wrong) -> float:
    """P(loss of a wrong label > loss of a right one), ties counted half."""
    ranks = rankdata(losses)
    n_wrong = int(is_wrong.sum())
    n_right = len(is_wrong) - n_wrong
    return (ranks[is_wrong].sum() - n_wrong * (n_wrong + 1) / 2) / (n_wrong * n_right)


def _snapshot(run_dir: Path):
    """(losses, is_wrong) from a run's ``snapshot.npz``."""
    with np.load(run_dir / "snapshot.npz") as z:
        return z["losses"], z["is_wrong"].astype(bool)


def run_digests(rel: str, run_dir: Path, losses) -> dict[str, str]:
    """Digests of one run's numerics. The losses are hashed as an array, not
    as the ``.npz`` file, whose zip entries carry the time they were written."""
    return {
        f"{rel}/record.jsonl": digest(run_dir / "record.jsonl"),
        f"{rel}/summary.json": digest(run_dir / "summary.json"),
        f"{rel}/snapshot.losses": hashlib.sha256(np.ascontiguousarray(losses).tobytes()).hexdigest(),
    }


def expected_report(summaries: list[dict]) -> str:
    """``noisylab report`` output: mean±std over trials in %, per strategy."""
    groups = defaultdict(list)
    for s in summaries:
        groups[s["strategy"]].append(s)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["strategy", "trials", "best_test_acc", "memorization_gap", "auc"])
    for name in sorted(groups):
        g = groups[name]
        accs = np.array([s["best_test_acc"] for s in g]) * 100.0
        gaps = np.array([s["best_test_acc"] - s["final_test_acc"] for s in g]) * 100.0
        aucs = [s["auc"] for s in g if s.get("auc") is not None]
        std = float(np.std(accs, ddof=1)) if len(g) > 1 else 0.0
        w.writerow([
            name,
            len(g),
            f"{float(np.mean(accs)):.2f}±{std:.2f}",
            f"{float(np.mean(gaps)):.2f}",
            f"{float(np.mean(aucs)):.4f}" if aucs else "",
        ])
    return buf.getvalue()


def _check_roc_csv(path: Path, auc: float, n_distinct: int) -> str | None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    thresholds = [float(r[0]) for r in rows]
    fpr = np.array([float(r[1]) for r in rows])
    tpr = np.array([float(r[2]) for r in rows])
    if len(rows) != n_distinct + 1:
        return f"{len(rows)} ROC points for {n_distinct} distinct losses"
    if thresholds[0] != float("inf") or (fpr[0], tpr[0]) != (0.0, 0.0):
        return "ROC does not start at (inf, 0, 0)"
    if (fpr[-1], tpr[-1]) != (1.0, 1.0) or np.any(np.diff(thresholds) >= 0):
        return "ROC does not end at (1, 1) with decreasing thresholds"
    area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))
    if abs(area - auc) > AUC_TOL:
        return f"ROC area {area!r} != Mann-Whitney AUC {auc!r}"
    return None


def _check_diagnose_report(path: Path, summary: dict, auc: float) -> str | None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    want = [auc, summary["best_val_acc"], summary["best_test_acc"], summary["final_test_acc"]]
    if len(rows) != 2 or rows[1][0] != summary["strategy"]:
        return f"unexpected rows {rows!r}"
    got = [float(x) for x in rows[1][1:]]
    if any(abs(g - w) > 5e-7 for g, w in zip(got, want)):
        return f"row {rows[1]!r} != {want!r}"
    return None


def check_sequence(inputs: dict, seq: Path, stdout: dict[str, str]):
    """Returns ``(results, digests)``: ``(check name, problem or None)`` per
    check, and the sha256 of each published output."""
    out = seq / "out"
    cfg = inputs["config"]
    results = []
    digests = {}

    def check(name: str, problem: str | None):
        results.append((name, problem))

    markers = sorted(str(p.relative_to(out)) for p in out.rglob("FAILED"))
    check("failed-markers", f"FAILED in {markers}" if markers else None)

    run_dirs = sorted(p.parent for p in out.rglob("summary.json"))
    want_runs = len(cfg["strategies"]) * cfg["trials"]
    check("runs", None if len(run_dirs) == want_runs else f"{len(run_dirs)} of {want_runs} runs")
    summaries = [json.loads((d / "summary.json").read_text()) for d in run_dirs]
    bad_auc = []
    for d, s in zip(run_dirs, summaries):
        rel = d.relative_to(out).as_posix()
        losses, is_wrong = _snapshot(d)
        if s["auc"] is None or abs(s["auc"] - mann_whitney_auc(losses, is_wrong)) > AUC_TOL:
            bad_auc.append(rel)
        digests.update(run_digests(rel, d, losses))
    check("summary-auc", f"AUC differs from the snapshot's in {bad_auc}" if bad_auc else None)

    report = seq / "report.csv"
    text = report.read_bytes().decode("utf-8") if report.exists() else ""
    check("report.csv", None if text == expected_report(summaries) else "differs from summaries")
    digests["report.csv"] = digest(report) if report.exists() else ""

    if "fdr_line" in inputs:
        printed = stdout.get("inject", "").splitlines()[:1]
        check("inject-fdr", None if printed == [inputs["fdr_line"]] else f"printed {printed}")
        with open(seq / "noisy.jsonl", encoding="utf-8") as f:
            noisy = [json.loads(line)["noisy_label"] for line in f]
        check("inject-labels", None if noisy == inputs["noisy_labels"] else "differ from the rules")

        run_dir = out / "vanilla" / "trial_0"
        losses, is_wrong = _snapshot(run_dir)
        auc = mann_whitney_auc(losses, is_wrong)
        check("roc.csv", _check_roc_csv(run_dir / "roc.csv", auc, len(np.unique(losses))))
        summary = json.loads((run_dir / "summary.json").read_text())
        check("diagnose-report.csv", _check_diagnose_report(run_dir / "report.csv", summary, auc))
        digests["roc.csv"] = digest(run_dir / "roc.csv")
        digests["diagnose-report.csv"] = digest(run_dir / "report.csv")
    return results, digests
