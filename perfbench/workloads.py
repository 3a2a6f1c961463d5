"""Workload inputs, generated from the seed, and the CLI command sequences.

Each workload writes its inputs (YAML configs, JSONL corpora, keyword rules)
once per run; the program sees only those files. Every sequence then runs
into a fresh directory, so its artifacts can be counted and checked.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import yaml

K = 4


# ------------------------------------------------------------ text corpus


def keyword_corpus(rng, n: int, doc_len: int):
    """Documents of doc_len/2 to 3*doc_len/2 words over per-class vocabularies.

    Each class owns 200 topic words and 8 keywords; half of a document's
    words come from its class, the rest from 400 shared filler words. A
    document carries 0, 1 or 2 keywords, each from a foreign class with
    probability 0.35, so the keyword rules mislabel documents by their
    content (feature-dependent noise). Returns (records, rules).
    """
    labels = rng.integers(0, K, size=n)
    lengths = rng.integers(doc_len // 2, doc_len + doc_len // 2 + 1, size=n)
    records = []
    for i in range(n):
        y = int(labels[i])
        m = int(lengths[i])
        own = rng.random(m) < 0.5
        topic = rng.integers(0, 200, size=m)
        filler = rng.integers(0, 400, size=m)
        words = [f"c{y}w{t}" if o else f"fw{f}" for o, t, f in zip(own, topic, filler)]
        for _ in range(int(rng.choice(3, p=[0.2, 0.5, 0.3]))):
            c = int(rng.integers(0, K)) if rng.random() < 0.35 else y
            words.insert(int(rng.integers(0, len(words) + 1)), f"kw{c}x{int(rng.integers(0, 8))}")
        records.append({"id": f"d{i}", "text": " ".join(words), "clean_label": y})
    rules = [{"keyword": f"kw{c}x{j}", "class": c} for c in range(K) for j in range(8)]
    order = rng.permutation(len(rules))
    return records, [rules[i] for i in order]


def expected_rule_labels(records, rules) -> list[int]:
    """First-match whole-token keyword labels, abstaining to the clean label."""
    out = []
    for rec in records:
        toks = set(rec["text"].lower().split())
        out.append(
            next((r["class"] for r in rules if r["keyword"] in toks), rec["clean_label"])
        )
    return out


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def _seeds(rng, *names):
    return {name: int(s) for name, s in zip(names, rng.integers(0, 2**31, size=len(names)))}


def _write_yaml(path: Path, cfg: dict) -> Path:
    path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    return path


# -------------------------------------------------------------- workloads

# The README config's strategies, with ``matrix: "true"`` quoted: unquoted it
# parses as a YAML bool that ``_build_strategy`` hands to ``np.loadtxt``.
# ``nmwr`` is left out: its learned matrix can push every noisy-head output
# under the clamp, and the run then fails on some seeds (README.md, "Known
# defects"). Were it kept, it would need ``lambda``: the schema rejects ``lam``.
README_STRATEGIES = [
    {"name": "vanilla"},
    {"name": "no_validation"},
    {"name": "nmat", "matrix": "true"},
    {"name": "coteaching"},
    {"name": "label_smoothing", "alpha": 0.1},
]

# With 3,200 training rows, batch 32 and eval_every 100, one epoch is 100
# steps. Patience 10 cannot end a run before step 1,100, so 10 epochs give
# every early-stopped strategy the same 1,000 steps whatever the seed.
SYNTH_EPOCHS = 10


def synth_inputs(rng, inputs: Path) -> dict:
    s = _seeds(rng, "data", "split", "noise", "train")
    cfg = {
        "dataset": {"synth": {"k": K, "n": 4000, "margin": 0.7, "seed": s["data"]}},
        "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": s["split"]},
        "noise": {"type": "uniform", "level": 0.4, "seed": s["noise"]},
        "strategies": README_STRATEGIES,
        "train": {
            "lr": 0.5,
            "batch_size": 32,
            "max_epochs": SYNTH_EPOCHS,
            "eval_every": 100,
            "patience": 10,
            "seed": s["train"],
            "arch": "mlp",
            "hidden": 64,
        },
        "trials": 1,
        "output_dir": "OUT",
    }
    return {"config": cfg}


def text_mlp_inputs(rng, inputs: Path) -> dict:
    records, rules = keyword_corpus(rng, n=800, doc_len=12)
    _write_jsonl(inputs / "clean.jsonl", records)
    _write_jsonl(inputs / "rules.jsonl", rules)
    noisy = expected_rule_labels(records, rules)
    fdr = float(np.mean([r["clean_label"] != y for r, y in zip(records, noisy)]))
    s = _seeds(rng, "split", "train")
    cfg = {
        "dataset": {"path": "NOISY", "k": K, "featurize_dims": 2**18},
        "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": s["split"]},
        "noise": {"type": "rules", "rules": str(inputs / "rules.jsonl")},
        "strategies": [{"name": "vanilla"}],
        "train": {
            "lr": 0.5,
            "batch_size": 32,
            "max_epochs": 1,
            "eval_every": 5,
            "patience": 10,
            "seed": s["train"],
            "arch": "mlp",
            "hidden": 64,
        },
        "trials": 1,
        "output_dir": "OUT",
    }
    return {"config": cfg, "fdr_line": f"fdr: {fdr:.4f}", "noisy_labels": noisy}


def _sweep_config(inputs: dict, seq: Path) -> Path:
    cfg = json.loads(json.dumps(inputs["config"]))
    cfg["output_dir"] = str(seq / "out")
    if cfg["dataset"].get("path") == "NOISY":
        cfg["dataset"]["path"] = str(seq / "noisy.jsonl")
    return _write_yaml(seq / "config.yaml", cfg)


def run_report(inputs: dict, seq: Path):
    return [
        ["run", str(_sweep_config(inputs, seq))],
        ["report", str(seq / "out"), "--output", str(seq / "report.csv")],
    ]


def inject_run_report_diagnose(inputs: dict, seq: Path):
    root = Path(inputs["dir"])
    inject = [
        "inject", "--input", str(root / "clean.jsonl"), "--output", str(seq / "noisy.jsonl"),
        "--k", str(K), "--type", "rules", "--rules", str(root / "rules.jsonl"),
    ]
    return [inject] + run_report(inputs, seq) + [["diagnose", str(seq / "out" / "vanilla" / "trial_0")]]


# name -> (input maker, command sequence); why each exists: README.md.
WORKLOADS = {
    "synth_sweep": (synth_inputs, run_report),
    "text_mlp": (text_mlp_inputs, inject_run_report_diagnose),
}


def make_inputs(name: str, seed: int, inputs: Path) -> dict:
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    made = WORKLOADS[name][0](rng, inputs)
    made["dir"] = str(inputs)
    return made


def commands(name: str, inputs: dict, seq: Path) -> list[list[str]]:
    return WORKLOADS[name][1](inputs, seq)
