"""Experiment runner: corrupt datasets, sweep strategies over seeds,
aggregate mean/std tables, and emit plot-ready diagnostics CSVs.

Subcommands: inject, run, report, diagnose. The run config is a YAML tree
with strict unknown-key rejection so hyperparameter typos fail loudly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

import numpy as np
import yaml

from . import data as data_mod
from . import diagnostics as diag_mod
from . import model as model_mod
from . import noise as noise_mod
from . import strategies as strat_mod
from . import trainer as trainer_mod
from .errors import ConfigError, DegenerateClassError, NoisyLabError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3

FAILURE_MARKER = "FAILED"

_CONFIG_SCHEMA = {
    "dataset": {
        "synth": {"k", "n", "margin", "seed", "dims"},
        "path": None,
        "k": None,
        "featurize_dims": None,
    },
    "split": {"train", "val", "test", "seed"},
    "noise": {"type", "level", "seed", "matrix", "rules", "abstain_to_clean"},
    "strategies": None,  # each entry takes its strategy's fields
    "train": None,  # TrainConfig's fields
    "trials": None,
    "output_dir": None,
}

# The parameter each noise type cannot do without.
_NOISE_NEEDS = {"uniform": "level", "sflip": "level", "matrix": "matrix", "rules": "rules"}

_STRATEGIES = {cls.name: cls for cls in typing.get_args(strat_mod.Strategy)}


def _check_keys(block: dict, allowed, where: str) -> None:
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _typed(value, tp, what: str):
    """A config value converted to ``tp``; a bool, or a fractional int, is rejected."""
    try:
        out = tp(value)
        if isinstance(value, bool) or (tp is int and out != float(value)):
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be {tp.__name__}, got {value!r}") from None
    return out


def _from_config(cls, block, where: str, **resolved):
    """Build the dataclass ``cls`` from a config block keyed by its field names.

    Each value is converted to its field's declared type. ``resolved`` holds
    fields the caller works out itself; the block may not set those.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    hints = typing.get_type_hints(cls)
    types = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    _check_keys(block, set(types) - set(resolved), where)
    kwargs = dict(resolved)
    for key, value in block.items():
        kwargs[key] = _typed(value, types[key], f"{where}: {key}")
    return cls(**kwargs)


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as f:
        cfg = yaml.safe_load(f)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(cfg, _CONFIG_SCHEMA, "config")
    for key in ("dataset", "strategies", "train", "output_dir"):
        if key not in cfg:
            raise ConfigError(f"config missing required key {key!r}")
    _check_keys(cfg["dataset"], _CONFIG_SCHEMA["dataset"], "dataset")
    if "synth" in cfg["dataset"]:
        _check_keys(cfg["dataset"]["synth"], _CONFIG_SCHEMA["dataset"]["synth"], "dataset.synth")
    if "split" in cfg:
        _check_keys(cfg["split"], _CONFIG_SCHEMA["split"], "split")
    noise = cfg.get("noise")
    if not noise:
        raise ConfigError("config needs a noise block")
    _check_keys(noise, _CONFIG_SCHEMA["noise"], "noise")
    needs = _NOISE_NEEDS.get(noise.get("type"))
    if needs is None:
        raise ConfigError(f"unknown noise type {noise.get('type')!r}")
    if needs not in noise:
        raise ConfigError(f"noise type {noise['type']} needs {needs}")
    if needs == "rules" and "synth" in cfg["dataset"]:
        raise ConfigError("rule noise needs a text dataset, not synth")
    _from_config(trainer_mod.TrainConfig, cfg["train"], "train")
    if not isinstance(cfg["strategies"], list) or not cfg["strategies"]:
        raise ConfigError("strategies must be a non-empty list")
    for s in cfg["strategies"]:
        _build_strategy(s, true_T=None, realized_fdr=0.0)
    if _typed(cfg.get("trials", 1), int, "trials") < 1:
        raise ConfigError("trials must be >= 1")
    return cfg


def _build_dataset(cfg: dict):
    """The featurized dataset, split into (train, val, test)."""
    ds_cfg = cfg["dataset"]
    if "synth" in ds_cfg:
        if "path" in ds_cfg:
            raise ConfigError("dataset: give either synth or path, not both")
        try:
            ds = data_mod.synth_dataset(**ds_cfg["synth"])
        except TypeError as e:  # a missing or mistyped parameter
            raise ConfigError(f"dataset.synth: {e}") from None
    else:
        if "path" not in ds_cfg or "k" not in ds_cfg:
            raise ConfigError("dataset needs path and k (or a synth block)")
        ds = data_mod.load_jsonl(ds_cfg["path"], _typed(ds_cfg["k"], int, "dataset: k"))
        dims = _typed(ds_cfg.get("featurize_dims", 2**18), int, "dataset: featurize_dims")
        ds = data_mod.featurize(ds, dims)
    split_cfg = cfg.get("split", {})
    spec = data_mod.SplitSpec(
        fractions=tuple(
            _typed(split_cfg.get(key, default), float, f"split: {key}")
            for key, default in (("train", 0.8), ("val", 0.1), ("test", 0.1))
        ),
        seed=_typed(split_cfg.get("seed", 0), int, "split: seed"),
    )
    return data_mod.split(ds, spec)


def _corrupt(ds, noise_cfg: dict, seed: int):
    """Draw noisy labels for ``ds``; returns (ds, T). Rule noise may drop
    examples, and its T is the empirical matrix of the pairs it produced."""
    kind = noise_cfg["type"]
    if kind == "rules":
        rules = noise_mod.RuleSet.load_jsonl(
            noise_cfg["rules"],
            abstain_to_clean=bool(noise_cfg.get("abstain_to_clean", True)),
        )
        ds = noise_mod.inject_rules(ds, rules)
        return ds, noise_mod.matrix_from_pairs(ds.clean_labels, ds.noisy_labels, ds.k)
    if kind == "matrix":
        T = noise_mod.TransitionMatrix.load_csv(noise_cfg["matrix"])
    else:
        family = noise_mod.uniform_matrix if kind == "uniform" else noise_mod.single_flip_matrix
        T = family(ds.k, _typed(noise_cfg["level"], float, "noise: level"))
    return dataclasses.replace(ds, noisy_labels=noise_mod.inject(ds.clean_labels, T, seed)), T


def _apply_noise(splits, noise_cfg: dict):
    """Corrupt train and val; test stays clean. Returns (splits, true T, eps)."""
    train_ds, val_ds, test_ds = splits
    seed = _typed(noise_cfg.get("seed", 0), int, "noise: seed")
    train_ds, T = _corrupt(train_ds, noise_cfg, seed)
    val_ds, _ = _corrupt(val_ds, noise_cfg, seed + 1)
    eps = noise_mod.fdr(train_ds.clean_labels, train_ds.noisy_labels)
    return (train_ds, val_ds, test_ds), T, eps


def _build_strategy(s_cfg, true_T, realized_fdr: float):
    """A strategy from its config entry: ``name`` plus the class's fields.

    NMat takes ``matrix`` (true: the generator matrix; else a CSV path) in
    place of ``T``; CoTeaching's ``eps`` defaults to the realized FDR.
    """
    if not isinstance(s_cfg, dict):
        raise ConfigError(f"strategy entry must be a mapping, got {s_cfg!r}")
    block = dict(s_cfg)
    name = block.pop("name", None)
    if name not in _STRATEGIES:
        raise ConfigError(f"unknown strategy {name!r}")
    cls = _STRATEGIES[name]
    resolved = {}
    if cls is strat_mod.NMat:
        matrix = block.pop("matrix", True)
        use_true = matrix is True or matrix == "true"
        resolved["T"] = true_T if use_true else noise_mod.TransitionMatrix.load_csv(matrix)
    if cls is strat_mod.CoTeaching and "eps" not in block:
        resolved["eps"] = realized_fdr
    return _from_config(cls, block, f"strategy {name}", **resolved)


def cmd_inject(args) -> int:
    needs = _NOISE_NEEDS[args.type]
    given = {f for f in ("level", "matrix", "rules") if getattr(args, f) is not None}
    if given != {needs}:
        print(f"inject: --type {args.type} takes exactly --{needs}", file=sys.stderr)
        return EXIT_USAGE

    try:
        ds = data_mod.load_jsonl(args.input, args.k)
        if ds.clean_labels is None:
            raise ConfigError("input has no clean_label field")
        out, T = _corrupt(ds, vars(args), args.seed)
        data_mod.write_jsonl(out, args.output)
    except (NoisyLabError, OSError) as e:
        print(f"inject: {e}", file=sys.stderr)
        return EXIT_FAILURE
    realized = noise_mod.fdr(out.clean_labels, out.noisy_labels)
    print(f"fdr: {realized:.4f}")
    print(f"diag_dominant: {str(noise_mod.diag_dominant(T)).lower()}")
    return EXIT_OK


def run_sweep(cfg: dict) -> int:
    """Train every strategy x trial and write artifacts; returns exit code."""
    try:
        splits, true_T, realized_fdr = _apply_noise(_build_dataset(cfg), cfg["noise"])
        strategies = [_build_strategy(s, true_T, realized_fdr) for s in cfg["strategies"]]
    except (NoisyLabError, OSError) as e:
        print(f"run: {e}", file=sys.stderr)
        return EXIT_USAGE
    train_ds, val_ds, test_ds = splits
    base_cfg = _from_config(trainer_mod.TrainConfig, cfg["train"], "train")
    trials = int(cfg.get("trials", 1))
    out_root = Path(cfg["output_dir"])
    failures = 0
    for strategy in strategies:
        for trial in range(trials):
            run_dir = out_root / strategy.name / f"trial_{trial}"
            run_dir.mkdir(parents=True, exist_ok=True)
            tcfg = dataclasses.replace(base_cfg, seed=base_cfg.seed + trial)
            try:
                record, best_p, final_p = trainer_mod.train(
                    train_ds, val_ds, test_ds, strategy, tcfg
                )
                snap = diag_mod.snapshot_losses(best_p, train_ds, step=record.best_step)
                record.write_jsonl(run_dir / "record.jsonl")
                model_mod.save_checkpoint(best_p, run_dir / "best.npz")
                model_mod.save_checkpoint(final_p, run_dir / "final.npz")
                np.savez(
                    run_dir / "snapshot.npz",
                    losses=snap.losses,
                    is_wrong=snap.is_wrong,
                    step=snap.step,
                )
                summary = {"strategy": strategy.name, "trial": trial}
                summary.update(record.summary())
                try:
                    summary["auc"] = diag_mod.roc(snap).auc
                except DegenerateClassError:
                    summary["auc"] = None
                with open(run_dir / "summary.json", "w", encoding="utf-8") as f:
                    json.dump(summary, f, indent=2, sort_keys=True)
                    f.write("\n")
                marker = run_dir / FAILURE_MARKER
                if marker.exists():
                    marker.unlink()
            except NoisyLabError as e:
                (run_dir / FAILURE_MARKER).write_text(str(e) + "\n", encoding="utf-8")
                print(f"run {strategy.name}/trial_{trial} failed: {e}", file=sys.stderr)
                failures += 1
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except (NoisyLabError, OSError, yaml.YAMLError) as e:
        print(f"run: {e}", file=sys.stderr)
        return EXIT_USAGE
    return run_sweep(cfg)


def _collect_summaries(run_dirs):
    summaries = []
    for root in run_dirs:
        for path in sorted(Path(root).rglob("summary.json")):
            run_dir = path.parent
            if (run_dir / FAILURE_MARKER).exists():
                print(f"report: skipping failed run {run_dir}", file=sys.stderr)
                continue
            with open(path, encoding="utf-8") as f:
                summaries.append(json.load(f))
    return summaries


def aggregate_report(summaries: list[dict]) -> list[dict]:
    """Per strategy: mean +/- sample std of best clean-test accuracy (in %),
    mean memorization gap (best - final), and mean AUC."""
    by_strategy: dict[str, list[dict]] = {}
    for s in summaries:
        by_strategy.setdefault(s["strategy"], []).append(s)
    rows = []
    for name in sorted(by_strategy):
        group = by_strategy[name]
        accs = np.array([s["best_test_acc"] for s in group]) * 100.0
        gaps = np.array(
            [s["best_test_acc"] - s["final_test_acc"] for s in group]
        ) * 100.0
        aucs = [s["auc"] for s in group if s.get("auc") is not None]
        if len(accs) == 1:
            print(f"report: single trial for {name}; std reported as 0.00", file=sys.stderr)
            std = 0.0
        else:
            std = float(np.std(accs, ddof=1))
        rows.append(
            {
                "strategy": name,
                "trials": len(group),
                "best_test_acc": f"{float(np.mean(accs)):.2f}±{std:.2f}",
                "memorization_gap": f"{float(np.mean(gaps)):.2f}",
                "auc": f"{float(np.mean(aucs)):.4f}" if aucs else "",
            }
        )
    return rows


def cmd_report(args) -> int:
    summaries = _collect_summaries(args.run_dirs)
    if not summaries:
        print("report: no completed runs found", file=sys.stderr)
        return EXIT_FAILURE
    rows = aggregate_report(summaries)
    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["strategy", "trials", "best_test_acc", "memorization_gap", "auc"])
        for r in rows:
            w.writerow(
                [r["strategy"], r["trials"], r["best_test_acc"], r["memorization_gap"], r["auc"]]
            )
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def cmd_diagnose(args) -> int:
    run_dir = Path(args.run_dir)
    snap_path = run_dir / "snapshot.npz"
    if not snap_path.exists():
        print(f"diagnose: no loss snapshot in {run_dir}", file=sys.stderr)
        return EXIT_FAILURE
    with np.load(snap_path) as z:
        snap = diag_mod.LossSnapshot(
            losses=z["losses"], is_wrong=z["is_wrong"], step=int(z["step"])
        )
    diag_mod.write_histogram_csv(snap, run_dir / "histogram.csv", bins=args.bins)
    try:
        curve = diag_mod.roc(snap)
    except DegenerateClassError as e:
        print(f"diagnose: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    diag_mod.write_roc_csv(curve, run_dir / "roc.csv")
    summary_path = run_dir / "summary.json"
    if summary_path.exists():
        with open(summary_path, encoding="utf-8") as f:
            summary = json.load(f)
        diag_mod.write_report_csv([dict(summary, auc=curve.auc)], run_dir / "report.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisylab", description="label-noise experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject", help="corrupt a clean JSONL dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--type", choices=["uniform", "sflip", "matrix", "rules"], required=True)
    p.add_argument("--level", type=float)
    p.add_argument("--matrix")
    p.add_argument("--rules")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("run", help="run a strategy sweep from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="aggregate run summaries into a CSV")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--output", default=os.environ.get("NOISYLAB_OUT"))
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("diagnose", help="histogram/ROC CSVs for a finished run")
    p.add_argument("run_dir")
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
