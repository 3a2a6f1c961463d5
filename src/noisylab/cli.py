"""Experiment runner: corrupt datasets, sweep strategies over seeds,
aggregate mean/std tables, and emit plot-ready diagnostics CSVs.

Subcommands: inject, run, report, diagnose. The run config is a YAML tree
with strict unknown-key rejection so hyperparameter typos fail loudly. Every
failure ends in one stderr line and its exit code (see ``main``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
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
from .errors import ConfigError, DegenerateClassError, NoisyLabError, ParseError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3

FAILURE_MARKER = "FAILED"

# Each noise type's own keys, besides type; the first is required. Rule noise
# draws nothing, so it takes no seed.
_NOISE_KEYS = {"uniform": ("level", "seed"), "sflip": ("level", "seed"), "matrix": ("matrix", "seed"),
               "rules": ("rules", "abstain_to_clean")}
_FAMILIES = {"uniform": noise_mod.uniform_matrix, "sflip": noise_mod.single_flip_matrix}

_STRATEGIES = {cls.name: cls for cls in typing.get_args(strat_mod.Strategy)}


def _check_keys(block, allowed, where: str, required=()) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [key for key in required if key not in block]
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")


def _typed(value, tp, what: str):
    """A config value converted to ``tp``. A bool or str field takes only its
    own type, no other field takes a bool, an int field rejects a fractional
    or infinite number, and a float field rejects NaN and infinity."""
    try:
        out = tp(value)
        if (tp is bool) != isinstance(value, bool):
            raise ValueError
        if tp is int and isinstance(value, float) and out != value:  # compared exactly, not as floats
            raise ValueError
        if tp is str and not isinstance(value, str):
            raise ValueError
        if tp is float and not np.isfinite(out):
            raise ConfigError(f"{what} must be finite, got {value!r}")
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be {tp.__name__}, got {value!r}") from None
    return out


def _from_config(fn, block, where: str, **resolved):
    """Call ``fn`` (a dataclass or a function) with a config block keyed by its
    positional-or-keyword parameters, each converted to its declared type; one
    without a default is required. Keyword-only parameters keep their defaults,
    and ``resolved`` holds parameters the caller works out itself, which the
    block may not set. A value ``fn`` rejects is reported under ``where``."""
    params = {k: p for k, p in inspect.signature(fn).parameters.items()
              if p.kind is p.POSITIONAL_OR_KEYWORD and k not in resolved}
    required = [name for name, p in params.items() if p.default is p.empty]
    _check_keys(block, params, where, required)
    hints = typing.get_type_hints(fn)
    kwargs = dict(resolved)
    for key, value in block.items():
        kwargs[key] = _typed(value, hints[key], f"{where}: {key}")
    try:
        return fn(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def load_config(path):
    """Read and build a run config: (splits, strategies, TrainConfig, trials,
    output_dir). The cheap checks, and the noise block's checks and file
    read, run before the dataset is built."""
    with open(path, encoding="utf-8") as f:
        cfg = yaml.safe_load(f)
    required = ("dataset", "noise", "strategies", "train", "output_dir")
    _check_keys(cfg, (*required, "split", "trials"), "config", required)
    train_cfg = _from_config(trainer_mod.TrainConfig, cfg["train"], "train")
    trials = _typed(cfg.get("trials", 1), int, "trials")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not isinstance(cfg["strategies"], list) or not cfg["strategies"]:
        raise ConfigError("strategies must be a non-empty list")
    output_dir = Path(_typed(cfg["output_dir"], str, "output_dir"))
    corrupt = _noise_from_config(cfg["noise"])
    splits, true_T, realized_fdr = _apply_noise(_build_dataset(cfg), corrupt)
    dims, hidden = splits[0].dims, train_cfg.hidden
    # An MLP's w1 is (dims, hidden) and its w2 (hidden, k).
    if train_cfg.arch == "mlp" and 8 * max(dims, splits[0].k) * hidden > np.iinfo(np.intp).max:
        raise ConfigError(f"train: hidden={hidden} with dims={dims} needs an array too large to allocate")
    strategies = [_build_strategy(s, true_T, realized_fdr) for s in cfg["strategies"]]
    if len({s.name for s in strategies}) < len(strategies):  # each writes output_dir/<name>
        raise ConfigError(f"strategy names must be unique, got {[s.name for s in strategies]}")
    return splits, strategies, train_cfg, trials, output_dir


def _build_dataset(cfg: dict):
    """The featurized dataset, split into (train, val, test)."""
    ds_cfg = cfg["dataset"]
    if isinstance(ds_cfg, dict) and "synth" in ds_cfg:
        _check_keys(ds_cfg, ("synth",), "dataset")
        ds = _from_config(data_mod.synth_dataset, ds_cfg["synth"], "dataset.synth")
    else:
        ds = _from_config(data_mod.load_text, ds_cfg, "dataset")
    return _from_config(data_mod.split, cfg.get("split", {}), "split", ds=ds)


def _noise_from_config(noise):
    """Check a noise block and read its file. Returns ``corrupt(ds, offset=0)
    -> (ds, T)``, which draws noisy labels for ``ds`` seeded with the block's
    seed plus ``offset``. Rule noise draws nothing and may drop examples, and
    its T is the empirical matrix of the pairs it produced."""
    if not isinstance(noise, dict):
        raise ConfigError("noise must be a mapping")
    kind = noise.get("type")
    if not isinstance(kind, str) or kind not in _NOISE_KEYS:
        raise ConfigError(f"unknown noise type {kind!r}")
    keys = _NOISE_KEYS[kind]
    _check_keys(noise, ("type", *keys), "noise", keys[:1])
    if kind == "rules":
        abstain = _typed(noise.get("abstain_to_clean", True), bool, "noise: abstain_to_clean")
        rules = noise_mod.RuleSet.load_jsonl(_typed(noise["rules"], str, "noise: rules"), abstain)

        def corrupt(ds, offset=0):
            ds = noise_mod.inject_rules(ds, rules)
            if not len(ds):
                raise ConfigError("rule noise matched nothing in a split and abstain_to_clean is false")
            return ds, noise_mod.matrix_from_pairs(ds.clean_labels, ds.noisy_labels, ds.k)
        return corrupt
    seed = _typed(noise.get("seed", 0), int, "noise: seed")
    if seed < 0:
        raise ConfigError(f"noise: seed must be non-negative, got {seed}")
    if kind == "matrix":
        T = noise_mod.TransitionMatrix.load_csv(_typed(noise["matrix"], str, "noise: matrix"))
        matrix = lambda k: T
    else:
        level = noise_mod.check_level(_typed(noise["level"], float, "noise: level"))
        matrix = lambda k: _FAMILIES[kind](k, level)

    def corrupt(ds, offset=0):
        T = matrix(ds.k)
        noisy = noise_mod.inject(ds.clean_labels, T, seed + offset)
        return dataclasses.replace(ds, noisy_labels=noisy), T
    return corrupt


def _apply_noise(splits, corrupt):
    """Corrupt train and val; test stays clean. Returns (splits, true T, eps)."""
    train_ds, val_ds, test_ds = splits
    train_ds, T = corrupt(train_ds)
    val_ds, _ = corrupt(val_ds, offset=1)
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
    if not isinstance(name, str) or name not in _STRATEGIES:
        raise ConfigError(f"unknown strategy {name!r}")
    cls = _STRATEGIES[name]
    resolved = {}
    if cls is strat_mod.NMat:
        matrix = block.pop("matrix", True)
        use_true = matrix is True or matrix == "true"
        path = None if use_true else _typed(matrix, str, f"strategy {name}: matrix")
        resolved["T"] = true_T if use_true else noise_mod.TransitionMatrix.load_csv(path)
    if cls is strat_mod.CoTeaching and "eps" not in block:
        resolved["eps"] = realized_fdr
    return _from_config(cls, block, f"strategy {name}", **resolved)


def cmd_inject(args) -> int:
    flags = {f: getattr(args, f) for f in ("level", "matrix", "rules", "seed")}
    given = {f: value for f, value in flags.items() if value is not None}
    keys = _NOISE_KEYS[args.type]
    try:  # usage errors, found before any file is read
        if set(given) - {"seed"} != {keys[0]}:
            raise ConfigError(f"--type {args.type} takes exactly --{keys[0]}")
        if args.level is not None:
            noise_mod.check_level(args.level)
        if args.seed is not None and "seed" not in keys:
            raise ConfigError(f"--type {args.type} draws nothing and takes no --seed, got {args.seed}")
    except ConfigError as e:
        print(f"inject: {e}", file=sys.stderr)
        return EXIT_USAGE
    ds = data_mod.load_jsonl(args.input, args.k)
    if ds.clean_labels is None:
        raise ConfigError("input has no clean_label field")
    out, T = _noise_from_config(dict(given, type=args.type))(ds)
    data_mod.write_jsonl(out, args.output)
    realized = noise_mod.fdr(out.clean_labels, out.noisy_labels)
    print(f"fdr: {realized:.4f}")
    print(f"diag_dominant: {str(noise_mod.diag_dominant(T)).lower()}")
    return EXIT_OK


def run_sweep(splits, strategies, base_cfg, trials: int, out_root: Path) -> int:
    """Train every strategy x trial of a built sweep (see ``load_config``) and
    write artifacts; returns exit code. A run's ``summary.json`` is removed
    before it trains and written last, so only a finished run has one."""
    train_ds, val_ds, test_ds = splits
    failures = 0
    for strategy in strategies:
        for trial in range(trials):
            run_dir = out_root / strategy.name / f"trial_{trial}"
            run_dir.mkdir(parents=True, exist_ok=True)
            for stale in (run_dir / "summary.json", run_dir / FAILURE_MARKER):
                stale.unlink(missing_ok=True)
            tcfg = dataclasses.replace(base_cfg, seed=base_cfg.seed + trial)
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):  # a run that overflows fails
                    record, best_p, final_p = trainer_mod.train(train_ds, val_ds, test_ds, strategy, tcfg)
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
                text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
                tmp = run_dir / "summary.json.tmp"
                tmp.write_text(text, encoding="utf-8")
                os.replace(tmp, run_dir / "summary.json")
            except (NoisyLabError, FloatingPointError) as e:
                (run_dir / FAILURE_MARKER).write_text(str(e) + "\n", encoding="utf-8")
                print(f"run {strategy.name}/trial_{trial} failed: {e}", file=sys.stderr)
                failures += 1
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_run(args) -> int:
    try:
        sweep = load_config(args.config)
    except (NoisyLabError, OSError, yaml.YAMLError, RecursionError) as e:  # or a document nested too deeply
        print(f"run: {e}", file=sys.stderr)
        return EXIT_USAGE
    return run_sweep(*sweep)


# The summary.json fields report and diagnose read, with the JSON types each
# may take: a bool is not a number, a number must be finite as a float, and
# auc is missing or null when the ROC was degenerate.
_NUMBER = (int, float)
_SUMMARY_FIELDS = {
    "strategy": (str,),
    "best_test_acc": _NUMBER,
    "final_test_acc": _NUMBER,
    "auc": (*_NUMBER, type(None)),
}
_DIAGNOSE_FIELDS = {**_SUMMARY_FIELDS, "best_val_acc": _NUMBER}


def _read_summary(path: Path, fields: dict = _SUMMARY_FIELDS) -> dict:
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # a truncated, garbled or too deeply nested summary
        raise ParseError(f"{path}: {e}") from None
    if not isinstance(summary, dict) or not all(
        type(value := summary.get(key)) in types
        and (type(value) not in _NUMBER or abs(value) <= sys.float_info.max)  # NaN fails too
        for key, types in fields.items()
    ):
        raise ParseError(f"{path}: not a run summary with {', '.join(fields)}")
    return summary


def _collect_summaries(run_dirs):
    found = (path for root in run_dirs for path in sorted(Path(root).rglob("summary.json")))
    summaries = []
    for path in {path.resolve(): path for path in found}.values():  # each run once
        run_dir = path.parent
        if (run_dir / FAILURE_MARKER).exists():
            print(f"report: skipping failed run {run_dir}", file=sys.stderr)
            continue
        try:
            summaries.append(_read_summary(path))
        except ParseError as e:
            print(f"report: skipping unreadable run {e}", file=sys.stderr)
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
    sink = open(args.output, "w", newline="", encoding="utf-8") if args.output else None
    with sink or contextlib.nullcontext(sys.stdout) as out:
        diag_mod.write_csv(out, rows[0], (row.values() for row in rows))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    run_dir = Path(args.run_dir)
    path = run_dir / "snapshot.npz"
    z = model_mod.load_arrays(path, {"losses", "is_wrong", "step"})
    step = z["step"]
    if step.ndim != 0 or step.dtype.kind not in "iu":
        raise ParseError(f"{path}: step must be one integer, not {step.dtype} of shape {step.shape}")
    try:
        snap = diag_mod.LossSnapshot(z["losses"], z["is_wrong"], int(step))
    except ConfigError as e:
        raise ParseError(f"{path}: {e}") from None
    summary = _read_summary(run_dir / "summary.json", _DIAGNOSE_FIELDS)
    curve = diag_mod.roc(snap)  # a degenerate ROC fails before any CSV is written
    diag_mod.write_histogram_csv(snap, run_dir / "histogram.csv", bins=args.bins)
    diag_mod.write_roc_csv(curve, run_dir / "roc.csv")
    diag_mod.write_report_csv([dict(summary, auc=curve.auc)], run_dir / "report.csv")
    return EXIT_OK


def _int_at_least(low: int):
    """An argparse type: an integer that is at least ``low``."""
    def integer(text: str) -> int:  # argparse reports a ValueError as an "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, named by its subcommand, without the usage text
        self.exit(EXIT_USAGE, f"{self.prog.split()[-1]}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noisylab", description="label-noise experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject", help="corrupt a clean JSONL dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--k", type=_int_at_least(2), required=True)
    p.add_argument("--type", choices=list(_NOISE_KEYS), required=True)
    p.add_argument("--level", type=float)
    p.add_argument("--matrix")
    p.add_argument("--rules")
    p.add_argument("--seed", type=_int_at_least(0), help="uniform, sflip and matrix only (default 0)")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("run", help="run a strategy sweep from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="aggregate run summaries into a CSV")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--output")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("diagnose", help="histogram/ROC CSVs for a finished run")
    p.add_argument("run_dir")
    p.add_argument("--bins", type=_int_at_least(1), default=50)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # a usage error, already reported, or --help
        return e.code
    try:
        return args.func(args)
    except (NoisyLabError, OSError, MemoryError) as e:
        print(f"{args.command}: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(e, DegenerateClassError) else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
