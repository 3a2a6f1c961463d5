import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import noisylab as nl
from noisylab.cli import aggregate_report, build_parser, load_config, main
from noisylab.errors import ConfigError
from noisylab.model import accuracy, load_checkpoint


def _write_clean_jsonl(path, n=2000, k=4, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w") as f:
        for i in range(n):
            rec = {"id": str(i), "text": f"word{i % 17} word{i % 5}", "clean_label": int(rng.integers(0, k))}
            f.write(json.dumps(rec) + "\n")


def _small_config(tmp_path, out_name="out", trials=2):
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
        "trials": trials,
        "output_dir": str(tmp_path / out_name),
    }


def _write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def _rules_on_text(c, **noise):
    """Point config ``c`` at a small JSONL text dataset with keyword-rule noise."""
    root = Path(c["output_dir"]).parent
    _write_clean_jsonl(root / "text.jsonl", n=300, k=3)
    (root / "rules.jsonl").write_text('{"keyword": "word1", "class": 1}\n')
    c["dataset"] = {"path": str(root / "text.jsonl"), "k": 3, "featurize_dims": 1024}
    c["noise"] = {"type": "rules", "rules": str(root / "rules.jsonl"), **noise}


def _beside(c, name, text):
    """Write ``text`` to a file ``name`` beside config ``c``; returns its path."""
    path = Path(c["output_dir"]).parent / name
    path.write_text(text)
    return str(path)


def _matrix_noise(c, text):
    """Give config ``c`` matrix noise from a CSV holding ``text``."""
    c["noise"] = {"type": "matrix", "matrix": _beside(c, "T.csv", text)}


def _nmat_matrix(c, text):
    """Add to config ``c`` an nmat strategy whose matrix CSV holds ``text``."""
    c["strategies"].append({"name": "nmat", "matrix": _beside(c, "T.csv", text)})


def _text_dataset(c, line):
    """Point config ``c`` at a JSONL text dataset that ends in ``line``."""
    path = Path(c["output_dir"]).parent / "d.jsonl"
    _write_clean_jsonl(path, n=300, k=3)
    with open(path, "a") as f:
        f.write(line + "\n")
    c["dataset"] = {"path": str(path), "k": 3, "featurize_dims": 1024}


_BAD_CSVS = {"not_numeric": "a,b\n", "ragged": "0.5,0.5\n1\n", "empty": ""}
_BAD_KEYWORDS = {"null": "null", "number": "12", "bool": "true"}  # rule keywords that are not JSON strings
_DEEP = "[" * 100_000 + "]" * 100_000  # nested past any recursion limit
_BAD_LINES = {
    "label_string": '{"id": "b", "text": "t", "clean_label": "zz"}',
    "label_bool": '{"id": "b", "text": "t", "clean_label": true}',
    "label_fraction": '{"id": "b", "text": "t", "clean_label": 1.7}',
    "line_number": "5",
    "nested_deep": _DEEP,
}

# Sizes of a synthetic dataset that no array can hold.
_OVERSIZED = {"dims_2^63": {"dims": 2**63}, "dims_1e308": {"dims": 1e308}, "n_2^63": {"n": 2**63},
              "n_2^62": {"n": 2**62}, "dims_2^62": {"dims": 2**62}}


# Cases of test_config_exit_code_without_traceback whose message must name its key.
_NAMED_IN_MESSAGE = {
    "level_1.5": "run: level must be in [0,1), got 1.5",
    "synth_noise_size": "unknown keys in dataset.synth: ['noise_size']",
    "rule_keyword_two_tokens": "rule keyword 'New York'",
    "synth_k_0": "run: dataset.synth: k must be >= 2, got 0",
    "synth_n_2^63-1": "run: dataset.synth: n=9223372036854775807 with dims=256 needs an array too large",
    "synth_seed_-1": "run: dataset.synth: seed must be non-negative, got -1",
    "train_seed_-1": "run: train: seed must be non-negative, got -1",
    "split_seed_-1": "run: split: seed must be non-negative, got -1",
    "split_sum_0.7": "run: split: fractions sum to 0.7, not 1",
    "split_val_0": "run: split: fractions must be > 0, got (0.9, 0.0, 0.1)",
    "featurize_dims_0": "run: dataset: featurize_dims must be a power of two, got 0",
    "featurize_dims_2^62": "run: dataset: featurize_dims 4611686018427387904 is too wide for 300 examples",
    "dataset_k_2^63": "run: dataset: k=9223372036854775808 is too large for a k x k noise matrix",
    "lam_1e308": "run nmwr/trial_0 failed: invalid value encountered",
    "rule_keyword_null": "keyword.jsonl: line 1: keyword must be a string, got null",
    "hidden_2^56": "run: train: hidden=72057594037927936 with dims=256 needs an array too large",
    "synth_with_rules": "a synthetic dataset has no text",
    "rules_seed_3": "run: unknown keys in noise: ['seed']",
}


def _cli(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    src = str(Path(nl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "noisylab.cli", *argv], capture_output=True, text=True, env=env
    )


class TestInject:
    def test_uniform_fdr(self, tmp_path, capsys):
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src)
        out = tmp_path / "noisy.jsonl"
        code = main(
            ["inject", "--input", str(src), "--output", str(out), "--k", "4",
             "--type", "uniform", "--level", "0.4", "--seed", "7"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        fdr_line = [l for l in printed.splitlines() if l.startswith("fdr:")][0]
        assert abs(float(fdr_line.split()[1]) - 0.4) < 0.04
        ds = nl.load_jsonl(out, 4)
        assert ds.clean_labels is not None and ds.noisy_labels is not None

    def test_sflip_boundary_dominance(self, tmp_path, capsys):
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src, n=50)
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--k", "4", "--type", "sflip", "--level", "0.5"]
        )
        assert code == 0
        assert "diag_dominant: false" in capsys.readouterr().out

    def test_non_stochastic_matrix_names_row(self, tmp_path, capsys):
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src, n=20, k=2)
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.5\n0.9,0.9\n")
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--k", "2", "--type", "matrix", "--matrix", str(bad)]
        )
        assert code == 1
        assert "row 1" in capsys.readouterr().err

    def test_non_finite_matrix_names_row(self, tmp_path, capsys):
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src, n=20, k=2)
        bad = tmp_path / "bad.csv"
        bad.write_text("nan,nan\n0.5,0.5\n")
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--k", "2", "--type", "matrix", "--matrix", str(bad)]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "row 0" in err[0]
        assert not (tmp_path / "o.jsonl").exists()

    def test_conflicting_flags_usage_error(self, tmp_path):
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src, n=10)
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--k", "4", "--type", "uniform", "--level", "0.4", "--matrix", "m.csv"]
        )
        assert code == 2

    @pytest.mark.parametrize("ntype", ["uniform", "sflip"])
    def test_parametric_without_level_usage_error(self, tmp_path, capsys, ntype):
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src, n=10)
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--k", "4", "--type", ntype]
        )
        assert code == 2
        assert "--level" in capsys.readouterr().err

    def test_malformed_jsonl_one_line_failure(self, tmp_path, capsys):
        src = tmp_path / "clean.jsonl"
        src.write_text('{"id": "0", "text": "a b", "clean_label": 1}\n{not json\n')
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--k", "4", "--type", "uniform", "--level", "0.4"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("inject:")

    @pytest.mark.parametrize(
        "name, text, expected",
        [
            ("missing.jsonl", None, "missing.jsonl"),
            ("rules.jsonl", '{"keyword": "word1", "class": 1}\n{"class": 2}\n',
             "line 2: missing 'keyword'"),
            ("rules.jsonl", '{"keyword": "word1", "class": 1}\nword2 -> 2\n', "line 2"),
            ("rules.jsonl", '{"keyword": "word1", "class": true}\n', "line 1: class"),
            ("rules.jsonl", '{"keyword": "word1", "class": 1}\n' + _DEEP + "\n", "line 2"),
            *[("rules.jsonl", f'{{"keyword": {kw}, "class": 1}}\n', f"line 1: keyword must be a string, got {kw}")
              for kw in _BAD_KEYWORDS.values()],
            *[("T.csv", text, "T.csv") for text in _BAD_CSVS.values()],
            *[("in.jsonl", '{"id": "a", "text": "t", "clean_label": 0}\n' + line, "line 2")
              for line in _BAD_LINES.values()],
        ],
        ids=["missing_input", "rule_without_keyword", "rules_not_json", "rule_class_bool", "rules_nested_deep",
             *[f"rule_keyword_{name}" for name in _BAD_KEYWORDS],
             *[f"matrix_{name}" for name in _BAD_CSVS], *[f"input_{name}" for name in _BAD_LINES]],
    )
    def test_unreadable_input_one_line_failure(self, tmp_path, capsys, name, text, expected):
        """``name`` holding ``text`` (None: no such file) is the input, or the
        rules or matrix file of that noise type."""
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src, n=10)
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        kind = {"rules.jsonl": "rules", "T.csv": "matrix"}.get(name)
        if kind is None:
            argv = ["--input", str(path), "--type", "uniform", "--level", "0.4"]
        else:
            argv = ["--input", str(src), "--type", kind, f"--{kind}", str(path)]
        code = main(["inject", *argv, "--output", str(tmp_path / "o.jsonl"), "--k", "4"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("inject:") and expected in err[0]
        assert not (tmp_path / "o.jsonl").exists()

    def test_negative_seed_one_line_failure(self, tmp_path, capsys):
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src, n=10)
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--k", "4", "--type", "uniform", "--level", "0.4", "--seed", "-1"]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("inject:") and "-1" in err[0]
        assert not (tmp_path / "o.jsonl").exists()

    def test_level_out_of_range_names_level(self, tmp_path, capsys):
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src, n=10)
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--k", "4", "--type", "uniform", "--level", "1.5"]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["inject: level must be in [0,1), got 1.5"]

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--k", "4", "--type", "sflip", "--level", "nan"],
             "inject: level must be in [0,1), got nan"),
            (["--type", "uniform", "--level", "0.4", "--k", "1"], "inject: argument --k:"),
            (["--type", "rules", "--rules", "r.jsonl", "--k", "1"], "inject: argument --k:"),
            (["--k", "4", "--type", "matrix", "--matrix", "T.csv", "--seed", "-1"],
             "inject: argument --seed:"),
            (["--k", "4", "--type", "rules", "--rules", "r.jsonl", "--seed", "1"],
             "inject: --type rules draws nothing and takes no --seed"),
        ],
        ids=["level_nan", "k_1", "rules_k_1", "matrix_seed_-1", "rules_seed_1"],
    )
    def test_bad_flag_value_usage_error_before_reading_files(self, tmp_path, capsys, flags, expected):
        """The input, rules and matrix files do not exist: no file is read."""
        out = tmp_path / "o.jsonl"
        code = main(["inject", "--input", str(tmp_path / "in.jsonl"), "--output", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(expected), err
        assert flags[-1] in err[0]
        assert not out.exists()

    def test_unwritable_output_one_line_failure(self, tmp_path, capsys):
        src = tmp_path / "clean.jsonl"
        _write_clean_jsonl(src, n=10)
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "no_dir" / "o.jsonl"),
             "--k", "4", "--type", "uniform", "--level", "0.4"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("inject:")


class TestRun:
    def test_artifacts_per_strategy_trial(self, tmp_path):
        cfg_path = _write_config(tmp_path, _small_config(tmp_path))
        assert main(["run", str(cfg_path)]) == 0
        run_dirs = sorted((tmp_path / "out").glob("*/trial_*"))
        assert len(run_dirs) == 4
        for d in run_dirs:
            for artifact in ("record.jsonl", "summary.json", "best.npz", "final.npz", "snapshot.npz"):
                assert (d / artifact).exists(), artifact

    def test_rerun_byte_identical_summaries(self, tmp_path):
        cfg_path = _write_config(tmp_path, _small_config(tmp_path))
        assert main(["run", str(cfg_path)]) == 0
        first = {
            p.relative_to(tmp_path): p.read_bytes()
            for p in (tmp_path / "out").rglob("summary.json")
        }
        assert main(["run", str(cfg_path)]) == 0
        second = {
            p.relative_to(tmp_path): p.read_bytes()
            for p in (tmp_path / "out").rglob("summary.json")
        }
        assert first == second

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _small_config(tmp_path)
        cfg["train"]["learning_rate"] = 0.1  # typo for lr
        cfg_path = _write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "edit, code",
        [
            (lambda c: c["noise"].pop("level"), 2),
            (lambda c: c["train"].update(batch_size=0), 2),
            (lambda c: c["strategies"].append({"name": "label_smoothing", "alpha": 1.5}), 2),
            (lambda c: c["strategies"].append({"name": "nmwr", "lambda": 1e-4}), 2),
            (lambda c: c["strategies"].append({"name": "nmat", "matrix": "missing.csv"}), 2),
            (lambda c: c["train"].update(lr="5e-1"), 0),  # how PyYAML reads `lr: 5e-1`
            (lambda c: c["noise"].update(level=1.5), 2),
            (lambda c: c["dataset"]["synth"].update(dims=64), 2),
            (lambda c: c["dataset"]["synth"].pop("k"), 2),
            (lambda c: c["split"].update(train="x"), 2),
            (lambda c: c["split"].update(train=0.5), 2),
            (lambda c: c.update(trials="abc"), 2),
            (lambda c: c.update(dataset=3), 2),
            (lambda c: c.update(split=5), 2),
            (lambda c: c.update(noise=[1]), 2),
            (lambda c: c["split"].update(train=0.9, val=0.0), 2),
            (lambda c: _rules_on_text(c, abstain_to_clean="false"), 2),
            (lambda c: _rules_on_text(c, abstain_to_clean=False), 0),
            (lambda c: c.update(output_dir=3), 2),
            (lambda c: c["train"].update(lr=float("nan")), 2),
            (lambda c: c["train"].update(lr=float("inf")), 2),
            (lambda c: c["strategies"].append({"name": "nmwr", "lam": float("nan")}), 2),
            (lambda c: c["strategies"].append({"name": "nmwr", "lam": 1e308}), 1),  # 2 * lam * M is inf * 0
            (lambda c: (c["strategies"].append({"name": "no_validation"}),
                        c["train"].update(convergence_tol=float("nan"))), 2),
            (lambda c: c["train"].update(max_epochs=float("inf")), 2),
            (lambda c: _matrix_noise(c, "nan,nan,nan\n0,1,0\n0,0,1\n"), 2),
            (lambda c: c["train"].update(seed=-1), 2),
            (lambda c: c["split"].update(seed=-1), 2),
            (lambda c: c["noise"].update(seed=-1), 2),
            (lambda c: c["dataset"]["synth"].update(seed=-1), 2),
            (lambda c: c["train"].update(arch="cnn"), 2),
            (lambda c: c["train"].update(arch="mlp", hidden=-1), 2),
            (lambda c: c["train"].update(arch="mlp", hidden=0), 2),
            (lambda c: c["dataset"]["synth"].update(n=float("inf")), 2),
            *[(lambda c, t=text: _matrix_noise(c, t), 2) for text in _BAD_CSVS.values()],
            *[(lambda c, t=text: _nmat_matrix(c, t), 2) for text in _BAD_CSVS.values()],
            (lambda c: c["strategies"].append({"name": "nmat", "matrix": False}), 2),
            (lambda c: _text_dataset(c, '{"id": "b", "text": "t", "clean_label": 1}'), 0),
            *[(lambda c, line=line: _text_dataset(c, line), 2) for line in _BAD_LINES.values()],
            (lambda c: (_rules_on_text(c), c["noise"].update(rules=_beside(
                c, "bad_rules.jsonl", '{"keyword": "word1", "class": true}\n'))), 2),
            (lambda c: c.update(dataset={"path": ["d.jsonl"], "k": 3}), 2),
            (lambda c: _rules_on_text(c, rules=["rules.jsonl"]), 2),
            (lambda c: c.update(noise={"type": "matrix", "matrix": 5}), 2),
            (lambda c: c["dataset"].update(k=7), 2),
            (lambda c: (_text_dataset(c, '{"id": "b", "text": "t", "clean_label": 1}'),
                        c["dataset"].update(k=2**63)), 2),
            (lambda c: c["dataset"].update(featurize_dims=3), 2),
            (lambda c: c["noise"].update(rules="nope.jsonl"), 2),
            (lambda c: c["noise"].update(matrix="nope.csv"), 2),
            (lambda c: c["noise"].update(abstain_to_clean=False), 2),
            (lambda c: c["strategies"].append({"name": "label_smoothing", "alpha": 0.5}), 2),
            (lambda c: c["noise"].update(type=["uniform"]), 2),
            (lambda c: c["strategies"].append({"name": ["vanilla"]}), 2),
            (lambda c: c["dataset"]["synth"].update(noise_size=32), 2),
            (lambda c: c["dataset"]["synth"].update(proto_size=8), 2),
            (lambda c: _rules_on_text(c, rules=_beside(
                c, "two_tokens.jsonl", '{"keyword": "New York", "class": 1}\n')), 2),
            *[(lambda c, k=k: c["dataset"]["synth"].update(k=k), 2) for k in (0, -1)],
            *[(lambda c, kv=kv: c["dataset"]["synth"].update(kv), 2) for kv in _OVERSIZED.values()],
            (lambda c: c["dataset"]["synth"].update(n=2**63 - 1), 2),
            (lambda c: c["train"].update(arch="mlp", hidden=2**40), 1),  # 2 PiB: fails at once
            *[(lambda c, h=h: c["train"].update(arch="mlp", hidden=h), 2) for h in (2**56, 2**63, 1e308)],
            *[(lambda c, d=d: (_rules_on_text(c), c["dataset"].update(featurize_dims=d)), 2)
              for d in (0, 2**62, 1e308)],
            *[(lambda c, kw=kw: _rules_on_text(c, rules=_beside(
                c, "keyword.jsonl", f'{{"keyword": {kw}, "class": 1}}\n')), 2) for kw in _BAD_KEYWORDS.values()],
            (lambda c: "a: " + _DEEP, 2),  # raw text: yaml.safe_dump recurses too
            (lambda c: c.update(noise={"type": "rules", "rules": _beside(
                c, "rules.jsonl", '{"keyword": "word1", "class": 1}\n')}), 2),
            (lambda c: _rules_on_text(c, seed=3), 2),
        ],
        ids=["noise_without_level", "batch_size_0", "alpha_1.5", "lambda_key",
             "missing_matrix_csv", "lr_5e-1", "level_1.5", "synth_dims_64",
             "synth_without_k", "split_train_x", "split_sum_0.7", "trials_abc",
             "dataset_3", "split_5", "noise_list", "split_val_0", "abstain_string_false",
             "abstain_false", "output_dir_3", "lr_nan", "lr_inf", "lam_nan", "lam_1e308",
             "convergence_tol_nan", "max_epochs_inf", "noise_matrix_nan", "train_seed_-1",
             "split_seed_-1", "noise_seed_-1", "synth_seed_-1", "arch_cnn", "hidden_-1",
             "hidden_0", "synth_n_inf",
             *[f"noise_matrix_{name}" for name in _BAD_CSVS],
             *[f"nmat_matrix_{name}" for name in _BAD_CSVS], "nmat_matrix_false",
             "dataset_label_int", *[f"dataset_{name}" for name in _BAD_LINES],
             "rule_class_bool", "dataset_path_list", "noise_rules_list", "noise_matrix_number",
             "synth_with_k", "dataset_k_2^63", "synth_with_featurize_dims", "uniform_with_rules",
             "uniform_with_matrix", "uniform_with_abstain", "duplicate_strategy",
             "noise_type_list", "strategy_name_list", "synth_noise_size", "synth_proto_size",
             "rule_keyword_two_tokens", "synth_k_0", "synth_k_-1",
             *[f"synth_{name}" for name in _OVERSIZED], "synth_n_2^63-1", "hidden_2^40",
             "hidden_2^56", "hidden_2^63", "hidden_1e308", "featurize_dims_0", "featurize_dims_2^62",
             "featurize_dims_1e308", *[f"rule_keyword_{name}" for name in _BAD_KEYWORDS], "yaml_nested_deep",
             "synth_with_rules", "rules_seed_3"],
    )
    def test_config_exit_code_without_traceback(self, tmp_path, request, edit, code):
        """``edit`` changes the config in place, or returns the config file's text."""
        cfg = _small_config(tmp_path, trials=1)
        text = edit(cfg)
        path = tmp_path / "config.yaml"
        path.write_text(text if isinstance(text, str) else yaml.safe_dump(cfg))
        proc = _cli("run", str(path))
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == (code != 0), proc.stderr
        assert _NAMED_IN_MESSAGE.get(request.node.callspec.id, "") in proc.stderr

    def test_accepted_keys_are_dataclass_fields(self, tmp_path):
        cfg = _small_config(tmp_path)
        cfg["train"] = dataclasses.asdict(nl.TrainConfig())
        cfg["strategies"] = [
            {"name": "vanilla"},
            {"name": "no_validation"},
            {"name": "nmat", "matrix": True},
            {"name": "nmwr", "lam": 1e-4},
            {"name": "coteaching", "eps": 0.3, "ramp_epochs": 2},
            {"name": "label_smoothing", "alpha": 0.1},
        ]
        load_config(_write_config(tmp_path, cfg))
        cfg["strategies"] = [{"name": "nmwr"}]
        load_config(_write_config(tmp_path, cfg))

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda c: c.pop("noise"), "missing keys in config: ['noise']"),
            (lambda c: _rules_on_text(c, abstain_to_clean=False, rules=_beside(
                c, "no_match.jsonl", '{"keyword": "absent", "class": 1}\n')), "abstain_to_clean"),
            (lambda c: c["strategies"].append({"name": "vanilla"}), "names must be unique"),
            (lambda c: c.update(dataset={"path": str(Path(c["output_dir"]).parent / "missing.jsonl"), "k": 3},
                                noise={"type": "uniform", "levle": 0.4}),
             "unknown keys in noise: ['levle']"),
        ],
        ids=["noise_missing", "rules_empty_split", "duplicate_strategy",
             "noise_checked_before_dataset"],
    )
    def test_config_error_names_its_cause(self, tmp_path, capsys, edit, expected):
        cfg = _small_config(tmp_path, trials=1)
        edit(cfg)
        assert main(["run", str(_write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and expected in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["rules", "matrix"])
    def test_noise_file_is_read_once(self, tmp_path, monkeypatch, kind):
        cfg = _small_config(tmp_path, trials=1)
        if kind == "rules":
            _rules_on_text(cfg)
            cls, name = nl.RuleSet, "load_jsonl"
        else:
            _matrix_noise(cfg, "0.8,0.1,0.1\n0.1,0.8,0.1\n0.1,0.1,0.8\n")
            cls, name = nl.TransitionMatrix, "load_csv"
        read, calls = getattr(cls, name), []
        monkeypatch.setattr(cls, name, lambda *args: calls.append(args) or read(*args))
        assert main(["run", str(_write_config(tmp_path, cfg))]) == 0
        assert len(calls) == 1

    def test_nmat_matrix_size_mismatch_fails_run(self, tmp_path, capsys):
        T3 = tmp_path / "T3.csv"
        np.savetxt(T3, nl.uniform_matrix(3, 0.2).rows, delimiter=",", fmt="%.17g")
        cfg = _small_config(tmp_path, trials=1)
        cfg["dataset"]["synth"]["k"] = 4
        cfg["strategies"] = [{"name": "nmat", "matrix": str(T3)}]
        assert main(["run", str(_write_config(tmp_path, cfg))]) == 1
        marker = tmp_path / "out" / "nmat" / "trial_0" / "FAILED"
        assert "k=4" in marker.read_text()
        assert "nmat/trial_0 failed" in capsys.readouterr().err

    def test_readme_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = yaml.safe_load(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))
        cfg["dataset"]["synth"]["n"] = 400
        cfg["train"]["max_epochs"] = 3
        cfg["trials"] = 1
        cfg["output_dir"] = str(tmp_path / "out")
        assert main(["run", str(_write_config(tmp_path, cfg))]) == 0

    def test_readme_python_quick_start_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})

    def test_unknown_strategy_rejected(self, tmp_path):
        cfg = _small_config(tmp_path)
        cfg["strategies"].append({"name": "magic"})
        with pytest.raises(ConfigError):
            load_config(_write_config(tmp_path, cfg))

    @pytest.mark.parametrize("text", [False, True], ids=["synth", "text"])
    def test_best_acc_reproducible_from_checkpoint(self, tmp_path, text):
        cfg = _small_config(tmp_path)
        if text:
            _rules_on_text(cfg)
        cfg_path = _write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path)]) == 0
        run_dir = tmp_path / "out" / "vanilla" / "trial_0"
        summary = json.loads((run_dir / "summary.json").read_text())
        params = load_checkpoint(run_dir / "best.npz")
        (_, _, test_ds), *_ = load_config(cfg_path)
        assert accuracy(params, test_ds.X, test_ds.labels("clean")) == summary["best_test_acc"]
        if text:  # one w1 row per hash bucket the corpus uses
            full = nl.featurize(nl.load_jsonl(tmp_path / "text.jsonl", 3), 1024)
            assert params.w1.shape[0] == len(np.unique(full.X.indices)) < 1024


class TestReport:
    def test_two_point_mean_std(self):
        summaries = [
            {"strategy": "vanilla", "trial": 0, "best_test_acc": 0.90, "final_test_acc": 0.90, "auc": 0.9},
            {"strategy": "vanilla", "trial": 1, "best_test_acc": 0.92, "final_test_acc": 0.92, "auc": 0.9},
        ]
        rows = aggregate_report(summaries)
        assert rows[0]["best_test_acc"] == "91.00±1.41"

    def test_single_trial_zero_std(self, capsys):
        rows = aggregate_report(
            [{"strategy": "vanilla", "trial": 0, "best_test_acc": 0.8, "final_test_acc": 0.7, "auc": None}]
        )
        assert rows[0]["best_test_acc"] == "80.00±0.00"
        assert "single trial" in capsys.readouterr().err

    def test_matches_independent_recomputation(self):
        accs = [0.81, 0.83, 0.85, 0.80, 0.86]
        summaries = [
            {"strategy": "s", "trial": i, "best_test_acc": a, "final_test_acc": a - 0.02, "auc": 0.9}
            for i, a in enumerate(accs)
        ]
        rows = aggregate_report(summaries)
        # spreadsheet-style recomputation
        pct = [a * 100 for a in accs]
        mean = sum(pct) / 5
        var = sum((x - mean) ** 2 for x in pct) / 4
        assert rows[0]["best_test_acc"] == f"{mean:.2f}±{var ** 0.5:.2f}"
        assert rows[0]["memorization_gap"] == "2.00"

    def test_skips_failed_runs(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, _small_config(tmp_path, trials=1))
        assert main(["run", str(cfg_path)]) == 0
        bad = tmp_path / "out" / "vanilla" / "trial_0"
        (bad / "FAILED").write_text("interrupted\n")
        out_csv = tmp_path / "report.csv"
        assert main(["report", str(tmp_path / "out"), "--output", str(out_csv)]) == 0
        assert "skipping failed run" in capsys.readouterr().err
        assert "vanilla" not in out_csv.read_text()

    def test_failed_rerun_leaves_no_summary(self, tmp_path, capsys, monkeypatch):
        cfg_path = _write_config(tmp_path, _small_config(tmp_path, trials=1))
        assert main(["run", str(cfg_path)]) == 0
        run_dir = tmp_path / "out" / "vanilla" / "trial_0"
        assert (run_dir / "summary.json").exists()

        def disk_full(p, path):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr("noisylab.model.save_checkpoint", disk_full)
        assert main(["run", str(cfg_path)]) == 1
        assert not (run_dir / "summary.json").exists()
        capsys.readouterr()
        out_csv = tmp_path / "report.csv"
        assert main(["report", str(tmp_path / "out"), "--output", str(out_csv)]) == 0
        rows = out_csv.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["label_smoothing"]

    def test_no_runs_error(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 1

    def test_overlapping_arguments_count_each_run_once(self, tmp_path, capsys):
        _summaries(tmp_path, _SUMMARY, _SUMMARY)
        out = tmp_path / "out"
        assert main(["report", str(out), str(out), str(out / "vanilla" / "trial_1")]) == 0
        assert capsys.readouterr().out == (
            "strategy,trials,best_test_acc,memorization_gap,auc\r\nvanilla,2,90.00±0.00,10.00,0.7000\r\n"
        )


class TestDiagnose:
    def _completed_run(self, tmp_path):
        cfg_path = _write_config(tmp_path, _small_config(tmp_path, trials=1))
        assert main(["run", str(cfg_path)]) == 0
        return tmp_path / "out" / "vanilla" / "trial_0"

    def test_writes_three_csvs(self, tmp_path):
        run_dir = self._completed_run(tmp_path)
        assert main(["diagnose", str(run_dir)]) == 0
        assert (run_dir / "histogram.csv").exists()
        assert (run_dir / "roc.csv").exists()
        assert (run_dir / "report.csv").exists()
        first_data_row = (run_dir / "roc.csv").read_text().splitlines()[1]
        assert first_data_row == "inf,0,0"
        summary = json.loads((run_dir / "summary.json").read_text())
        header, row = (run_dir / "report.csv").read_text().splitlines()
        assert header == "strategy,auc,best_val_acc,best_test_acc,final_test_acc"
        assert row == ",".join(
            ["vanilla"]
            + [f"{summary[k]:.6f}" for k in ("auc", "best_val_acc", "best_test_acc", "final_test_acc")]
        )

    def test_auc_matches_roc_csv_recomputation(self, tmp_path):
        run_dir = self._completed_run(tmp_path)
        assert main(["diagnose", str(run_dir)]) == 0
        rows = (run_dir / "roc.csv").read_text().splitlines()[1:]
        fpr = np.array([float(r.split(",")[1]) for r in rows])
        tpr = np.array([float(r.split(",")[2]) for r in rows])
        recomputed = float(np.trapezoid(tpr, fpr))
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["auc"] == pytest.approx(recomputed, abs=1e-12)

    def test_missing_snapshot(self, tmp_path):
        assert main(["diagnose", str(tmp_path)]) == 1

    def test_zero_noise_degenerate_exit(self, tmp_path):
        cfg = _small_config(tmp_path)
        cfg["noise"]["level"] = 0.0
        cfg["trials"] = 1
        cfg_path = _write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path)]) == 0
        run_dir = tmp_path / "out" / "vanilla" / "trial_0"
        assert main(["diagnose", str(run_dir)]) == 3
        assert not any((run_dir / name).exists() for name in ("histogram.csv", "roc.csv", "report.csv"))


_SUMMARY = json.dumps(
    {"strategy": "vanilla", "trial": 0, "best_test_acc": 0.9, "final_test_acc": 0.8, "auc": 0.7}
)
_DIAGNOSE_SUMMARY = _SUMMARY.replace("}", ', "best_val_acc": 0.9}')


def _summaries(tmp_path, *texts):
    """One run directory per text, holding only that summary.json (all report reads)."""
    for trial, text in enumerate(texts):
        run_dir = tmp_path / "out" / "vanilla" / f"trial_{trial}"
        run_dir.mkdir(parents=True)
        (run_dir / "summary.json").write_text(text)


def _snapshot(tmp_path, cut):
    run_dir = tmp_path / "out" / "vanilla" / "trial_0"
    run_dir.mkdir(parents=True)
    path = run_dir / "snapshot.npz"
    np.savez(path, losses=np.ones(4), is_wrong=np.array([0, 1, 0, 1], dtype=bool), step=3)
    path.write_bytes(cut(path.read_bytes()))


def _diagnose_summary(tmp_path, text):
    """A run directory with a valid snapshot.npz and a summary.json holding ``text``."""
    _snapshot(tmp_path, lambda b: b)
    (tmp_path / "out" / "vanilla" / "trial_0" / "summary.json").write_text(text)


def _malformed_snapshot(tmp_path, **arrays):
    """A run directory with a valid summary.json and a snapshot.npz whose
    arrays are the well-formed ones with ``arrays`` swapped in."""
    run_dir = tmp_path / "out" / "vanilla" / "trial_0"
    run_dir.mkdir(parents=True)
    (run_dir / "summary.json").write_text(_DIAGNOSE_SUMMARY)
    good = {"losses": np.ones(4), "is_wrong": np.array([0, 1, 0, 1], dtype=bool), "step": 3}
    np.savez(run_dir / "snapshot.npz", **{**good, **arrays})


@pytest.mark.parametrize(
    "setup, argv, code, expected",
    [
        (lambda t: None, ["diagnose", "{t}", "--bins", "0"], 2, "--bins"),
        (lambda t: _snapshot(t, lambda b: b"not a zip archive"),
         ["diagnose", "{t}/out/vanilla/trial_0"], 1, "snapshot.npz"),
        (lambda t: _snapshot(t, lambda b: b[: len(b) // 2]),
         ["diagnose", "{t}/out/vanilla/trial_0"], 1, "snapshot.npz"),
        (lambda t: _summaries(t, _SUMMARY, _SUMMARY),
         ["report", "{t}/out", "--output", "{t}/no_dir/report.csv"], 1, "no_dir"),
        (lambda t: _summaries(t, _SUMMARY, _SUMMARY, '{"strategy": "vanilla", "tr'),
         ["report", "{t}/out"], 0, "skipping unreadable run"),
        (lambda t: _summaries(t, _SUMMARY, _SUMMARY, "{}"),
         ["report", "{t}/out"], 0, "skipping unreadable run"),
        (lambda t: _summaries(t, _SUMMARY, _SUMMARY, "[]"),
         ["report", "{t}/out"], 0, "skipping unreadable run"),
        (lambda t: _diagnose_summary(t, "{}"), ["diagnose", "{t}/out/vanilla/trial_0"], 1, "summary.json"),
        (lambda t: _summaries(t, _SUMMARY, _SUMMARY, _SUMMARY.replace('"auc": 0.7', '"auc": "x"')),
         ["report", "{t}/out"], 0, "skipping unreadable run"),
        (lambda t: _summaries(
            t, _SUMMARY, _SUMMARY, _SUMMARY.replace('"best_test_acc": 0.9', '"best_test_acc": true')
        ), ["report", "{t}/out"], 0, "skipping unreadable run"),
        (lambda t: _snapshot(t, lambda b: b),
         ["diagnose", "{t}/out/vanilla/trial_0"], 1, "summary.json"),
        (lambda t: _malformed_snapshot(t, step=np.array([1, 2])),
         ["diagnose", "{t}/out/vanilla/trial_0"], 1, "snapshot.npz"),
        (lambda t: _malformed_snapshot(
            t, losses=np.ones((2, 2)), is_wrong=np.array([[0, 1], [1, 0]], dtype=bool)
        ), ["diagnose", "{t}/out/vanilla/trial_0"], 1, "snapshot.npz"),
        (lambda t: _malformed_snapshot(t, step=2.7),
         ["diagnose", "{t}/out/vanilla/trial_0"], 1, "snapshot.npz"),
        (lambda t: _summaries(t, _SUMMARY, _SUMMARY, _DEEP),
         ["report", "{t}/out"], 0, "skipping unreadable run"),
        (lambda t: _diagnose_summary(t, _DEEP), ["diagnose", "{t}/out/vanilla/trial_0"], 1, "summary.json"),
        (lambda t: _summaries(t, _SUMMARY, _SUMMARY, _SUMMARY.replace(
            '"best_test_acc": 0.9', '"best_test_acc": NaN').replace('"auc": 0.7', '"auc": Infinity')),
         ["report", "{t}/out"], 0, "skipping unreadable run"),
        (lambda t: _summaries(t, _SUMMARY, _SUMMARY, _SUMMARY.replace(
            '"final_test_acc": 0.8', '"final_test_acc": 1' + "0" * 400)),
         ["report", "{t}/out"], 0, "skipping unreadable run"),
        (lambda t: _diagnose_summary(
            t, _DIAGNOSE_SUMMARY.replace('"best_val_acc": 0.9', '"best_val_acc": NaN')),
         ["diagnose", "{t}/out/vanilla/trial_0"], 1, "summary.json"),
    ],
    ids=["diagnose_bins_0", "snapshot_not_zip", "snapshot_truncated",
         "report_output_dir_missing", "report_summary_truncated",
         "report_summary_empty_mapping", "report_summary_list", "diagnose_summary_empty_mapping",
         "report_summary_auc_string", "report_summary_acc_bool", "diagnose_without_summary",
         "snapshot_step_array", "snapshot_losses_2d", "snapshot_step_float",
         "report_summary_nested_deep", "diagnose_summary_nested_deep", "report_summary_nan_inf",
         "report_summary_int_past_float", "diagnose_summary_nan"],
)
def test_report_diagnose_bad_input_one_line(tmp_path, setup, argv, code, expected):
    setup(tmp_path)
    proc = _cli(*(a.format(t=tmp_path) for a in argv))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and expected in err[0], proc.stderr
    if code == 0:  # the readable runs are still reported
        assert proc.stdout.splitlines()[1].startswith("vanilla,2,")
    else:
        assert not list(tmp_path.rglob("*.csv"))


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    parsed = [build_parser().parse_args(argv[1:]) for argv in commands if argv[:1] == ["noisylab"]]
    assert sorted(args.command for args in parsed) == ["diagnose", "inject", "report", "run"]


class TestEndToEndDeterminism:
    def test_identical_configs_identical_report_bytes(self, tmp_path):
        cfg_a = _small_config(tmp_path, out_name="out_a")
        cfg_b = _small_config(tmp_path, out_name="out_b")
        assert main(["run", str(_write_config(tmp_path, cfg_a, "a.yaml"))]) == 0
        assert main(["run", str(_write_config(tmp_path, cfg_b, "b.yaml"))]) == 0
        ra, rb = tmp_path / "ra.csv", tmp_path / "rb.csv"
        assert main(["report", str(tmp_path / "out_a"), "--output", str(ra)]) == 0
        assert main(["report", str(tmp_path / "out_b"), "--output", str(rb)]) == 0
        assert ra.read_bytes() == rb.read_bytes()
