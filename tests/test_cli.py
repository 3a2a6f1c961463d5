import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import noisylab as nl
from noisylab.cli import aggregate_report, load_config, main
from noisylab.errors import ConfigError


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
        "rules, expected",
        [
            (None, "missing.jsonl"),
            ('{"keyword": "word1", "class": 1}\n{"class": 2}\n', "line 2: missing 'keyword'"),
            ('{"keyword": "word1", "class": 1}\nword2 -> 2\n', "line 2"),
        ],
        ids=["missing_input", "rule_without_keyword", "rules_not_json"],
    )
    def test_unreadable_input_one_line_failure(self, tmp_path, capsys, rules, expected):
        src = tmp_path / "clean.jsonl"
        argv = ["--type", "uniform", "--level", "0.4"]
        if rules is None:
            src = tmp_path / "missing.jsonl"
        else:
            _write_clean_jsonl(src, n=10)
            (tmp_path / "rules.jsonl").write_text(rules)
            argv = ["--type", "rules", "--rules", str(tmp_path / "rules.jsonl")]
        code = main(
            ["inject", "--input", str(src), "--output", str(tmp_path / "o.jsonl"), "--k", "4", *argv]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("inject:") and expected in err[0]

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
        ],
        ids=["noise_without_level", "batch_size_0", "alpha_1.5", "lambda_key",
             "missing_matrix_csv", "lr_5e-1", "level_1.5", "synth_dims_64",
             "synth_without_k", "split_train_x", "split_sum_0.7", "trials_abc"],
    )
    def test_config_exit_code_without_traceback(self, tmp_path, edit, code):
        cfg = _small_config(tmp_path, trials=1)
        edit(cfg)
        proc = _cli("run", str(_write_config(tmp_path, cfg)))
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_accepted_keys_are_dataclass_fields(self, tmp_path):
        cfg = _small_config(tmp_path)
        cfg["train"] = dataclasses.asdict(nl.TrainConfig())
        cfg["strategies"] = [
            {"name": "vanilla"},
            {"name": "no_validation"},
            {"name": "nmat", "matrix": True},
            {"name": "nmwr", "lam": 1e-4},
            {"name": "nmwr"},
            {"name": "coteaching", "eps": 0.3, "ramp_epochs": 2},
            {"name": "label_smoothing", "alpha": 0.1},
        ]
        load_config(_write_config(tmp_path, cfg))

    def test_nmat_matrix_size_mismatch_fails_run(self, tmp_path, capsys):
        T3 = tmp_path / "T3.csv"
        nl.uniform_matrix(3, 0.2).save_csv(T3)
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

    def test_unknown_strategy_rejected(self, tmp_path):
        cfg = _small_config(tmp_path)
        cfg["strategies"].append({"name": "magic"})
        with pytest.raises(ConfigError):
            load_config(_write_config(tmp_path, cfg))

    def test_best_acc_reproducible_from_checkpoint(self, tmp_path):
        from noisylab import cli as cli_mod

        cfg = _small_config(tmp_path)
        cfg_path = _write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path)]) == 0
        run_dir = tmp_path / "out" / "vanilla" / "trial_0"
        summary = json.loads((run_dir / "summary.json").read_text())
        from noisylab.model import load_checkpoint

        params, _ = load_checkpoint(run_dir / "best.npz")
        splits, _, _ = cli_mod._apply_noise(cli_mod._build_dataset(cfg), cfg["noise"])
        _, _, test_ds = splits
        assert nl.evaluate(params, test_ds, "clean") == summary["best_test_acc"]


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

    def test_no_runs_error(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 1


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
        code = main(["diagnose", str(tmp_path / "out" / "vanilla" / "trial_0")])
        assert code == 3


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
