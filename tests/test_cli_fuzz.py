"""Random bad input at the CLI's boundary: mutated run configs, garbled run
artifacts and odd ``inject`` flags. Whatever the input, no exception leaves
``main``, the exit code is a documented one, and each failure is one stderr
line: one for the command, or for ``run``, one per failed strategy and trial."""

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from noisylab.cli import main

# The values a one-leaf mutation writes (all survive a YAML round trip).
_VALUES = [None, "", 1, -1, 0, 2**63, 1e308, -1e308, float("nan"), float("inf"), [], {},
           True, False, "1", "0.5", "-1"]
# Keys that set how long a run loops take no value that would loop for hours.
_LOOP_KEYS = {"trials", "max_epochs"}
_LOOP_VALUES = [v for v in _VALUES if v not in (2**63, 1e308)]
_DELETE = object()


def _config(kind="synth", files=Path(".")):
    """A run config over synthetic data, or over the text dataset in ``files``
    under ``rules`` or ``matrix`` noise."""
    cfg = {
        "dataset": {"synth": {"k": 3, "n": 60, "margin": 0.8, "seed": 1, "dims": 128}},
        "split": {"train": 0.6, "val": 0.2, "test": 0.2, "seed": 2},
        "noise": {"type": "uniform", "level": 0.3, "seed": 3},
        "strategies": [{"name": "vanilla"}, {"name": "no_validation"}, {"name": "nmat", "matrix": True},
                       {"name": "nmwr", "lam": 1e-3}, {"name": "coteaching", "ramp_epochs": 2},
                       {"name": "label_smoothing", "alpha": 0.1}],
        "train": {"lr": 0.5, "batch_size": 16, "max_epochs": 2, "eval_every": 2, "patience": 2,
                  "seed": 4, "arch": "mlp", "hidden": 8},
        "trials": 1,
        "output_dir": "out",  # under each example's working directory
    }
    if kind != "synth":
        cfg["dataset"] = {"path": str(files / "text.jsonl"), "k": 3, "featurize_dims": 256}
    if kind == "rules":
        cfg["noise"] = {"type": "rules", "rules": str(files / "rules.jsonl"), "abstain_to_clean": True}
    elif kind == "matrix":
        cfg["noise"] = {"type": "matrix", "matrix": str(files / "T.csv"), "seed": 3}
    return cfg


def _paths(node, prefix=()):
    """The path of every key and list item under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_PATHS = {kind: list(_paths(_config(kind))) for kind in ("synth", "rules", "matrix")}


@st.composite
def _mutation(draw, kind):
    path = draw(st.sampled_from(_PATHS[kind]))
    values = _LOOP_VALUES if path[-1] in _LOOP_KEYS else _VALUES
    return path, draw(st.sampled_from([*values, _DELETE]))


def _mutate(cfg, path, value):
    """Set or delete the node at ``path``, if no earlier edit removed or replaced it."""
    *parents, key = path
    node = cfg
    with contextlib.suppress(KeyError, IndexError, TypeError):
        for k in parents:
            node = node[k]
        node[key]  # still there
        if value is _DELETE:
            del node[key]
        else:
            node[key] = value


def _main(*argv):
    """``main``'s exit code and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


_FAILED_RUN = re.compile(r"run \w+/trial_\d+ failed: ")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def text_files(tmp_path_factory):
    """A small text dataset, its keyword rules and a noise matrix."""
    root = tmp_path_factory.mktemp("text")
    (root / "text.jsonl").write_text("".join(
        json.dumps({"id": str(i), "text": f"word{i % 7} word{i % 5} word{i % 3}", "clean_label": i % 3}) + "\n"
        for i in range(60)))
    (root / "rules.jsonl").write_text('{"keyword": "word1", "class": 2}\n{"keyword": "word4", "class": 0}\n')
    (root / "T.csv").write_text("0.8,0.1,0.1\n0.1,0.8,0.1\n0.1,0.1,0.8\n")
    return root


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind_mutations=st.sampled_from(list(_PATHS)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.lists(_mutation(kind), min_size=1, max_size=2))))
def test_mutated_config_exits_cleanly(workdir, text_files, monkeypatch, kind_mutations):
    """A run fails as a whole with exit 2 and one line, or runs and reports
    one line per failed strategy and trial with exit 1. Each example runs in
    an empty working directory, where a relative ``output_dir`` lands."""
    kind, mutations = kind_mutations
    cfg = _config(kind, text_files)
    for path, value in mutations:
        _mutate(cfg, path, value)
    cwd = workdir / "cwd"
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    path = workdir / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, err = _main("run", path)
    assert code in (0, 1, 2), err
    if code == 1 and err and all(_FAILED_RUN.match(line) for line in err):
        assert len(err) == len(list(cwd.rglob("FAILED")))
    else:  # exit 2, or 1 for a MemoryError: one line for the whole run
        assert len(err) == (code != 0) and all(line.startswith("run: ") for line in err), err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A finished vanilla run directory."""
    root = tmp_path_factory.mktemp("finished")
    cfg = dict(_config(), strategies=[{"name": "vanilla"}], output_dir=str(root / "out"))
    (root / "config.yaml").write_text(yaml.safe_dump(cfg))
    assert _main("run", root / "config.yaml") == (0, [])
    return root / "out" / "vanilla" / "trial_0"


def _garble(data: bytes, edit, at: float, text: bytes) -> bytes:
    at = int(at * len(data))
    if edit == "truncate":
        return data[:at]
    if edit == "overwrite":
        return data[:at] + text + data[at + len(text):]
    return data[:at] + text + data[at:]


_EDIT = st.tuples(st.sampled_from(["truncate", "overwrite", "insert"]),
                  st.floats(0, 1), st.binary(min_size=1, max_size=8))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(summary=st.none() | _EDIT, snapshot=st.none() | _EDIT,
       field=st.none() | st.tuples(st.sampled_from(["strategy", "best_test_acc", "final_test_acc", "auc",
                                                    "best_val_acc"]), st.sampled_from(_VALUES)))
def test_garbled_artifacts_exit_cleanly(finished_run, workdir, summary, snapshot, field):
    """``report`` and ``diagnose`` over a run whose ``summary.json`` and
    ``snapshot.npz`` are truncated, overwritten in part or grown, or whose
    summary holds an odd value in one field."""
    run_dir = workdir / "garbled" / "vanilla" / "trial_0"
    shutil.rmtree(workdir / "garbled", ignore_errors=True)
    shutil.copytree(finished_run, run_dir)
    summary_path, snapshot_path = run_dir / "summary.json", run_dir / "snapshot.npz"
    if field is not None:
        key, value = field
        summary_path.write_text(json.dumps(dict(json.loads(summary_path.read_text()), **{key: value})))
    for path, edit in ((summary_path, summary), (snapshot_path, snapshot)):
        if edit is not None:
            path.write_bytes(_garble(path.read_bytes(), *edit))

    code, err = _main("report", workdir / "garbled")
    assert code in (0, 1), err
    assert all(line.startswith("report: ") for line in err), err
    if code == 1:
        assert err[-1] == "report: no completed runs found", err

    code, err = _main("diagnose", run_dir)
    assert code in (0, 1, 3), err
    assert len(err) == (code != 0), err
    assert all(line.startswith("diagnose: ") for line in err), err


_FLAG_VALUES = ["", "0", "1", "-1", "2", "0.5", "1.5", "nan", "inf", "-inf", "1e308", str(2**63), "x", "--k"]


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["uniform", "sflip", "matrix", "rules"]), k=st.sampled_from(_FLAG_VALUES),
       value=st.sampled_from(_FLAG_VALUES),
       extra=st.dictionaries(st.sampled_from(["--level", "--seed", "--matrix", "--rules"]),
                             st.sampled_from(_FLAG_VALUES), max_size=1))
@example(kind="uniform", k=str(2**63), value="0.5", extra={})  # a k x k matrix no array can hold
def test_odd_inject_flags_exit_cleanly(workdir, kind, k, value, extra):
    """``inject`` on a small clean dataset with ``value`` for the flag that
    ``kind`` needs, maybe one more flag, and flag values drawn at random; a
    ``--matrix`` or ``--rules`` value names a file that does not exist."""
    src = workdir / "clean.jsonl"
    src.write_text("".join(json.dumps({"id": str(i), "text": f"word{i % 3}", "clean_label": i % 2}) + "\n"
                           for i in range(10)))
    flags = {"--level" if kind in ("uniform", "sflip") else f"--{kind}": value, **extra}
    argv = ["inject", "--input", src, "--output", workdir / "noisy.jsonl", "--type", kind, "--k", k]
    code, err = _main(*argv, *(x for flag_value in flags.items() for x in flag_value))
    assert code in (0, 1, 2), err
    assert len(err) == (code != 0), err
    assert not err or err[0].startswith("inject: "), err
