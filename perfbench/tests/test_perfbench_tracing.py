"""Tests of the benchmark's span bookkeeping: self time, and wrapper install
and restore on the noisylab bindings."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from noisylab import cli, model, trainer  # noqa: E402

from perfbench import tracing  # noqa: E402
from perfbench.tracing import Span, Tracer, installed, self_times  # noqa: E402


def spans(*rows):
    return [Span(name, start, end, parent, 0) for name, start, end, parent in rows]


def test_self_time_subtracts_direct_children_only():
    s = spans(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 6.5, 0),
    )
    assert self_times(s) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    s = spans(
        ("root", 0.0, 10.0, None),
        ("x", 2.0, 6.0, 0),
        ("y", 4.0, 8.0, 0),  # overlaps x on [4, 6]
        ("z", 9.0, 12.0, 0),  # runs past the parent's end
    )
    assert self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times(spans(("only", 3.0, 3.25, None))) == [0.25]


def test_tail_is_the_highest_percentile_with_ten_samples_above_it():
    assert tracing.tail(list(range(19))) is None
    assert tracing.tail(list(range(20))) == (50.0, 9)
    assert tracing.tail(list(range(1010))) == (99.0, 999)


def test_tracer_nests_spans_and_records_parents():
    tracer = Tracer()
    tracer.run_id = 7

    def inner():
        return 1

    traced_inner = tracer.wrap("inner", inner, note=lambda args, result: {"r": result})
    with tracer.span("outer"):
        assert traced_inner() == 1
    outer, leaf = tracer.spans
    assert (outer.name, outer.parent, leaf.name, leaf.parent) == ("outer", None, "inner", 0)
    assert leaf.attrs == {"r": 1} and leaf.run_id == outer.run_id == 7
    assert outer.start <= leaf.start <= leaf.end <= outer.end


def _originals(targets):
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]


def test_layer_targets_are_restored_after_the_block():
    targets = tracing.layer_targets()
    before = _originals(targets)
    with installed(Tracer(), targets):
        assert all(vars(o)[a] is not f for o, a, f in before)
        assert trainer.step is not model.step  # the caller's binding is wrapped
    assert all(vars(o)[a] is f for o, a, f in before)


def test_restore_happens_when_the_block_raises():
    targets = tracing.layer_targets()
    before = _originals(targets)
    with pytest.raises(RuntimeError):
        with installed(Tracer(), targets):
            raise RuntimeError("boom")
    assert all(vars(o)[a] is f for o, a, f in before)


def test_partial_install_is_undone_when_a_target_is_missing():
    original = vars(trainer)["train"]
    with pytest.raises(KeyError):
        with installed(Tracer(), [(trainer, "train", "t", None), (trainer, "nope", "n", None)]):
            pass
    assert vars(trainer)["train"] is original


def test_traced_cli_run_records_each_layer(tmp_path):
    cfg = {
        "dataset": {"synth": {"k": 3, "n": 300, "margin": 0.7, "seed": 1}},
        "split": {"train": 0.8, "val": 0.1, "test": 0.1, "seed": 2},
        "noise": {"type": "uniform", "level": 0.3, "seed": 3},
        "strategies": [{"name": "coteaching"}, {"name": "label_smoothing"}],
        "train": {"max_epochs": 1, "eval_every": 2, "seed": 4, "arch": "mlp", "hidden": 8},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"  # JSON is valid YAML
    path.write_text(json.dumps(cfg))
    tracer = Tracer()
    with installed(tracer, tracing.layer_targets()):
        assert cli.main(["run", str(path)]) == 0
    names = {s.name for s in tracer.spans}
    assert {
        "cli.run_sweep",
        "data.synth_dataset",
        "data.split",
        "noise.inject",
        "trainer.train",
        "data.feature_matrix",
        "model.step",
        "strategies.loss",
        "strategies.coteach_select",
        "model.params_copy",
        "model.save_checkpoint",
        "diagnostics.snapshot_losses",
        "diagnostics.roc",
    } <= names
    m = tracing.layer_metrics(tracer.spans)
    steps = m["trainer.steps"][0]
    # 240 rows in batches of 32: 8 steps per run; co-teaching steps twice per batch.
    assert (m["trainer.train.calls"][0], steps, m["model.step.calls"][0]) == (2, 16, 24)
    assert 0 < m["strategies.coteach.kept_ratio"][0] <= 1
    assert m["model.step.param_bytes"][0] == 8 * (1024 * 8 + 8 + 8 * 3 + 3)
    # train/val/test per run plus the snapshot rebuild of the training rows
    assert m["data.feature_matrix.calls"][0] == 8
    assert m["data.feature_matrix.rebuild_ratio"][0] == pytest.approx((2 * 300 + 2 * 240) / 300)
    assert m["data.featurize.grams"][0] == 0
