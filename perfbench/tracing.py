"""Spans around the functions each noisylab module exposes to its callers.

The program has no tracing of its own, so the benchmark wraps functions at
the binding their caller looks up: a module attribute for calls made through
the module (``cli`` calls ``trainer_mod.train``), the importing module's
attribute for names bound at import time (``trainer`` binds ``step`` with
``from .model import step``), and the class attribute for methods
(``Params.copy``, each loss's ``per_sample``). Every original is put back
when the ``installed`` block ends.

Spans stay in memory; per-layer metrics are computed from them after the
traced command sequence ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of one thread; ``run_id`` tags the current sequence."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, note=None):
        """``fn`` recorded as a span; ``note(args, result)`` returns span attrs.

        ``note`` runs after the span closes, so it must be cheap: it keeps
        references or reads shapes, and heavier counting happens later.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.attrs = note(args, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    """Wrap each ``(owner, attr, span name, note)`` target; restore on exit."""
    saved = []
    try:
        for owner, attr, name, note in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, note))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def median(values) -> float:
    """The median, or 0 for a layer or pass that recorded nothing."""
    return statistics.median(values) if values else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    v = sorted(values)
    return v[max(math.ceil(p / 100 * len(v)) - 1, 0)]


def tail(values):
    """The highest of p50/p90/p99/p99.9 with at least ten samples above it,
    as ``(p, value)``, or None when the sample is too small."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n - math.ceil(p / 100 * n) >= 10:
            return p, percentile(values, p)
    return None


# ---------------------------------------------------------------- targets


def _examples(args, result):
    return {"examples": args[0].examples}


def _param_bytes(p) -> int:
    return sum(a.nbytes for a in (p.w1, p.b1, p.w2, p.b2) if a is not None)


def _step(args, result):
    return {"param_bytes": _param_bytes(args[0])}


def _copy(args, result):
    return {"bytes": _param_bytes(result)}


def _select(args, result):
    return {"forwarded": 2 * len(args[0]), "kept": len(result[0]) + len(result[1])}


def _train(args, result):
    record = result[0]
    return {"steps": record.final_step, "evals": len(record.entries)}


def train_target():
    """The one wrap untraced runs need: set-up ends and training starts here."""
    from noisylab import trainer

    return [(trainer, "train", "trainer.train", _train)]


def layer_targets():
    from noisylab import cli, data, diagnostics, model, noise, strategies, trainer

    return train_target() + [
        (data, "load_jsonl", "data.jsonl", None),
        (data, "write_jsonl", "data.jsonl", None),
        (data, "synth_dataset", "data.synth_dataset", None),
        (data, "split", "data.split", None),
        (data, "featurize", "data.featurize", _examples),
        (trainer, "feature_matrix", "data.feature_matrix", _examples),
        (model, "feature_matrix", "data.feature_matrix", _examples),
        (noise, "inject", "noise.inject", None),
        (noise, "inject_rules", "noise.inject_rules", None),
        (trainer, "step", "model.step", _step),
        (model.Params, "copy", "model.params_copy", _copy),
        (model, "save_checkpoint", "model.save_checkpoint", None),
        (model.CrossEntropy, "per_sample", "strategies.loss", None),
        (model.SmoothedCrossEntropy, "per_sample", "strategies.loss", None),
        (strategies.NMatCorrectedCE, "per_sample", "strategies.loss", None),
        (trainer, "coteach_select", "strategies.coteach_select", _select),
        (diagnostics, "snapshot_losses", "diagnostics.snapshot_losses", None),
        (diagnostics, "roc", "diagnostics.roc", None),
        (diagnostics, "write_histogram_csv", "diagnostics.csv", None),
        (diagnostics, "write_roc_csv", "diagnostics.csv", None),
        (diagnostics, "write_report_csv", "diagnostics.csv", None),
        (cli, "run_sweep", "cli.run_sweep", None),
        (cli, "cmd_inject", "cli.inject", None),
        (cli, "cmd_report", "cli.report", None),
        (cli, "cmd_diagnose", "cli.diagnose", None),
    ]


# Span names whose summed self time is reported as ``<name>.self_s``.
SELF_TIMED = (
    "data.featurize",
    "data.feature_matrix",
    "data.jsonl",
    "data.synth_dataset",
    "data.split",
    "noise.inject_rules",
    "noise.inject",
    "model.step",
    "model.save_checkpoint",
    "strategies.loss",
    "strategies.coteach_select",
    "trainer.train",
    "diagnostics.snapshot_losses",
    "diagnostics.roc",
    "diagnostics.csv",
    "cli.run_sweep",
    "cli.inject",
    "cli.report",
    "cli.diagnose",
)


def _grams(examples) -> int:
    from noisylab.data import tokenize

    total = 0
    for ex in examples:
        n = len(tokenize(ex.text))
        total += n + max(n - 1, 0)
    return total


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as ``name -> (value, unit)``, from one pass's spans."""
    by_name = defaultdict(list)
    self_s = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        by_name[s.name].append(s)
        self_s[s.name] += t

    def noted(name, key):
        # a call that raised has no note
        return [s.attrs[key] for s in by_name[name] if key in s.attrs]

    out = {f"{name}.self_s": (self_s[name], "s") for name in SELF_TIMED}
    out["data.featurize.grams"] = (
        sum(_grams(e) for e in noted("data.featurize", "examples")),
        "count",
    )
    assembled = noted("data.feature_matrix", "examples")
    rows = sum(len(e) for e in assembled)
    distinct = len({ex.id for e in assembled for ex in e})
    out["data.feature_matrix.calls"] = (len(by_name["data.feature_matrix"]), "count")
    out["data.feature_matrix.rebuild_ratio"] = (rows / distinct if distinct else 0.0, "ratio")

    step_ms = [(s.end - s.start) * 1e3 for s in by_name["model.step"]]
    step_tail = tail(step_ms)
    out["model.step.calls"] = (len(step_ms), "count")
    out["model.step.p50_ms"] = (percentile(step_ms, 50) if step_ms else 0.0, "ms")
    out["model.step.tail_ms"] = (step_tail[1] if step_tail else 0.0, "ms")
    out["model.step.param_bytes"] = (median(noted("model.step", "param_bytes")), "bytes")
    out["model.params_copy.calls"] = (len(by_name["model.params_copy"]), "count")
    out["model.params_copy.bytes"] = (sum(noted("model.params_copy", "bytes")), "bytes")

    forwarded = sum(noted("strategies.coteach_select", "forwarded"))
    kept = sum(noted("strategies.coteach_select", "kept"))
    out["strategies.coteach.kept_ratio"] = (kept / forwarded if forwarded else 0.0, "ratio")

    out["trainer.train.calls"] = (len(by_name["trainer.train"]), "count")
    out["trainer.steps"] = (sum(noted("trainer.train", "steps")), "count")
    out["trainer.evals"] = (sum(noted("trainer.train", "evals")), "count")
    return out
