"""Training text classifiers under label noise: injection, noise-handling
strategies, early stopping on noisy validation, and loss-separability
diagnostics."""

from .data import (
    Dataset,
    Example,
    compact_columns,
    featurize,
    load_jsonl,
    load_text,
    split,
    synth_dataset,
    write_jsonl,
)
from .noise import (
    RuleSet,
    TransitionMatrix,
    diag_dominant,
    fdr,
    inject,
    inject_rules,
    matrix_from_pairs,
    single_flip_matrix,
    uniform_matrix,
)
from .model import Params, init_params
from .strategies import (
    CoTeaching,
    LabelSmoothing,
    NMat,
    NMwR,
    NoValidation,
    Strategy,
    Vanilla,
    coteach_select,
)
from .trainer import RunRecord, TrainConfig, train
from .diagnostics import LossSnapshot, RocCurve, histogram, roc, snapshot_losses

__all__ = [
    "Dataset",
    "Example",
    "compact_columns",
    "featurize",
    "load_jsonl",
    "load_text",
    "split",
    "synth_dataset",
    "write_jsonl",
    "RuleSet",
    "TransitionMatrix",
    "diag_dominant",
    "fdr",
    "inject",
    "inject_rules",
    "matrix_from_pairs",
    "single_flip_matrix",
    "uniform_matrix",
    "Params",
    "init_params",
    "CoTeaching",
    "LabelSmoothing",
    "NMat",
    "NMwR",
    "NoValidation",
    "Strategy",
    "Vanilla",
    "coteach_select",
    "RunRecord",
    "TrainConfig",
    "train",
    "LossSnapshot",
    "RocCurve",
    "histogram",
    "roc",
    "snapshot_losses",
]
