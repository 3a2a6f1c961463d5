"""Training text classifiers under label noise: injection, noise-handling
strategies, early stopping on noisy validation, and loss-separability
diagnostics."""

from .data import (
    Dataset,
    Example,
    SplitSpec,
    featurize,
    load_jsonl,
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
from .model import Params, evaluate, init_params
from .strategies import (
    CoTeaching,
    LabelSmoothing,
    NMat,
    NMwR,
    NoValidation,
    Strategy,
    Vanilla,
    coteach_select,
    keep_fraction,
)
from .trainer import RunRecord, TrainConfig, compare_val_policies, train
from .diagnostics import LossSnapshot, RocCurve, histogram, roc, snapshot_losses

__all__ = [
    "Dataset",
    "Example",
    "SplitSpec",
    "featurize",
    "load_jsonl",
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
    "evaluate",
    "init_params",
    "CoTeaching",
    "LabelSmoothing",
    "NMat",
    "NMwR",
    "NoValidation",
    "Strategy",
    "Vanilla",
    "coteach_select",
    "keep_fraction",
    "RunRecord",
    "TrainConfig",
    "compare_val_policies",
    "train",
    "LossSnapshot",
    "RocCurve",
    "histogram",
    "roc",
    "snapshot_losses",
]
