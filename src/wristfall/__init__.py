"""Fall detection toolkit for wrist-worn IMU recordings.

Pipeline: ingest raw corpora (or synthesize one), segment recordings into
fixed-duration windows, compute derived signals and 88-dimensional statistical
feature vectors, detect falls by per-signal thresholds with majority voting or
by KNN / random forest / linear SVM classifiers, and evaluate with a
subject-disjoint 80/20 protocol.
"""

from .core import Label, SignalWindow, Source, TrialRecording, segment
from .datasets import (
    DatasetManifest,
    IngestReport,
    ingest,
    load_manifest,
    read_canonical,
    save_manifest,
    write_canonical,
)
from .evaluation import (
    DetectorSpec,
    EvalReport,
    SubjectSplit,
    classify_many,
    compute_metrics,
    fit_detector,
    fit_on_dev,
    predict_subjects,
    run_experiment,
    split_subjects,
)
from .features import FEATURE_NAMES, extract_many, stats11
from .ml import ClassifierModel, Standardizer, load_model, predict, save_model, train
from .signals import DerivedSignalSet, avd, derive_all, fall_index, smv
from .synthetic import synthesize
from .threshold import ThresholdConfig, load_threshold_config, save_threshold_config

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel",
    "DatasetManifest",
    "DerivedSignalSet",
    "DetectorSpec",
    "EvalReport",
    "FEATURE_NAMES",
    "IngestReport",
    "Label",
    "SignalWindow",
    "Source",
    "Standardizer",
    "SubjectSplit",
    "ThresholdConfig",
    "TrialRecording",
    "avd",
    "classify_many",
    "compute_metrics",
    "derive_all",
    "extract_many",
    "fall_index",
    "fit_detector",
    "fit_on_dev",
    "ingest",
    "load_manifest",
    "load_model",
    "load_threshold_config",
    "predict",
    "predict_subjects",
    "read_canonical",
    "run_experiment",
    "save_manifest",
    "save_model",
    "save_threshold_config",
    "segment",
    "smv",
    "split_subjects",
    "stats11",
    "synthesize",
    "train",
    "write_canonical",
]
