"""Subject-disjoint evaluation: splitting, metrics, and the experiment pipeline.

The pipeline is split → segment → reduce each window to the row its detector
reads (88 features, or the peak of each voted signal) → fit on development
subjects only → predict on evaluation subjects → confusion metrics (Fall is
the positive class). Every consumption of a subject's data is recorded in an AccessLog
keyed by (subject_id, stage) so tests can prove that no evaluation subject is
touched during calibration, standardization, or training.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import DEFAULT_WINDOW_SECONDS, Label, SignalWindow, is_int, window_ref
from .datasets import TrialRows, map_trials
from .errors import DataError, in_stage
from .features import N_FEATURES, window_values
from .ml import ClassifierModel, make_classifier, predict, train
from .threshold import DEFAULT_SIGNALS, ThresholdConfig, calibrate_peaks, check_signals, vote

EVAL_FRACTION = 0.2

STAGE_CALIBRATION = "calibration"
STAGE_STANDARDIZATION = "standardization"
STAGE_TRAINING = "training"
STAGE_PREDICTION = "prediction"


class AccessLog:
    """Set of (subject_id, stage) pairs recording who was read when."""

    def __init__(self):
        self._events: set[tuple[str, str]] = set()

    def record(self, subject_id: str, stage: str) -> None:
        self._events.add((subject_id, stage))

    @property
    def events(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._events)

    def digest(self) -> str:
        import hashlib  # here, not at the top, so that a command that hashes nothing does not load OpenSSL

        joined = "\n".join(f"{s}\t{st}" for s, st in sorted(self._events))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    def violations(self, eval_subjects: Iterable[str]) -> list[tuple[str, str]]:
        """Eval-subject accesses outside the prediction stage (empty = no leakage)."""
        eval_set = set(eval_subjects)
        return sorted((s, st) for s, st in self._events if s in eval_set and st != STAGE_PREDICTION)


@dataclass(frozen=True)
class SubjectSplit:
    dev_subjects: tuple[str, ...]
    eval_subjects: tuple[str, ...]
    seed: int


def split_subjects(subjects: Iterable[str], seed: int) -> SubjectSplit:
    """Deterministic 80/20 subject split; eval gets max(1, round(0.2 n)) subjects."""
    ordered = sorted(set(subjects))
    n = len(ordered)
    if n < 2:
        raise DataError(f"need at least 2 subjects, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [ordered[i] for i in perm]
    n_eval = max(1, round(EVAL_FRACTION * n))
    return SubjectSplit(
        dev_subjects=tuple(sorted(shuffled[:-n_eval])),
        eval_subjects=tuple(sorted(shuffled[-n_eval:])),
        seed=seed,
    )


@dataclass(frozen=True)
class EvalReport:
    """The confusion counts of one detector on one dataset, and the percentages they give (None for a 0/0 ratio)."""

    detector: str
    dataset: str
    tp: int
    fn: int
    tn: int
    fp: int

    def __post_init__(self):
        if not (isinstance(self.detector, str) and isinstance(self.dataset, str)):
            raise DataError(f"detector and dataset must be strings, got {self.detector!r} and {self.dataset!r}")
        counts = (self.tp, self.fn, self.tn, self.fp)
        # a total past 2**53 would not convert to a float exactly, or at all past the float range
        if not (all(is_int(c) and c >= 0 for c in counts) and 0 < sum(counts) <= 2**53):
            raise DataError(f"confusion counts must be integers >= 0 with a sum from 1 to 2**53, got {counts}")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.tn + self.fp

    @property
    def accuracy(self) -> float:
        return 100.0 * (self.tp + self.tn) / self.total

    @property
    def sensitivity(self) -> float | None:
        return 100.0 * self.tp / (self.tp + self.fn) if (self.tp + self.fn) else None

    @property
    def specificity(self) -> float | None:
        return 100.0 * self.tn / (self.tn + self.fp) if (self.tn + self.fp) else None

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "dataset": self.dataset,
            "confusion": {"tp": self.tp, "fn": self.fn, "tn": self.tn, "fp": self.fp},
            "accuracy_pct": self.accuracy,
            "sensitivity_pct": self.sensitivity,
            "specificity_pct": self.specificity,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """The report of `to_dict`'s form; its stored percentages are ignored, as the counts give them."""
        c = d["confusion"]
        return cls(d["detector"], d["dataset"], c["tp"], c["fn"], c["tn"], c["fp"])


def compute_metrics(
    predictions: Sequence[tuple[Label, Label]],
    detector: str = "",
    dataset: str = "",
) -> EvalReport:
    """The confusion counts of (predicted, actual) pairs, as a report that derives the percentage metrics."""
    if not predictions:
        raise ValueError("no predictions to score")
    falls = [(predicted is Label.FALL, actual is Label.FALL) for predicted, actual in predictions]
    tp, fn = falls.count((True, True)), falls.count((False, True))
    tn, fp = falls.count((False, False)), falls.count((True, False))
    return EvalReport(detector, dataset, tp, fn, tn, fp)


def _fmt_pct(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}%"


# Each C0 control character as its escape (a newline as the two characters \n), so a name keeps its header one line.
_C0_ESCAPES = {code: chr(code).encode("unicode_escape").decode("ascii") for code in range(0x20)}


def report_table(reports: Sequence[EvalReport]) -> str:
    """Aligned plain-text table: one metric per row, one detector per column, with C0 controls escaped in headers."""
    headers = [(f"{r.detector} [{r.dataset}]" if r.dataset else r.detector).translate(_C0_ESCAPES) for r in reports]
    rows = [
        ("Accuracy", [_fmt_pct(r.accuracy) for r in reports]),
        ("Sensitivity (SE)", [_fmt_pct(r.sensitivity) for r in reports]),
        ("Specificity (SP)", [_fmt_pct(r.specificity) for r in reports]),
    ]
    label_w = max(len(r[0]) for r in rows)
    widths = [max(len(h), *(len(row[1][i]) for row in rows)) for i, h in enumerate(headers)]
    lines = [" " * label_w + "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for name, cells in rows:
        lines.append(name.ljust(label_w) + "  " + "  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"


def report_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class PredictionRecord:
    window_ref: str
    subject_id: str
    actual: Label
    predicted: Label
    score: float


def predictions_csv(records: Sequence[PredictionRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window_ref", "subject_id", "actual", "predicted", "score"])
        for r in records:
            writer.writerow([r.window_ref, r.subject_id, r.actual.value, r.predicted.value, repr(r.score)])


@dataclass(frozen=True)
class DetectorSpec:
    """What to run: 'threshold' with a signal set, or 'knn'/'rf'/'svm' with a view and hyperparameter `params`."""

    kind: str
    signals: tuple[str, ...] = DEFAULT_SIGNALS
    feature_view: str = "combined88"
    params: dict = field(default_factory=dict)

    def __post_init__(self):  # the parameters are checked as the spec is built, before any corpus is read
        if self.kind != "threshold":
            make_classifier(self.kind, self.feature_view, self.params)
            return
        check_signals(self.signals)
        if self.params:
            raise DataError(f"unknown threshold parameters: {sorted(self.params)}; the threshold detector takes none")


@dataclass
class ExperimentResult:
    report: EvalReport
    split: SubjectSplit
    access_log: AccessLog
    predictions: list[PredictionRecord]
    detector: ThresholdConfig | ClassifierModel


class Rows(NamedTuple):
    """What a detector reads of some windows, one entry per window: row i of `values` is the 88 features of window
    i, or the peak of each signal a threshold detector votes on (`features.window_values`)."""

    window_refs: tuple[str, ...]
    subject_ids: tuple[str, ...]
    labels: tuple[Label, ...]
    values: np.ndarray


def _rows(trials: Sequence, subjects: Iterable[str], signals, window_seconds: float, stages: tuple, log: AccessLog):
    """The `Rows` of every window of the trials of `subjects`, in trial id order (so that a fit does not depend on the
    order of the index), each trial's subject recorded in `log` at each of `stages`; a toolkit error is labelled with
    the last stage. Each trial is reduced to its matrix by `datasets.map_trials`.
    """
    subjects = set(subjects)
    chosen = sorted((trial for trial in trials if trial.subject_id in subjects), key=lambda trial: trial.trial_id)
    per_trial = map_trials(TrialRows(signals, window_seconds, stages[-1]), chosen)
    for trial in chosen:
        for stage in stages:
            log.record(trial.subject_id, stage)
    windows = [(trial, i) for trial, values in zip(chosen, per_trial) for i in range(len(values))]
    refs = tuple(window_ref(t.trial_id, i) for t, i in windows)
    values = np.concatenate(per_trial) if per_trial else np.empty((0, N_FEATURES))
    return Rows(refs, tuple(t.subject_id for t, _ in windows), tuple(t.label for t, _ in windows), values)


def fit_detector(spec: DetectorSpec, rows: Rows, seed: int) -> ThresholdConfig | ClassifierModel:
    """Calibrate thresholds or train a classifier on the rows of the development windows, as `spec` says."""
    if spec.kind == "threshold":
        return calibrate_peaks(rows.values, rows.labels, spec.signals)
    return train(spec.kind, spec.feature_view, rows.values, rows.labels, seed, **spec.params)


def classify_rows(detector: ThresholdConfig | ClassifierModel, values: np.ndarray) -> list[tuple[Label, float]]:
    """Verdict and score for each row of `window_values` (the peaks of `detector.signals`, or the 88 features).

    The score is the fraction of signals voting Fall for a threshold detector, and `predict`'s score for a classifier.
    """
    if isinstance(detector, ThresholdConfig):
        return [vote(detector, peaks) for peaks in values.tolist()]
    return [predict(detector, row) for row in values]


def classify_many(
    detector: ThresholdConfig | ClassifierModel, windows: Sequence[SignalWindow]
) -> list[tuple[Label, float]]:
    """Verdict and score (`classify_rows`) for each window, in order.

    A non-finite value in a signal the detector reads raises NonFiniteSignal, as a vote on it would be meaningless.
    """
    signals = detector.signals if isinstance(detector, ThresholdConfig) else None
    return classify_rows(detector, window_values(windows, signals))


def fit_on_dev(
    trials: Sequence, spec: DetectorSpec, seed: int, window_seconds: float, log: AccessLog
) -> tuple[ThresholdConfig | ClassifierModel, SubjectSplit, int]:
    """Fit `spec` on the development subjects of `trials`: (detector, split, number of development windows).

    `trials` are recordings or `datasets.read_index` entries; only the development subjects' trials are reduced
    (`_rows`), and their subjects are recorded in `log` at the fit stages.
    """
    split = in_stage("split", split_subjects, (trial.subject_id for trial in trials), seed)
    fit_stages = (STAGE_CALIBRATION,) if spec.kind == "threshold" else (STAGE_STANDARDIZATION, STAGE_TRAINING)
    signals = spec.signals if spec.kind == "threshold" else None
    dev_rows = _rows(trials, split.dev_subjects, signals, window_seconds, fit_stages, log)
    return in_stage(fit_stages[-1], fit_detector, spec, dev_rows, seed), split, dev_rows.values.shape[0]


def predict_subjects(
    detector: ThresholdConfig | ClassifierModel,
    trials: Sequence,
    subjects: Iterable[str],
    window_seconds: float,
    log: AccessLog,
) -> list[PredictionRecord]:
    """Predictions for the windows of the trials (as in `fit_on_dev`) of `subjects`, in order, each logged in `log`."""
    signals = detector.signals if isinstance(detector, ThresholdConfig) else None
    rows = _rows(trials, subjects, signals, window_seconds, (STAGE_PREDICTION,), log)
    verdicts = in_stage(STAGE_PREDICTION, classify_rows, detector, rows.values)
    return [
        PredictionRecord(ref, subject_id, label, predicted, float(score))
        for ref, subject_id, label, (predicted, score) in zip(rows.window_refs, rows.subject_ids, rows.labels, verdicts)
    ]


def run_experiment(
    trials: Sequence,
    spec: DetectorSpec,
    seed: int,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    dataset_name: str = "",
) -> ExperimentResult:
    """Full subject-disjoint evaluation of one detector configuration: `fit_on_dev`, then `predict_subjects`.

    `trials` are as in `fit_on_dev`. No evaluation-subject data reaches calibration, standardization, or training,
    as the returned access log shows: the evaluation subjects' trials are reduced only once the detector is fitted.
    """
    log = AccessLog()
    detector, split, _ = fit_on_dev(trials, spec, seed, window_seconds, log)
    records = predict_subjects(detector, trials, split.eval_subjects, window_seconds, log)
    pairs = [(r.predicted, r.actual) for r in records]
    report = in_stage("metrics", compute_metrics, pairs, detector.describe(), dataset_name)
    return ExperimentResult(report=report, split=split, access_log=log, predictions=records, detector=detector)
