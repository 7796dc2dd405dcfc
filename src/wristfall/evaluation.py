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
import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import DEFAULT_WINDOW_SECONDS, Label, SignalWindow, TrialRecording, is_int, segment
from .datasets import map_trials
from .errors import DataError, ExperimentStageError, NonFiniteSignal, WristfallError
from .features import N_FEATURES, extract_many
from .ml import ClassifierModel, make_classifier, predict, train
from .signals import DerivedSignalSet, derive_all
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
    tp = fn = tn = fp = 0
    for predicted, actual in predictions:
        if actual is Label.FALL:
            if predicted is Label.FALL:
                tp += 1
            else:
                fn += 1
        else:
            if predicted is Label.FALL:
                fp += 1
            else:
                tn += 1
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


class WindowRow(NamedTuple):
    """What a detector reads of one window: `values` is its 88 features, or the peak of each signal a threshold
    detector votes on (`window_values`)."""

    window_ref: str
    subject_id: str
    label: Label
    values: np.ndarray


def window_values(windows: Sequence[SignalWindow], signals: tuple[str, ...] | None) -> np.ndarray:
    """One row per window: the peak of each of `signals` (a threshold detector), or with None its 88 features.

    A signal holding inf or nan raises NonFiniteSignal (`_derive_checked`); on the finite signals left, a value
    exceeds a threshold exactly when the peak does, so the peaks are all the vote and the grid search read.
    """
    if signals is None:
        return extract_many(windows)
    peaks = np.empty((len(windows), len(signals)))
    for i, w in enumerate(windows):
        derived = _derive_checked(w, signals)
        peaks[i] = [derived.by_name(name).max() for name in signals]
    return peaks


def trial_rows(rec: TrialRecording, signals: tuple[str, ...] | None, window_seconds: float) -> list[WindowRow]:
    """The rows (`window_values`) of the windows `segment` cuts from one recording, in window order."""
    windows = segment(rec, window_seconds=window_seconds)
    return [
        WindowRow(w.window_ref, w.subject_id, w.label, values)
        for w, values in zip(windows, window_values(windows, signals))
    ]


def _rows(trials: Sequence, subjects: Iterable[str], signals, window_seconds: float, stages: tuple, log: AccessLog):
    """The rows of every window of the trials of `subjects`, in trial order, each row's subject recorded in `log` at
    each of `stages`; a toolkit error is labelled with the last stage. Each trial is reduced by `datasets.map_trials`.
    """
    subjects = set(subjects)
    chosen = [trial for trial in trials if trial.subject_id in subjects]
    per_trial = map_trials(lambda rec: _stage(stages[-1], trial_rows, rec, signals, window_seconds), chosen)
    rows = [row for part in per_trial for row in part]
    for r in rows:
        for stage in stages:
            log.record(r.subject_id, stage)
    return rows


def _matrix(rows: Sequence[WindowRow]) -> np.ndarray:
    """The values of `rows`, one row each."""
    return np.stack([r.values for r in rows]) if rows else np.empty((0, N_FEATURES))


def fit_detector(spec: DetectorSpec, dev_rows: Sequence[WindowRow], seed: int) -> ThresholdConfig | ClassifierModel:
    """Calibrate thresholds or train a classifier on the rows of the development windows, as `spec` says."""
    labels = [r.label for r in dev_rows]
    if spec.kind == "threshold":
        return calibrate_peaks(_matrix(dev_rows), labels, spec.signals)
    return train(spec.kind, spec.feature_view, _matrix(dev_rows), labels, seed, **spec.params)


def _derive_checked(window: SignalWindow, signals: Iterable[str]) -> DerivedSignalSet:
    """derive_all(window), or NonFiniteSignal if one of `signals` holds inf or nan: no vote on it means anything.

    Calibration and the vote share this check, so neither reads an overflowed signal or prints numpy's warning.
    """
    with np.errstate(all="ignore"):  # an overflow gives inf or nan, which the check below rejects
        derived = derive_all(window)
    for name in signals:
        if not np.isfinite(derived.by_name(name)).all():
            raise NonFiniteSignal(f"window {window.window_ref}: derived signal {name} contains non-finite values")
    return derived


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


def _stage(name: str, fn, *args):
    """fn(*args), with a toolkit error labelled by the pipeline stage it occurred in; any other error passes."""
    try:
        return fn(*args)
    except WristfallError as exc:
        raise ExperimentStageError(name, exc) from exc


def fit_on_dev(
    trials: Sequence, spec: DetectorSpec, seed: int, window_seconds: float, log: AccessLog
) -> tuple[ThresholdConfig | ClassifierModel, SubjectSplit, int]:
    """Fit `spec` on the development subjects of `trials`: (detector, split, number of development windows).

    `trials` are recordings or `datasets.read_index` entries; only the development subjects' trials are reduced
    (`_rows`), and each of their windows is recorded in `log` at the fit stages.
    """
    split = _stage("split", split_subjects, (trial.subject_id for trial in trials), seed)
    fit_stages = (STAGE_CALIBRATION,) if spec.kind == "threshold" else (STAGE_STANDARDIZATION, STAGE_TRAINING)
    signals = spec.signals if spec.kind == "threshold" else None
    dev_rows = _rows(trials, split.dev_subjects, signals, window_seconds, fit_stages, log)
    return _stage(fit_stages[-1], fit_detector, spec, dev_rows, seed), split, len(dev_rows)


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
    verdicts = _stage(STAGE_PREDICTION, classify_rows, detector, _matrix(rows))
    return [
        PredictionRecord(r.window_ref, r.subject_id, r.label, predicted, float(score))
        for r, (predicted, score) in zip(rows, verdicts)
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
    report = _stage("metrics", compute_metrics, pairs, detector.describe(), dataset_name)
    return ExperimentResult(report=report, split=split, access_log=log, predictions=records, detector=detector)
