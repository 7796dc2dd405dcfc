"""Subject-disjoint evaluation: splitting, metrics, and the experiment pipeline.

The pipeline is split → segment → derive → fit on development subjects only →
predict on evaluation subjects → confusion metrics (Fall is the positive
class). Every consumption of a subject's data is recorded in an AccessLog
keyed by (subject_id, stage) so tests can prove that no evaluation subject is
touched during calibration, standardization, or training.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import DEFAULT_WINDOW_SECONDS, Label, SignalWindow, TrialRecording, segment
from .errors import DataError, ExperimentStageError, NonFiniteSignal, TooFewSubjects, WristfallError
from .features import extract_many
from .ml import ClassifierModel, predict, train
from .signals import DerivedSignalSet, derive_all
from .threshold import DEFAULT_SIGNALS, ThresholdConfig, calibrate, detect

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
        raise TooFewSubjects(f"need at least 2 subjects, got {n}")
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
    detector: str
    dataset: str
    tp: int
    fn: int
    tn: int
    fp: int
    accuracy: float | None
    sensitivity: float | None
    specificity: float | None

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.tn + self.fp

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
        c = d["confusion"]
        return cls(
            detector=d["detector"],
            dataset=d["dataset"],
            tp=int(c["tp"]),
            fn=int(c["fn"]),
            tn=int(c["tn"]),
            fp=int(c["fp"]),
            accuracy=d["accuracy_pct"],
            sensitivity=d["sensitivity_pct"],
            specificity=d["specificity_pct"],
        )


def compute_metrics(
    predictions: Sequence[tuple[Label, Label]],
    detector: str = "",
    dataset: str = "",
) -> EvalReport:
    """Confusion counts and percentage metrics from (predicted, actual) pairs.

    Ratios with a zero denominator are reported as None, never as 0 or 100.
    """
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
    total = tp + fn + tn + fp
    accuracy = 100.0 * (tp + tn) / total
    sensitivity = 100.0 * tp / (tp + fn) if (tp + fn) else None
    specificity = 100.0 * tn / (tn + fp) if (tn + fp) else None
    return EvalReport(detector, dataset, tp, fn, tn, fp, accuracy, sensitivity, specificity)


def _fmt_pct(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}%"


def report_table(reports: Sequence[EvalReport]) -> str:
    """Aligned plain-text table: one metric per row, one detector per column."""
    headers = [f"{r.detector} [{r.dataset}]" if r.dataset else r.detector for r in reports]
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
    """What to run: 'threshold' with a signal set, or 'knn'/'rf'/'svm' with a view."""

    kind: str
    signals: tuple[str, ...] = DEFAULT_SIGNALS
    feature_view: str = "combined88"
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentResult:
    report: EvalReport
    split: SubjectSplit
    access_log: AccessLog
    predictions: list[PredictionRecord]
    detector: ThresholdConfig | ClassifierModel


def windows_of(trials: Iterable[TrialRecording], subjects: Iterable[str], window_seconds: float) -> list[SignalWindow]:
    """Windows of the trials whose subject is in `subjects`, in trial order."""
    subjects = set(subjects)
    windows: list[SignalWindow] = []
    for rec in trials:
        if rec.subject_id in subjects:
            windows.extend(segment(rec, window_seconds=window_seconds))
    return windows


def fit_detector(
    spec: DetectorSpec, dev_windows: Sequence[SignalWindow], seed: int
) -> ThresholdConfig | ClassifierModel:
    """Calibrate thresholds or train a classifier on development windows, as `spec` says."""
    if spec.kind == "threshold":
        unknown = set(spec.params) - {"grids"}
        if unknown:
            raise DataError(f"unknown threshold parameters: {sorted(unknown)}; expected only 'grids'")
        pairs = [(w, _derive_checked(w, spec.signals)) for w in dev_windows]
        return calibrate(pairs, signals=spec.signals, grids=spec.params.get("grids"))
    X = extract_many(dev_windows)
    return train(spec.kind, spec.feature_view, X, [w.label for w in dev_windows], seed, **spec.params)


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


def _vote(config: ThresholdConfig, window: SignalWindow) -> tuple[Label, float]:
    """The threshold detector's verdict for one window and the fraction of its signals voting Fall."""
    verdict, votes = detect(window, _derive_checked(window, config.signals), config)
    return verdict, sum(v is Label.FALL for v in votes.values()) / len(votes)


def classify_many(
    detector: ThresholdConfig | ClassifierModel, windows: Sequence[SignalWindow]
) -> list[tuple[Label, float]]:
    """Verdict and score for each window, in order.

    The score is the fraction of signals voting Fall for a threshold detector,
    and `predict`'s score for a classifier. A non-finite value in a signal the
    detector reads raises NonFiniteSignal, as a vote on it would be meaningless.
    """
    if isinstance(detector, ThresholdConfig):
        return [_vote(detector, w) for w in windows]
    return [predict(detector, row) for row in extract_many(windows)]


def classify(detector: ThresholdConfig | ClassifierModel, window: SignalWindow) -> tuple[Label, float]:
    """Verdict and score for one window: the one-window case of classify_many."""
    return classify_many(detector, [window])[0]


def _stage(name: str, fn, *args):
    """fn(*args), with a toolkit error labelled by the pipeline stage it occurred in; any other error passes."""
    try:
        return fn(*args)
    except WristfallError as exc:
        raise ExperimentStageError(name, exc) from exc


def fit_on_dev(
    trials: list[TrialRecording], spec: DetectorSpec, seed: int, window_seconds: float, log: AccessLog
) -> tuple[ThresholdConfig | ClassifierModel, SubjectSplit, int]:
    """Fit `spec` on the development subjects of `trials`: (detector, split, number of development windows).

    Records each development window's subject in `log` at the fit stages. Empties the list `trials` once the
    development windows are cut, so recordings nothing else holds are freed before fitting; pass a copy to keep it.
    """
    split = _stage("split", split_subjects, (r.subject_id for r in trials), seed)
    fit_stages = (STAGE_CALIBRATION,) if spec.kind == "threshold" else (STAGE_STANDARDIZATION, STAGE_TRAINING)
    dev_windows = _stage(fit_stages[-1], windows_of, trials, split.dev_subjects, window_seconds)
    trials.clear()
    for w in dev_windows:
        for name in fit_stages:
            log.record(w.subject_id, name)
    return _stage(fit_stages[-1], fit_detector, spec, dev_windows, seed), split, len(dev_windows)


def predict_subjects(
    detector: ThresholdConfig | ClassifierModel,
    trials: Iterable[TrialRecording],
    subjects: Iterable[str],
    window_seconds: float,
    log: AccessLog,
) -> list[PredictionRecord]:
    """Predictions for the windows of the trials of `subjects`, in trial order, each recorded in `log`."""
    windows = windows_of(trials, subjects, window_seconds)
    for w in windows:
        log.record(w.subject_id, STAGE_PREDICTION)
    return [
        PredictionRecord(w.window_ref, w.subject_id, w.label, predicted, float(score))
        for w, (predicted, score) in zip(windows, classify_many(detector, windows))
    ]


def run_experiment(
    trials: Sequence[TrialRecording],
    spec: DetectorSpec,
    seed: int,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    dataset_name: str = "",
) -> ExperimentResult:
    """Full subject-disjoint evaluation of one detector configuration.

    No evaluation-subject data reaches calibration, standardization, or
    training; the returned access log substantiates that.
    """
    log = AccessLog()
    detector, split, _ = fit_on_dev(list(trials), spec, seed, window_seconds, log)
    records = _stage(STAGE_PREDICTION, predict_subjects, detector, trials, split.eval_subjects, window_seconds, log)
    pairs = [(r.predicted, r.actual) for r in records]
    report = _stage("metrics", compute_metrics, pairs, detector.describe(), dataset_name)
    return ExperimentResult(report=report, split=split, access_log=log, predictions=records, detector=detector)
