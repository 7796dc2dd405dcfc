"""Threshold detector: per-signal instantaneous tests combined by majority vote.

Each enabled derived signal votes Fall when any instantaneous value strictly
exceeds its threshold; the verdict is the majority of the votes and an exact
tie resolves to Fall (missed falls cost more than false alarms). Thresholds
are calibrated on a development set: each is the largest point of its grid
below the weakest fall peak above the grid's first point, which has the best
sensitivity the grid reaches and, of those points, the best specificity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import Label, SignalWindow
from .errors import DataError, reading
from .signals import DerivedSignalSet

SIGNAL_UNITS = {"smv_acc": "g", "smv_gyr": "deg/s", "fi": "g", "avd": "g"}
THRESHOLD_SIGNALS = tuple(SIGNAL_UNITS)
# The signals voted on when a caller names none.
DEFAULT_SIGNALS = ("smv_acc", "fi", "avd")

# The (lo, hi, step) calibration grid of each signal.
DEFAULT_GRIDS: dict[str, tuple[float, float, float]] = {
    "smv_acc": (1.5, 6.0, 0.05),
    "fi": (0.5, 10.0, 0.05),
    "avd": (1.2, 4.0, 0.05),
    "smv_gyr": (100.0, 1000.0, 5.0),
}


def check_signals(names: Iterable[str]) -> tuple[str, ...]:
    """`names` as a tuple; DataError if it is empty, or a name is not a threshold signal or repeats."""
    names = tuple(names)
    if not names:
        raise DataError("empty signal list")
    for name in names:
        if name not in SIGNAL_UNITS:
            raise DataError(f"unknown signal {name!r}; expected one of {THRESHOLD_SIGNALS}")
        if names.count(name) > 1:
            raise DataError(f"signal {name!r} repeats")
    return names


@dataclass(frozen=True)
class ThresholdConfig:
    """Per-signal thresholds; direction is always 'above', ties vote Fall."""

    thresholds: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        check_signals(self.thresholds)
        for name, value in self.thresholds.items():
            if not np.isfinite(value) or value <= 0:
                raise DataError(f"threshold for {name} must be finite and positive, got {value}")

    @property
    def signals(self) -> tuple[str, ...]:
        """The signals voted on, in order: a row `classify` reads holds the peak of each over a window."""
        return tuple(self.thresholds)

    def classify(self, values: np.ndarray) -> list[tuple[Label, float]]:
        """Verdict and fraction of signals voting Fall for each row of `values`, the peak of each of `signals`.

        A signal votes Fall when its peak exceeds its threshold: on a finite signal that is `detect`'s vote, as some
        value exceeds the threshold exactly when the largest one does.
        """
        n_votes = len(self.thresholds)
        fall_votes = (values > np.fromiter(self.thresholds.values(), float)).sum(axis=1)
        return [(_verdict(v, n_votes), v / n_votes) for v in fall_votes.tolist()]

    def describe(self) -> str:
        return "threshold(" + ", ".join(f"{s}>{v:g}" for s, v in sorted(self.thresholds.items())) + ")"


def detect(
    window: SignalWindow, derived: DerivedSignalSet, config: ThresholdConfig
) -> tuple[Label, dict[str, Label]]:
    """Verdict for one window plus the per-signal vote record."""
    votes: dict[str, Label] = {}
    for name, threshold in config.thresholds.items():
        series = derived.by_name(name)
        votes[name] = Label.FALL if bool(np.any(series > threshold)) else Label.ADL
    return _verdict(sum(v is Label.FALL for v in votes.values()), len(votes)), votes


def _verdict(fall_votes: int, n_votes: int) -> Label:
    """The majority of the votes; an exact tie is Fall."""
    return Label.FALL if 2 * fall_votes >= n_votes else Label.ADL


def fall_score(derived: DerivedSignalSet, config: ThresholdConfig) -> float:
    """Fraction of enabled signals voting Fall (detector confidence in [0, 1])."""
    fall_votes = sum(1 for name, thr in config.thresholds.items() if np.any(derived.by_name(name) > thr))
    return fall_votes / len(config.thresholds)


def grid_points(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return np.linspace(lo, hi, n + 1)


def calibrate(
    dev_windows: Sequence[tuple[SignalWindow, DerivedSignalSet]],
    signals: Iterable[str] = DEFAULT_SIGNALS,
) -> ThresholdConfig:
    """`calibrate_peaks` on the peak of each of `signals` over each (window, derived signals) pair."""
    signals = tuple(signals)
    peaks = np.array([[float(np.max(d.by_name(name))) for name in signals] for _, d in dev_windows])
    labels = [w.label for w, _ in dev_windows]
    return calibrate_peaks(peaks.reshape(len(dev_windows), len(signals)), labels, signals)


def calibrate_peaks(
    peaks: np.ndarray,
    labels: Sequence[Label],
    signals: Iterable[str] = DEFAULT_SIGNALS,
) -> ThresholdConfig:
    """Per-signal thresholds from a development set: one row of `peaks` per window, one column per signal.

    For each signal independently, the pick is the grid point of the best sensitivity, breaking ties by higher
    specificity and then by the larger threshold. A signal votes Fall on a window when its peak there exceeds the
    threshold, so sensitivity never rises with the threshold and specificity never falls: the pick is the largest
    grid point below the weakest fall peak that exceeds the grid's first point, or the last grid point if no fall
    peak does. It does not depend on the order of the windows, nor on the ADL peaks beyond there being one.
    """
    signals = check_signals(signals)
    labels = np.array([label is Label.FALL for label in labels], dtype=bool)
    if not (labels.any() and (~labels).any()):
        raise DataError("development set must contain both falls and ADLs")

    chosen: dict[str, float] = {}
    for name, column in zip(signals, np.asarray(peaks, dtype=float).T):
        grid = grid_points(*DEFAULT_GRIDS[name])
        detected = column[labels & (column > grid[0])]
        chosen[name] = float(grid[np.searchsorted(grid, detected.min()) - 1] if detected.size else grid[-1])
    return ThresholdConfig(thresholds=chosen)


def save_threshold_config(config: ThresholdConfig, path) -> None:
    """Human-editable key-value file; round-trips bit-exactly via repr floats."""
    lines = [
        "# wristfall threshold config",
        "# vote Fall when any instantaneous value strictly exceeds the threshold;",
        "# verdict is the majority of votes, exact tie -> Fall",
    ]
    for name in THRESHOLD_SIGNALS:
        if name in config.thresholds:
            lines.append(f"{name} = {config.thresholds[name]!r}  # {SIGNAL_UNITS[name]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_threshold_config(path) -> ThresholdConfig:
    """The config `save_threshold_config` wrote to `path`; a bad file raises DataError naming it."""
    thresholds: dict[str, float] = {}
    line_of: dict[str, int] = {}
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh.read().split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"line {line_no}: expected 'signal = value'")
            name, value = (part.strip() for part in line.split("=", 1))
            if name in line_of:
                raise DataError(f"line {line_no}: signal {name!r} repeats line {line_of[name]}")
            line_of[name] = line_no
            try:
                thresholds[name] = float(value)
            except ValueError:
                raise DataError(f"line {line_no}: bad threshold value {value!r}") from None
        return ThresholdConfig(thresholds=thresholds)
