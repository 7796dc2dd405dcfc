"""Benchmark inputs, generated from the workload seed.

The chain workloads use the replica corpora of `tests/replicas.py`, written
in their vendor raw layouts. The stream workload is one continuous 25 Hz
recording assembled from replica trials of exactly one window each, so every
stream window has a known label, plus a threshold file calibrated on a
separate development set of such trials.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import replicas
from wristfall.core import Label, SignalWindow
from wristfall.signals import derive_all
from wristfall.threshold import calibrate, detect, fall_score, save_threshold_config

STREAM_RATE_HZ = replicas.ERCIYES_RATE
STREAM_HEADER = "t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z"
# The calibration set is the same for every workload seed. Each threshold sits
# at the weakest development fall, an extreme value that would otherwise move
# the stream's specificity by a fifth from seed to seed.
STREAM_DEV_SEED = 0


@contextlib.contextmanager
def _replica_tables(**tables):
    """Temporarily narrow the task or count tables the replica builders read at call time."""
    saved = {name: getattr(replicas, name) for name in tables}
    for name, value in tables.items():
        setattr(replicas, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(replicas, name, value)


def _fix_expected(manifest_path: Path, adl_trials: int, fall_trials: int) -> None:
    """Make the manifest's inventory match the narrowed corpus, so ingest checks it exactly."""
    doc = json.loads(manifest_path.read_text())
    doc["expected"] = {"participants": 17, "adl_trials": adl_trials, "fall_trials": fall_trials}
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def build_erciyes(base: Path, seed: int, adl_codes, fall_codes) -> Path:
    """Erciyes replica (25 Hz, whitespace columns, SI units) over the given task codes."""
    adl = {code: replicas.ERCIYES_ADL[code] for code in adl_codes}
    falls = {code: replicas.ERCIYES_FALLS[code] for code in fall_codes}
    with _replica_tables(ERCIYES_ADL=adl, ERCIYES_FALLS=falls):
        manifest = replicas.build_erciyes_replica(base, seed=seed)
    _fix_expected(manifest, 17 * 5 * len(adl), 17 * 5 * len(falls))
    return manifest


def build_umafall(base: Path, seed: int, adl_per_subject: int | None, falls_per_subject: int | None) -> Path:
    """UMAFall replica (20 Hz, interleaved `;` rows); `None` keeps the published trial counts."""
    if adl_per_subject is None:
        return replicas.build_umafall_replica(base, seed=seed)
    with _replica_tables(
        UMAFALL_ADL_COUNTS=[adl_per_subject] * 17, UMAFALL_FALL_COUNTS=[falls_per_subject] * 17
    ):
        manifest = replicas.build_umafall_replica(base, seed=seed)
    _fix_expected(manifest, 17 * adl_per_subject, 17 * falls_per_subject)
    return manifest


@dataclass
class StreamWindow:
    label: Label
    t: np.ndarray
    acc: np.ndarray
    gyr: np.ndarray


def _trials(rng, n_windows: int, window_seconds: float) -> list[StreamWindow]:
    """Replica trials of exactly one window each, the 36 Erciyes tasks in equal shares, shuffled."""
    n = int(round(window_seconds * STREAM_RATE_HZ))
    codes = [*replicas.ERCIYES_ADL, *replicas.ERCIYES_FALLS]
    out = []
    for k, i in enumerate(rng.permutation(n_windows) % len(codes)):
        code = codes[i]
        if code in replicas.ERCIYES_ADL:
            acc, gyr = replicas.adl_signals(rng, n, STREAM_RATE_HZ, replicas.ERCIYES_ADL[code], rng.uniform(0.92, 1.08))
            label = Label.ADL
        else:
            acc, gyr = replicas.fall_signals(rng, n, STREAM_RATE_HZ, replicas.ERCIYES_FALLS[code])
            label = Label.FALL
        # integer sample numbers over the rate keep every window boundary exact
        t = (np.arange(n) + k * n) / STREAM_RATE_HZ
        out.append(StreamWindow(label, t, acc, gyr))
    return out


def _signal_window(index: int, w: StreamWindow, label: Label = Label.ADL) -> SignalWindow:
    """The window `detect-stream` assembles from these rows: one (n, 7) array, rate from the median gap."""
    rows = np.column_stack([w.t, w.acc, w.gyr])
    t = rows[:, 0]
    return SignalWindow(
        recording_ref="stream",
        subject_id="stream",
        label=label,
        sample_rate_hz=1.0 / float(np.median(np.diff(t))),
        window_index=index,
        start_t=float(t[0]),
        end_t=float(t[-1]),
        t=t,
        acc=rows[:, 1:4],
        gyr=rows[:, 4:7],
    )


def build_stream(base: Path, seed: int, n_windows: int, n_dev_windows: int, window_seconds: float):
    """Write `stream.csv` and `thresholds.cfg` under `base`; returns (stream path, config path, windows)."""
    base.mkdir(parents=True, exist_ok=True)
    dev_trials = _trials(np.random.default_rng(STREAM_DEV_SEED), n_dev_windows, window_seconds)
    dev = [_signal_window(k, w, w.label) for k, w in enumerate(dev_trials)]
    pairs = [(window, derive_all(window)) for window in dev]
    config_path = base / "thresholds.cfg"
    save_threshold_config(calibrate(pairs, signals=("smv_acc", "fi", "avd")), config_path)

    windows = _trials(np.random.default_rng(seed), n_windows, window_seconds)
    stream_path = base / "stream.csv"
    with open(stream_path, "w", encoding="utf-8") as fh:
        fh.write(STREAM_HEADER + "\n")
        for w in windows:
            rows = np.column_stack([w.t, w.acc, w.gyr]).tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return stream_path, config_path, windows


def reference_verdicts(windows: list[StreamWindow], config) -> list[str]:
    """Batch reference for `detect-stream`: the line it must print for each window."""
    lines = []
    for index, w in enumerate(windows):
        window = _signal_window(index, w)
        derived = derive_all(window)
        verdict, _ = detect(window, derived, config)
        lines.append(f"{window.end_t!r},{verdict.value},{fall_score(derived, config):.6f}")
    return lines
