"""Global statistical features: 11 statistics per signal, 8 signals, 88 values.

Signals are ordered (acc_x, acc_y, acc_z, smv_acc, gyr_x, gyr_y, gyr_z,
smv_gyr); within each signal the statistics are ordered (mean, var, median,
delta, std, max, min, p25, p75, psd, pse). Indices 0-43 therefore depend only
on accelerometer channels and 44-87 only on gyroscope channels.

Pinned conventions (these matter for cross-implementation reproducibility):

* variance is the population variance (divide by N), std its square root;
* median/p25/p75 use linear interpolation between closest ranks;
* delta = max - min;
* psd is the total power of the mean-removed one-sided periodogram, which by
  Parseval equals the population variance;
* pse is the Shannon entropy (base-2) of the normalized one-sided power bins
  with the DC bin excluded, divided by log2(#bins) so it lies in [0, 1]. A
  spectrum with total power below POWER_FLOOR, or with fewer than two bins,
  has pse = 0.

A window's row is what a detector reads of it (`window_values`): its 88
features, or the peak of each derived signal a threshold detector votes on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import SignalWindow, percentiles
from .errors import DataError, NonFiniteSignal
from .signals import DerivedSignalSet, derive_all, smv

STAT_NAMES = ("mean", "var", "median", "delta", "std", "max", "min", "p25", "p75", "psd", "pse")
SIGNAL_NAMES = ("acc_x", "acc_y", "acc_z", "smv_acc", "gyr_x", "gyr_y", "gyr_z", "smv_gyr")
FEATURE_NAMES = tuple(f"{sig}_{stat}" for sig in SIGNAL_NAMES for stat in STAT_NAMES)
N_FEATURES = len(FEATURE_NAMES)  # 88

ACC_FEATURES = slice(0, 44)
GYR_FEATURES = slice(44, 88)
FEATURE_VIEWS = {"acc44": ACC_FEATURES, "gyr44": GYR_FEATURES, "combined88": slice(0, N_FEATURES)}

POWER_FLOOR = 1e-12


# At most this many float64 values per stacked group, so the kernel's
# temporaries stay a few MiB however many windows share a length.
STACK_VALUES = 1 << 20


def power_bins(signal: np.ndarray) -> np.ndarray:
    """One-sided periodogram power bins of the mean-removed signal along its last axis, DC excluded.

    Negative-frequency power is folded onto the positive bins, so the bins sum
    to the signal's population variance (Parseval).
    """
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    spec = np.fft.rfft(x - x.mean(axis=-1, keepdims=True))
    p = (spec.real**2 + spec.imag**2)[..., 1:] / (n * n)  # drop DC, which mean removal zeroes anyway
    if n % 2 == 0:
        p[..., :-1] *= 2.0  # Nyquist bin has no mirror
    else:
        p *= 2.0
    return p


def _spectral_entropy(bins: np.ndarray, psd: np.ndarray) -> np.ndarray:
    """pse of each row of the power bins (..., m) whose total power is psd (...)."""
    m = bins.shape[-1]
    pse = np.zeros(psd.shape)
    live = ~(psd < POWER_FLOOR) & (m >= 2)  # a nan psd is live, as in the scalar test
    p = bins[live] / psd[live][:, np.newaxis]
    entropy = np.empty(p.shape[0])
    # a row without a zero bin sums the same elements in the same order as the masked sum below
    full = np.all(p > 0.0, axis=-1)
    entropy[full] = -(p[full] * np.log2(p[full])).sum(axis=-1)
    for i in np.flatnonzero(~full):
        nz = p[i][p[i] > 0.0]
        entropy[i] = -(nz * np.log2(nz)).sum()
    pse[live] = entropy / np.log2(m)
    return pse


def _stats(x: np.ndarray) -> np.ndarray:
    """The 11 statistics along the last axis of a (k, ..., n) float array, in STAT_NAMES order: shape (k, ..., 11).

    Every reduction runs along the contiguous last axis, so each row gets the
    same bits as the same signal computed alone. Finite input that overflows
    gives inf or nan statistics, which the caller checks; no warning is issued.
    """
    if x.shape[-1] < 2:
        raise DataError(f"need a 1-d signal with >= 2 samples, got shape {x.shape[-1:]}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteSignal("signal contains non-finite values")
    with np.errstate(all="ignore"):
        mean = x.mean(axis=-1)
        var = x.var(axis=-1)  # population variance
        median, p25, p75 = np.moveaxis(percentiles(x, [50.0, 25.0, 75.0]), -1, 0)
        mx = x.max(axis=-1)
        mn = x.min(axis=-1)
        bins = power_bins(x)
        psd = bins.sum(axis=-1)
        pse = _spectral_entropy(bins, psd)
        return np.stack([mean, var, median, mx - mn, np.sqrt(var), mx, mn, p25, p75, psd, pse], axis=-1)


def stats11(signal: Sequence[float] | np.ndarray) -> np.ndarray:
    """The 11 global statistics of one signal, in STAT_NAMES order."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise DataError(f"need a 1-d signal with >= 2 samples, got shape {x.shape}")
    return _stats(x[np.newaxis])[0]


def extract_many(windows: Sequence[SignalWindow]) -> np.ndarray:
    """The 88 features of each window in FEATURE_NAMES order: a (len(windows), 88) array in input order.

    Windows of one length are stacked as (windows, 8, n) over their 8
    canonical signals and go through the statistics kernel together, one
    stack of at most STACK_VALUES values at a time.
    """
    X = np.empty((len(windows), N_FEATURES))
    groups: dict[int, list[int]] = {}
    for i, w in enumerate(windows):
        groups.setdefault(w.n_samples, []).append(i)
    for n, rows in groups.items():
        step = max(1, STACK_VALUES // (8 * n))
        for lo in range(0, len(rows), step):
            chunk = rows[lo : lo + step]
            stack = np.empty((len(chunk), 8, n))
            with np.errstate(all="ignore"):  # an overflowing SMV is inf, which _stats rejects
                for j, i in enumerate(chunk):
                    w = windows[i]
                    stack[j, 0:3] = w.acc.T
                    stack[j, 3] = smv(w, "acc")
                    stack[j, 4:7] = w.gyr.T
                    stack[j, 7] = smv(w, "gyr")
            X[chunk] = _stats(stack).reshape(len(chunk), N_FEATURES)
    return X


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


def window_values(windows: Sequence[SignalWindow], signals: tuple[str, ...] | None) -> np.ndarray:
    """One row per window: the peak of each of `signals` (a threshold detector), or with None its 88 features.

    A signal holding inf or nan raises NonFiniteSignal (`_derive_checked`); on the finite signals left, a value
    exceeds a threshold exactly when the peak does, so the peaks are all the vote and calibration read.
    """
    if signals is None:
        return extract_many(windows)
    peaks = np.empty((len(windows), len(signals)))
    for i, w in enumerate(windows):
        derived = _derive_checked(w, signals)
        peaks[i] = [derived.by_name(name).max() for name in signals]
    return peaks

