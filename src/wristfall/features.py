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

Both psd and pse are invariant to the sampling rate; the rate parameter is
part of the call signature so rate-aware statistics can be added without
changing call sites.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import SignalWindow
from .errors import NonFiniteSignal, SignalTooShort
from .signals import DerivedSignalSet

STAT_NAMES = ("mean", "var", "median", "delta", "std", "max", "min", "p25", "p75", "psd", "pse")
SIGNAL_NAMES = ("acc_x", "acc_y", "acc_z", "smv_acc", "gyr_x", "gyr_y", "gyr_z", "smv_gyr")
FEATURE_NAMES = tuple(f"{sig}_{stat}" for sig in SIGNAL_NAMES for stat in STAT_NAMES)
N_FEATURES = len(FEATURE_NAMES)  # 88

ACC_FEATURES = slice(0, 44)
GYR_FEATURES = slice(44, 88)
FEATURE_VIEWS = {"acc44": ACC_FEATURES, "gyr44": GYR_FEATURES, "combined88": slice(0, N_FEATURES)}

POWER_FLOOR = 1e-12


def power_bins(signal: np.ndarray) -> np.ndarray:
    """One-sided periodogram power bins of the mean-removed signal, DC excluded.

    Negative-frequency power is folded onto the positive bins, so the bins sum
    to the signal's population variance (Parseval).
    """
    x = np.asarray(signal, dtype=float)
    n = x.shape[0]
    y = x - x.mean()
    spec = np.fft.rfft(y)
    p = (spec.real**2 + spec.imag**2) / (n * n)
    p = p[1:]  # drop DC, which mean removal zeroes anyway
    if n % 2 == 0:
        p[:-1] *= 2.0  # Nyquist bin has no mirror
    else:
        p *= 2.0
    return p


def stats11(signal: Sequence[float] | np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """The 11 global statistics of one signal, in STAT_NAMES order."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise SignalTooShort(f"need a 1-d signal with >= 2 samples, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteSignal("signal contains non-finite values")

    mean = float(x.mean())
    var = float(x.var())  # population variance
    std = float(np.sqrt(var))
    median, p25, p75 = (float(v) for v in np.percentile(x, [50.0, 25.0, 75.0]))
    mx = float(x.max())
    mn = float(x.min())
    delta = mx - mn

    bins = power_bins(x)
    psd = float(bins.sum())
    if psd < POWER_FLOOR or bins.shape[0] < 2:
        pse = 0.0
    else:
        p = bins / psd
        nz = p[p > 0.0]
        entropy = float(-(nz * np.log2(nz)).sum())
        pse = entropy / float(np.log2(bins.shape[0]))

    return np.array([mean, var, median, delta, std, mx, mn, p25, p75, psd, pse])


def extract(window: SignalWindow, derived: DerivedSignalSet) -> np.ndarray:
    """The window's 88 features in FEATURE_NAMES order: stats11 of its 8 canonical signals."""
    rate = window.sample_rate_hz
    signals = (
        window.acc[:, 0],
        window.acc[:, 1],
        window.acc[:, 2],
        derived.smv_acc,
        window.gyr[:, 0],
        window.gyr[:, 1],
        window.gyr[:, 2],
        derived.smv_gyr,
    )
    return np.concatenate([stats11(s, rate) for s in signals])
