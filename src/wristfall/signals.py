"""Derived time signals used by the threshold detector.

Three signals are computed from a window's raw channels:

* SMV (signal magnitude vector): per-sample Euclidean norm of a 3-axis sensor,
  available for both accelerometer (g) and gyroscope (deg/s).
* FI (fall index): rolling root-sum-square of the accelerometer first
  differences over a trailing history of FI_HISTORY_SAMPLES samples. Peaks at
  impacts; fi[0] = 0 by convention.
* AVD (absolute vertical direction): magnitude of the acceleration projected
  onto a gravity direction estimated by a trailing moving average of the
  accelerometer. While the moving-average magnitude stays below
  GRAVITY_FREEZE_G (e.g. during free fall) the gravity estimate holds its last
  valid value, initialized to (0, 0, 1).

The three constants below are fixed, not defaults: no function takes another value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SignalWindow

# ~1 s of history at 20-25 Hz.
FI_HISTORY_SAMPLES = 20
GRAVITY_SMOOTHING_SECONDS = 1.0
# Below this moving-average magnitude the gravity estimate is frozen.
GRAVITY_FREEZE_G = 0.05


@dataclass(frozen=True)
class DerivedSignalSet:
    """All derived signals for one window, each aligned 1:1 with its samples."""

    smv_acc: np.ndarray
    smv_gyr: np.ndarray
    fi: np.ndarray
    avd: np.ndarray

    def by_name(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(f"unknown derived signal {name!r}") from None


def smv(window: SignalWindow, sensor: str = "acc") -> np.ndarray:
    """Per-sample Euclidean norm sqrt(x^2 + y^2 + z^2) of one sensor's channels."""
    if sensor == "acc":
        xyz = window.acc
    elif sensor == "gyr":
        xyz = window.gyr
    else:
        raise ValueError(f"sensor must be 'acc' or 'gyr', got {sensor!r}")
    return np.sqrt(np.sum(xyz * xyz, axis=1))


def fall_index(window: SignalWindow) -> np.ndarray:
    """Rolling root-sum-square of accelerometer first differences.

    fi[t] = sqrt( sum over axes, over i in [max(1, t-h+1), t] of
    (acc[i] - acc[i-1])^2 ), for t >= 1; fi[0] = 0. The history h is
    FI_HISTORY_SAMPLES samples, not seconds.
    """
    d = np.diff(window.acc, axis=0)
    sq = np.sum(d * d, axis=1)  # sq[j] belongs to step i = j+1
    cum = np.concatenate(([0.0], np.cumsum(sq)))
    n = window.n_samples
    fi = np.zeros(n)
    t_idx = np.arange(1, n)
    lo = np.maximum(0, t_idx - FI_HISTORY_SAMPLES)
    fi[1:] = np.sqrt(np.maximum(cum[t_idx] - cum[lo], 0.0))
    return fi


def avd(window: SignalWindow) -> np.ndarray:
    """Absolute projection of acceleration onto the trailing-moving-average gravity estimate."""
    acc = window.acc
    n = window.n_samples
    # capped at the window length: a trailing mean over more samples than the window holds is the mean over all
    m = max(1, int(round(min(GRAVITY_SMOOTHING_SECONDS * window.sample_rate_hz, n))))

    cum = np.vstack([np.zeros(3), np.cumsum(acc, axis=0)])
    t_idx = np.arange(n)
    lo = np.maximum(0, t_idx - m + 1)
    counts = (t_idx - lo + 1).astype(float)
    ma = (cum[t_idx + 1] - cum[lo]) / counts[:, None]

    norms = np.sqrt(np.sum(ma * ma, axis=1))
    valid = norms >= GRAVITY_FREEZE_G
    # Forward-fill the last valid gravity direction; rows before the first
    # valid one fall back to (0, 0, 1).
    last_valid = np.maximum.accumulate(np.where(valid, t_idx, -1))
    g_hat = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
    have = last_valid >= 0
    src = last_valid[have]
    g_hat[have] = ma[src] / norms[src][:, None]
    return np.abs(np.sum(acc * g_hat, axis=1))


def derive_all(window: SignalWindow) -> DerivedSignalSet:
    """Bundle SMV (both sensors), FI, and AVD for one window."""
    return DerivedSignalSet(
        smv_acc=smv(window, "acc"),
        smv_gyr=smv(window, "gyr"),
        fi=fall_index(window),
        avd=avd(window),
    )
