"""Deterministic synthetic corpus for dataset-free testing and demos.

ADL trials are smooth low-amplitude oscillations plus noise around 1 g (peak
accelerometer magnitude stays below 2 g by construction); fall trials contain
a brief free-fall dip (magnitude ~0.3 g), an impact spike (magnitude 3-6 g)
and a posture change. Labels are therefore correct by construction and the
two classes are separable by an accelerometer-magnitude threshold, which the
calibration and pipeline tests rely on.
"""

from __future__ import annotations

import numpy as np

from .core import Label, Source, TrialRecording, is_int
from .errors import DataError

SYNTH_RATE_HZ = 25.0
# Every fall's impact magnitude is >= this; each subject's first fall sits
# exactly on it, so any development split contains the class minimum and a
# threshold calibrated for 100% sensitivity stays perfectly sensitive on the
# held-out subjects too.
FALL_IMPACT_FLOOR_G = 3.2


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _oscillation(rng, n, rate, max_amp):
    """Per-axis sum of two sinusoids with total amplitude <= max_amp."""
    t = np.arange(n) / rate
    out = np.zeros((n, 3))
    for axis in range(3):
        a1 = rng.uniform(0.2, 0.6) * max_amp
        a2 = rng.uniform(0.1, 0.4) * max_amp
        f1 = rng.uniform(0.8, 2.5)
        f2 = rng.uniform(2.5, 5.0)
        p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
        out[:, axis] = a1 * np.sin(2 * np.pi * f1 * t + p1) + a2 * np.sin(2 * np.pi * f2 * t + p2)
    return out

def _adl_trial(rng, n, rate):
    g_dir = _unit(rng)
    # gravity + per-axis oscillation (vector magnitude < 0.35*sqrt(3)) + noise:
    # peak magnitude < 1 + 0.61 + ~0.1 < 2 g
    acc = g_dir[None, :] + _oscillation(rng, n, rate, max_amp=0.35) + rng.normal(0, 0.02, (n, 3))
    gyr = _oscillation(rng, n, rate, max_amp=40.0) + rng.normal(0, 1.0, (n, 3))
    return acc, gyr


def _fall_trial(rng, n, rate, floor_impact=False):
    g_dir = _unit(rng)
    acc = g_dir[None, :] * 1.0 + rng.normal(0, 0.02, (n, 3))
    gyr = rng.normal(0, 2.0, (n, 3))

    fall_at = int(n * rng.uniform(0.3, 0.6))
    dip_len = max(2, int(rate * rng.uniform(0.3, 0.5)))
    dip_level = rng.uniform(0.2, 0.35)
    impact_at = fall_at + dip_len
    impact_len = max(1, int(rate * 0.08))
    after_at = min(n, impact_at + impact_len)

    acc[fall_at:impact_at] = g_dir[None, :] * dip_level + rng.normal(0, 0.01, (impact_at - fall_at, 3))
    impact_dir = _unit(rng)
    impact_mag = FALL_IMPACT_FLOOR_G if floor_impact else rng.uniform(FALL_IMPACT_FLOOR_G, 6.0)
    acc[impact_at:after_at] = impact_dir[None, :] * impact_mag

    new_g = _unit(rng)  # posture change: lying orientation differs from standing
    acc[after_at:] = new_g[None, :] + rng.normal(0, 0.015, (max(0, n - after_at), 3))

    spin = rng.uniform(200.0, 500.0)
    gyr[fall_at:after_at] += _unit(rng)[None, :] * spin
    return acc, gyr


def synthesize(seed: int, n_subjects: int = 6, trials_per_subject: int = 20) -> list[TrialRecording]:
    """Generate a labeled synthetic corpus; identical output for identical seeds."""
    if not (is_int(n_subjects) and n_subjects >= 2):
        raise DataError(f"n_subjects must be an integer >= 2, got {n_subjects!r}")
    if not (is_int(trials_per_subject) and trials_per_subject >= 1):
        raise DataError(f"trials_per_subject must be an integer >= 1, got {trials_per_subject!r}")
    rng = np.random.default_rng(seed)
    rate = SYNTH_RATE_HZ
    trials = []
    for s in range(n_subjects):
        subject = f"S{s + 1:02d}"
        for i in range(trials_per_subject):
            is_fall = i % 2 == 1
            n = int(rate * rng.uniform(12.0, 18.0))
            if is_fall:
                acc, gyr = _fall_trial(rng, n, rate, floor_impact=(i == 1))
            else:
                acc, gyr = _adl_trial(rng, n, rate)
            label = Label.FALL if is_fall else Label.ADL
            code = "SYN_FALL" if is_fall else "SYN_ADL"
            trials.append(
                TrialRecording(
                    trial_id=f"{subject}_{code}_{i:03d}",
                    subject_id=subject,
                    activity_code=code,
                    label=label,
                    sample_rate_hz=rate,
                    t=np.arange(n) / rate,
                    acc=acc,
                    gyr=gyr,
                    source=Source.SYNTHETIC,
                )
            )
    return trials
