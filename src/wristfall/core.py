"""Domain types for wrist-worn IMU recordings and the fixed-duration windowing policy.

Units are normalized at ingestion: accelerometer channels in g, gyroscope
channels in deg/s, timestamps in seconds since recording start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, EmptyRecording, InvalidRecording

# Wearable corpora targeted here sample between 15 and 30 Hz.
RATE_BOUNDS_HZ = (15.0, 30.0)
# Declared rate must agree with the median inter-sample gap to within 20%.
RATE_GAP_RELTOL = 0.20

DEFAULT_WINDOW_SECONDS = 60.0
MIN_SAMPLES = 2  # the fewest samples of a trial, and of a window unless the whole stream is shorter


def is_int(value) -> bool:
    """An int that is not a bool, as `json` reads a JSON integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite int or float that is not a bool; an int beyond the float range is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # math.isfinite converts an int to float
        return False


def is_rate(value) -> bool:
    """A number that is not a bool, inside RATE_BOUNDS_HZ: a sample rate a recording may declare."""
    lo, hi = RATE_BOUNDS_HZ
    return is_real(value) and lo <= value <= hi


def as_rate(value, name: str) -> float:
    """`value` as a float sample rate; a value `is_rate` refuses raises DataError naming `name`."""
    if not is_rate(value):
        raise DataError(f"{name} must be a number in {list(RATE_BOUNDS_HZ)}, got {value!r}")
    return float(value)


def median(x: np.ndarray) -> np.ndarray:
    """np.median(x, axis=-1), bit for bit, without np.median's nan check, which imports numpy.ma.

    As numpy does, each lane is partitioned at kth [h - 1, h, -1] for an even length and [h, -1] for an odd one, so
    that of equal values (-0.0 and 0.0) the same one lands in the middle; the middle one or two values are averaged
    by np.mean, whose sum starts from +0.0; and a lane whose partitioned last value is nan gives that nan.
    """
    n = x.shape[-1]
    h = n // 2
    kth, middle = ([h - 1, h, -1], slice(h - 1, h + 1)) if n % 2 == 0 else ([h, -1], slice(h, h + 1))
    part = np.partition(x, kth, axis=-1)
    last = part[..., -1]
    return np.where(np.isnan(last), last, np.mean(part[..., middle], axis=-1))


def percentiles(x: np.ndarray, q: list[float]) -> np.ndarray:
    """np.percentile(x, q, axis=-1) (linear), bit for bit, of x without nan, for 0 <= q < 100: shape x.shape[:-1] +
    (len(q),), the percentile axis last.

    As numpy does, each lane is partitioned at numpy's own kth list (0, -1 and the ranks either side of each
    virtual index (n - 1) * q / 100), and the two ranks are mixed by numpy's `_lerp`.
    """
    n = x.shape[-1]
    index = (n - 1) * np.true_divide(q, 100)
    lo = np.floor(index).astype(np.intp)
    gamma = index - lo
    part = np.partition(x, sorted({0, -1, *lo.tolist(), *(lo + 1).tolist()}), axis=-1)  # np.unique loads numpy.ma
    a, b = part[..., lo], part[..., lo + 1]
    diff = b - a
    mixed = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=mixed, where=gamma >= 0.5)
    return mixed


class Label(Enum):
    FALL = "Fall"
    ADL = "ADL"


class Source(Enum):
    ERCIYES = "Erciyes"
    UMAFALL = "UMAFall"
    CANONICAL = "Canonical"
    SYNTHETIC = "Synthetic"


@dataclass(frozen=True)
class TrialRecording:
    """One labeled activity recording.

    `t` has shape (n,), `acc` and `gyr` have shape (n, 3). Arrays are treated
    as immutable after construction; all functions in this package only read
    them, which keeps recordings safe to share across threads.
    """

    trial_id: str
    subject_id: str
    activity_code: str
    label: Label
    sample_rate_hz: float
    t: np.ndarray
    acc: np.ndarray
    gyr: np.ndarray
    source: Source = Source.CANONICAL

    @property
    def n_samples(self) -> int:
        return int(self.t.shape[0])

    def validate(self) -> None:
        """Raise EmptyRecording/InvalidRecording if any invariant is violated."""
        n = self.n_samples
        if n == 0:
            raise EmptyRecording(self.trial_id)
        if n < MIN_SAMPLES:
            raise InvalidRecording(self.trial_id, f"fewer than {MIN_SAMPLES} samples")
        if self.acc.shape != (n, 3) or self.gyr.shape != (n, 3):
            raise InvalidRecording(self.trial_id, "channel arrays not shaped (n, 3)")
        if not np.all(np.isfinite(self.t)):
            raise InvalidRecording(self.trial_id, "non-finite timestamp")
        if self.t[0] < 0:
            raise InvalidRecording(self.trial_id, "negative start timestamp")
        if (down := self.t[1:] <= self.t[:-1]).any():  # compared, not subtracted: a gap may overflow
            raise InvalidRecording(self.trial_id, f"timestamps not strictly increasing at sample {np.argmax(down) + 1}")
        if not (np.all(np.isfinite(self.acc)) and np.all(np.isfinite(self.gyr))):
            raise InvalidRecording(self.trial_id, "non-finite channel value")
        if not is_rate(self.sample_rate_hz):
            lo, hi = RATE_BOUNDS_HZ
            raise InvalidRecording(self.trial_id, f"sample rate {self.sample_rate_hz} Hz outside [{lo}, {hi}]")
        median_gap = float(median(np.diff(self.t)))  # increasing from 0 or above, so no gap overflows
        implied = 1.0 / median_gap
        if abs(implied - self.sample_rate_hz) > RATE_GAP_RELTOL * self.sample_rate_hz:
            raise InvalidRecording(
                self.trial_id,
                f"declared rate {self.sample_rate_hz} Hz vs median-gap rate {implied:.2f} Hz beyond 20%",
            )


def window_ref(recording_ref: str, window_index: int) -> str:
    """The name of a recording's window: `<recording_ref>#w<window_index>`."""
    return f"{recording_ref}#w{window_index}"


@dataclass(frozen=True)
class SignalWindow:
    """A fixed-duration slice of a recording, carrying the six raw channel segments."""

    recording_ref: str
    subject_id: str
    label: Label
    sample_rate_hz: float
    window_index: int
    start_t: float
    end_t: float
    t: np.ndarray
    acc: np.ndarray
    gyr: np.ndarray

    @property
    def window_ref(self) -> str:
        return window_ref(self.recording_ref, self.window_index)

    @property
    def n_samples(self) -> int:
        return int(self.t.shape[0])


def window_from_arrays(
    ref: str, t: np.ndarray, acc: np.ndarray, gyr: np.ndarray, index: int = 0, subject_id: str = "", label=Label.ADL
) -> SignalWindow:
    """The window over raw arrays (label ADL unless given), at the rate of its own rows: one over their median gap."""
    with np.errstate(over="ignore"):  # one row has no gap, and rows from -1e308 to 1e308 a gap of inf: both 0 Hz
        gap = float(median(np.diff(t))) if len(t) > 1 else math.inf
    return SignalWindow(
        recording_ref=ref,
        subject_id=subject_id,
        label=label,
        sample_rate_hz=1.0 / gap,
        window_index=index,
        start_t=float(t[0]),
        end_t=float(t[-1]),
        t=t,
        acc=acc,
        gyr=gyr,
    )


def _window_bins(t: np.ndarray, t0: float, window_seconds: float) -> np.ndarray:
    """Per sample, the largest k >= 0 with t0 + k*window_seconds <= t[i], both sides in float64.

    The boundaries b(k) = t0 + k*window_seconds are rounded, so the quotient (t - t0) / window_seconds can miss k
    by more than one where window_seconds nears the float spacing of t. Rounding to nearest never reverses an order,
    so b(k) never decreases as k grows, and bisecting the missed samples over [0, cap + 1] finds the largest k for
    any t. k is capped at 2**52, so that k and k + 1 stay exact floats.
    """
    cap = 2.0**52
    # an overflowing quotient is clipped to cap, and an overflowing boundary is inf, above every t
    with np.errstate(over="ignore"):
        k = np.clip(np.floor((t - t0) / window_seconds), 0.0, cap)
        miss = np.flatnonzero((t0 + k * window_seconds > t) | ((k < cap) & (t0 + (k + 1.0) * window_seconds <= t)))
        if miss.size:
            lo, hi, tm = np.zeros(miss.size), np.full(miss.size, cap + 1.0), t[miss]
            while (gap := hi - lo > 1.0).any():  # b(lo) <= t < b(hi), with b(cap + 1) read as above every t
                mid = np.floor((lo + hi) / 2.0)
                below = t0 + mid * window_seconds <= tm
                lo = np.where(gap & below, mid, lo)
                hi = np.where(gap & ~below, mid, hi)
            k[miss] = lo
    return k


def window_bounds(t_blocks, window_seconds: float = DEFAULT_WINDOW_SECONDS):
    """The (a, b) row ranges of consecutive non-overlapping windows of `window_seconds` over timestamps read in blocks.

    Boundary policy: row i belongs to window k when t0 + k*window_seconds <= t[i] < t0 + (k+1)*window_seconds, t0
    being the first row's timestamp. A window with fewer than MIN_SAMPLES rows merges into a neighbour: the first
    window into the next, any other into the previous. So a trailing remainder shorter than `window_seconds` becomes
    its own window when it has at least MIN_SAMPLES rows; rows spanning less than `window_seconds` give exactly one
    window. Row indices count from the first block, so any split of the same rows into blocks gives the same ranges.
    A range is yielded as soon as the rows read decide it: once MIN_SAMPLES rows lie past its end, or at the next
    boundary. The last one comes after the final block; no rows give no range.
    """
    if not (math.isfinite(window_seconds) and window_seconds > 0):
        raise ValueError("window_seconds must be finite and positive")
    t0 = last_bin = 0.0
    start = cut = n = 0  # the open window's first row, the boundary row not yet kept or dropped (or start), rows read
    for t in t_blocks:
        if not len(t):
            continue
        if not n:
            t0 = float(t[0])
        bins = _window_bins(t, t0, window_seconds)
        # A window starts at every row whose bin differs from the previous row's; a cut is kept only when the
        # segments on both sides of it reach MIN_SAMPLES.
        for edge in (np.flatnonzero(np.diff(bins, prepend=last_bin if n else bins[0])) + n).tolist():
            if cut - start >= MIN_SAMPLES and edge - cut >= MIN_SAMPLES:
                yield start, cut
                start = cut
            cut = edge
        n += len(t)
        last_bin = bins[-1]
        if cut - start >= MIN_SAMPLES and n - cut >= MIN_SAMPLES:  # the next boundary is at row n or later
            yield start, cut
            start = cut
    if n:
        yield start, n


def segment(recording: TrialRecording, window_seconds: float = DEFAULT_WINDOW_SECONDS) -> list[SignalWindow]:
    """The windows of `window_bounds` over a recording, each at its rows' rate (the declared one is not read)."""
    rec, t = recording, recording.t
    windows = [
        window_from_arrays(rec.trial_id, t[a:b], rec.acc[a:b], rec.gyr[a:b], idx, rec.subject_id, rec.label)
        for idx, (a, b) in enumerate(window_bounds([t], window_seconds))
    ]
    if not windows:
        raise EmptyRecording(recording.trial_id)
    return windows
