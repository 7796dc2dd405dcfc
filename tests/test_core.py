import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_recording
from wristfall.core import Label, _window_bins, median, percentiles, segment, window_bounds
from wristfall.errors import EmptyRecording, InvalidRecording
from wristfall.signals import derive_all


def regular_recording(duration_s, rate, **kwargs):
    n = int(round(duration_s * rate))
    t = np.arange(n) / rate
    rng = np.random.default_rng(1)
    acc = rng.normal(0, 0.1, (n, 3)) + np.array([0, 0, 1.0])
    gyr = rng.normal(0, 5.0, (n, 3))
    return make_recording(t, acc, gyr, rate=rate, **kwargs)


def segment_oracle(t, window_seconds):
    """Scalar-loop reference: assign each sample to its window by timestamp,
    then merge trailing groups of fewer than 2 samples backwards."""
    t0 = t[0]
    assignment = []
    k = 0
    for ti in t:
        while ti >= t0 + (k + 1) * window_seconds:
            k += 1
        assignment.append(k)
    groups = []
    for i, k in enumerate(assignment):
        if groups and groups[-1][0] == k:
            groups[-1][1].append(i)
        else:
            groups.append((k, [i]))
    merged = [idx for _, idx in groups]
    while len(merged) > 1 and len(merged[-1]) < 2:
        merged[-2].extend(merged[-1])
        del merged[-1]
    return merged


def boundary_loop_edges(t, window_seconds):
    """The window starts `segment` computed by one loop step per boundary, kept as the reference for its O(n) cut."""
    t0, t_last = float(t[0]), float(t[-1])
    boundaries = []
    k = 1
    while t0 + k * window_seconds <= t_last:
        boundaries.append(t0 + k * window_seconds)
        k += 1
    cuts = np.searchsorted(t, np.asarray(boundaries), side="left") if boundaries else np.empty(0, dtype=int)
    return sorted(set([0, *map(int, cuts), len(t)]))


class TestValidation:
    def test_good_recording_passes(self):
        regular_recording(10, 25).validate()

    def test_empty_recording(self):
        rec = make_recording(np.array([]), np.zeros((0, 3)))
        with pytest.raises(EmptyRecording):
            rec.validate()

    def test_single_sample_rejected(self):
        rec = make_recording([0.0], [[0, 0, 1]])
        with pytest.raises(InvalidRecording, match="fewer than 2"):
            rec.validate()

    def test_non_monotonic_timestamps_rejected(self):
        rec = make_recording([0.0, 0.1, 0.1, 0.2], np.zeros((4, 3)))
        with pytest.raises(InvalidRecording, match="strictly increasing"):
            rec.validate()

    def test_non_finite_channel_rejected(self):
        acc = np.zeros((4, 3))
        acc[2, 1] = np.nan
        rec = make_recording([0, 0.04, 0.08, 0.12], acc)
        with pytest.raises(InvalidRecording, match="non-finite"):
            rec.validate()

    def test_rate_outside_bounds_rejected(self):
        rec = regular_recording(5, 25)
        bad = make_recording(rec.t * 25 / 50, rec.acc, rec.gyr, rate=50.0)
        with pytest.raises(InvalidRecording, match="outside"):
            bad.validate()

    def test_rate_inconsistent_with_gaps_rejected(self):
        # declared 25 Hz but samples spaced at 18 Hz (~28% off)
        n = 100
        rec = make_recording(np.arange(n) / 18.0, np.tile([0, 0, 1.0], (n, 1)), rate=25.0)
        with pytest.raises(InvalidRecording, match="median-gap"):
            rec.validate()


class TestSegment:
    def test_short_recording_single_window(self):
        rec = regular_recording(15, 25)
        windows = segment(rec, window_seconds=60)
        assert len(windows) == 1
        assert windows[0].n_samples == rec.n_samples
        assert windows[0].start_t == rec.t[0]
        assert windows[0].end_t == rec.t[-1]

    def test_exact_tiling(self):
        rec = regular_recording(120, 20)
        windows = segment(rec, window_seconds=60)
        assert [w.n_samples for w in windows] == [1200, 1200]

    def test_remainder_becomes_own_window(self):
        # 130 s at 25 Hz -> 60 s, 60 s, 10 s; frozen values from segment_oracle
        rec = regular_recording(130, 25)
        windows = segment(rec, window_seconds=60)
        expected = segment_oracle(rec.t, 60)
        assert [w.n_samples for w in windows] == [len(g) for g in expected]
        assert [w.n_samples for w in windows] == [1500, 1500, 250]
        assert windows[2].end_t - windows[2].start_t == pytest.approx(10.0, abs=0.05)

    def test_tiny_remainder_merged(self):
        # 1501 samples at 25 Hz: one sample lands at the 60 s boundary
        n = 1501
        rec = make_recording(np.arange(n) / 25.0, np.tile([0, 0, 1.0], (n, 1)))
        windows = segment(rec, window_seconds=60)
        assert [w.n_samples for w in windows] == [1501]

    def test_undersized_head_and_middle_windows_merge(self):
        # 10 s windows with gaps: window 0 and window 2 hold a single sample each
        t = np.concatenate([[0.0], 10.0 + np.arange(250) / 25.0, [20.0], 30.0 + np.arange(250) / 25.0])
        rec = make_recording(t, np.tile([0, 0, 1.0], (t.size, 1)))
        windows = segment(rec, window_seconds=10)
        # the head merges forward into window 1, the middle sample backward into it
        assert [(w.start_t, w.end_t, w.n_samples) for w in windows] == [(0.0, 20.0, 252), (30.0, 39.96, 250)]

    def test_empty_recording_raises(self):
        rec = make_recording(np.array([]), np.zeros((0, 3)))
        with pytest.raises(EmptyRecording):
            segment(rec)

    def test_window_rate_is_that_of_its_rows_not_the_declared_one(self):
        """25 Hz rows declared at 21 Hz, which `validate` allows: every window reads 25 Hz."""
        rec = make_recording(np.arange(3250) / 25.0, np.zeros((3250, 3)), rate=21.0)
        rec.validate()
        assert [w.sample_rate_hz for w in segment(rec, window_seconds=60)] == pytest.approx([25.0] * 3)

    def test_a_window_of_one_row_reads_0_hz_without_a_warning(self):
        """One row has no gap: its rate is 0 Hz, as for a gap that overflows, and nothing warns."""
        rec = make_recording([0.5], [[0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [window] = segment(rec)
            derived = derive_all(window)
        assert window.sample_rate_hz == 0.0
        assert derived.avd.tolist() == [1.0]

    def test_window_metadata(self):
        rec = regular_recording(130, 25, label=Label.FALL, trial_id="rec9", subject="S07")
        windows = segment(rec, window_seconds=60)
        assert all(w.label is Label.FALL for w in windows)
        assert all(w.subject_id == "S07" for w in windows)
        assert [w.window_ref for w in windows] == ["rec9#w0", "rec9#w1", "rec9#w2"]

    @pytest.mark.parametrize("duration,rate", [(7.3, 25.0), (61.0, 20.0), (100.0, 17.0), (179.9, 30.0)])
    def test_matches_scalar_oracle(self, duration, rate):
        rec = regular_recording(duration, rate)
        windows = segment(rec, window_seconds=60)
        assert [w.n_samples for w in windows] == [len(g) for g in segment_oracle(rec.t, 60)]

    @given(
        duration=st.floats(min_value=1.0, max_value=200.0),
        rate=st.floats(min_value=15.0, max_value=30.0),
        window=st.floats(min_value=5.0, max_value=90.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, duration, rate, window):
        rec = regular_recording(duration, rate)
        windows = segment(rec, window_seconds=window)
        # concatenation reproduces the recording exactly: no loss, no duplication
        assert np.array_equal(np.concatenate([w.t for w in windows]), rec.t)
        assert np.array_equal(np.vstack([w.acc for w in windows]), rec.acc)
        assert np.array_equal(np.vstack([w.gyr for w in windows]), rec.gyr)
        assert all(w.n_samples >= 2 for w in windows)

    @given(
        t0=st.floats(min_value=0.0, max_value=1e9),
        gaps=st.lists(st.floats(min_value=1e-9, max_value=30.0), max_size=40),
        window=st.floats(min_value=1e-9, max_value=100.0),
    )
    @settings(max_examples=300, deadline=None)
    # the quotient is 59-60 windows off here, and the first sample's bin is 59: the rounded boundaries t0 + k*1e-9
    # equal t0 up to k = 59, so only the bisection finds the bins
    @example(t0=1e9, gaps=[1e-6, 2e-6, 5e-7, 1e-6], window=1e-9)
    def test_cuts_match_boundary_loop(self, t0, gaps, window):
        t = np.unique(t0 + np.concatenate([[0.0], np.cumsum(gaps)]))
        assume((t[-1] - t[0]) / window <= 5000)  # the loop makes one step per window
        bins = _window_bins(t, float(t[0]), window)
        starts = [0, *(np.flatnonzero(np.diff(bins)) + 1).tolist(), t.size]  # the rows where the bin changes
        assert starts == boundary_loop_edges(t, window)

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_window_seconds_must_be_finite_and_positive(self, window):
        with pytest.raises(ValueError):
            segment(regular_recording(10, 25), window_seconds=window)

    def test_deterministic(self):
        rec = regular_recording(97.7, 23.0)
        first = segment(rec, window_seconds=60)
        second = segment(rec, window_seconds=60)
        assert [(w.start_t, w.end_t, w.n_samples) for w in first] == [
            (w.start_t, w.end_t, w.n_samples) for w in second
        ]


class TestWindowBounds:
    @given(
        gaps=st.lists(st.sampled_from((0.04,) * 6 + (0.5, 3.0, 15.0)), max_size=200),
        window=st.sampled_from([0.01, 0.05, 0.5, 2.5, 10.0]),
        splits=st.lists(st.integers(0, 202), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_split_into_blocks_gives_the_ranges_of_one_block(self, gaps, window, splits):
        t = np.concatenate([[0.0], np.cumsum(gaps)])
        whole = list(window_bounds([t], window))
        assert [a for a, _ in whole] == [0, *(b for _, b in whole[:-1])] and whole[-1][1] == t.size
        # sorted split points with repeats and points past the end also give empty blocks
        assert list(window_bounds(np.split(t, sorted(splits)), window)) == whole

    def test_a_range_is_yielded_once_min_samples_rows_lie_past_it(self):
        """Read one row per block: every range but the last comes as soon as the next window holds 2 rows."""
        t = np.concatenate([np.arange(30) / 25, 5.0 + np.arange(40) / 25, [9.0], 20.0 + np.arange(3) / 25])
        read = []

        def blocks():
            for i in range(t.size):
                read.append(i + 1)
                yield t[i : i + 1]

        seen = [(a, b, read[-1]) for a, b in window_bounds(blocks(), 2.0)]
        assert [(a, b) for a, b, _ in seen] == list(window_bounds([t], 2.0))
        assert [n for _, _, n in seen[:-1]] == [b + 2 for _, b, _ in seen[:-1]]

    def test_no_rows_no_range(self):
        assert list(window_bounds([np.empty(0), np.empty(0)], 1.0)) == []


@st.composite
def lanes(draw, nan: bool):
    """A (n,) or (k, 8, n) float array, n from 2 to 400: values of a small pool (ties, both zeros, infinities, and nan
    if `nan`), half the time mixed with distinct values."""
    n = draw(st.integers(2, 400))
    shape = draw(st.sampled_from([(n,), (1, 8, n), (3, 8, n)]))
    specials = st.sampled_from([-0.0, 0.0, -0.0, math.inf, -math.inf, 1.0] + ([math.nan] if nan else []))
    pool = draw(st.lists(st.one_of(specials, st.floats(allow_nan=False)), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice(np.array(pool), size=shape)
    if draw(st.booleans()):
        x = np.where(rng.random(shape) < 0.5, rng.normal(size=shape), x)
    return x


class TestPartitionKernels:
    """`median` and `percentiles` give numpy's bits: detect-stream's verdicts and every feature row depend on them."""

    @staticmethod
    def numpy_and_kernel(numpy_fn, kernel_fn):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # an older numpy may warn on a nan median
            return np.asarray(numpy_fn()).tobytes(), np.asarray(kernel_fn()).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(lanes(nan=True))
    @example(np.array([-0.0, -0.0]))
    @example(np.array([0.0, -0.0, -0.0, 0.0]))
    def test_median_is_numpys(self, x):
        want, got = self.numpy_and_kernel(lambda: np.median(x, axis=-1), lambda: median(x))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(lanes(nan=False))
    @example(np.array([-0.0, 0.0, -0.0, -0.0, 0.0]))
    def test_quartiles_are_numpys(self, x):
        want, got = self.numpy_and_kernel(
            lambda: np.moveaxis(np.percentile(x, [50.0, 25.0, 75.0], axis=-1, method="linear"), 0, -1),
            lambda: percentiles(x, [50.0, 25.0, 75.0]),
        )
        assert got == want
