import cmath
import math
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_window
from wristfall import features
from wristfall.core import segment
from wristfall.errors import NonFiniteSignal, SignalTooShort
from wristfall.features import (
    ACC_FEATURES,
    FEATURE_NAMES,
    GYR_FEATURES,
    POWER_FLOOR,
    STAT_NAMES,
    extract_many,
    power_bins,
    stats11,
)
from wristfall.signals import derive_all

I = {name: i for i, name in enumerate(STAT_NAMES)}


def stats11_reference(xs):
    """Independent re-implementation: pure-python statistics and a naive DFT."""
    xs = [float(v) for v in xs]
    n = len(xs)
    mean = sum(xs) / n
    var = sum((v - mean) ** 2 for v in xs) / n
    std = math.sqrt(var)
    med = statistics.median(xs)
    q = statistics.quantiles(xs, n=4, method="inclusive")
    mx, mn = max(xs), min(xs)

    y = [v - mean for v in xs]
    bins = []
    for k in range(1, n // 2 + 1):
        acc = 0j
        for j in range(n):
            acc += y[j] * cmath.exp(-2j * cmath.pi * k * j / n)
        p = abs(acc) ** 2 / (n * n)
        if not (n % 2 == 0 and k == n // 2):
            p *= 2.0
        bins.append(p)
    psd = sum(bins)
    if psd < 1e-12 or len(bins) < 2:
        pse = 0.0
    else:
        pse = -sum((b / psd) * math.log2(b / psd) for b in bins if b > 0) / math.log2(len(bins))
    return [mean, var, med, mx - mn, std, mx, mn, q[0], q[2], psd, pse]


class TestStats11:
    def test_hand_arithmetic(self):
        s = stats11([1.0, 2.0, 3.0])
        assert s[I["mean"]] == 2.0
        assert s[I["var"]] == pytest.approx(2.0 / 3.0)
        assert s[I["median"]] == 2.0
        assert s[I["delta"]] == 2.0
        assert s[I["std"]] == pytest.approx(math.sqrt(2.0 / 3.0))
        assert s[I["max"]] == 3.0
        assert s[I["min"]] == 1.0
        assert s[I["p25"]] == 1.5
        assert s[I["p75"]] == 2.5

    def test_constant_signal_degenerate_power(self):
        s = stats11([5.0, 5.0, 5.0, 5.0])
        assert s[I["var"]] == 0.0
        assert s[I["delta"]] == 0.0
        assert s[I["psd"]] == 0.0
        assert s[I["pse"]] == 0.0

    def test_psd_equals_population_variance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(0, 1, 64)
        s = stats11(x)
        assert s[I["psd"]] == pytest.approx(x.var(), abs=1e-9)

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            stats11([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            stats11([1.0, np.nan, 2.0])

    def test_percentile_convention(self):
        # linear interpolation between closest ranks
        s = stats11([1.0, 2.0, 3.0, 4.0])
        assert s[I["p25"]] == 1.75
        assert s[I["p75"]] == 3.25

    def test_shift_invariance_of_spread_stats(self):
        rng = np.random.default_rng(14)
        x = rng.normal(0, 1, 100)
        a, b = stats11(x), stats11(x + 7.5)
        for name in ("var", "std", "delta", "psd", "pse"):
            assert b[I[name]] == pytest.approx(a[I[name]], rel=1e-9, abs=1e-12)
        for name in ("mean", "median", "max", "min", "p25", "p75"):
            assert b[I[name]] == pytest.approx(a[I[name]] + 7.5, rel=1e-9)

    def test_order_statistics_permutation_invariant(self):
        rng = np.random.default_rng(15)
        x = rng.normal(0, 1, 51)
        shuffled = rng.permutation(x)
        a, b = stats11(x), stats11(shuffled)
        for name in ("mean", "var", "median", "delta", "std", "max", "min", "p25", "p75"):
            assert b[I[name]] == pytest.approx(a[I[name]], rel=1e-12)
        # psd/pse are sequence statistics and may legitimately differ


class TestSpectralEntropy:
    def test_bin_aligned_sinusoid_is_concentrated(self):
        n = 128
        t = np.arange(n)
        for k in (3, 10, 31):
            x = np.sin(2 * np.pi * k * t / n)
            assert stats11(x)[I["pse"]] <= 0.05

    def test_white_noise_approaches_one(self):
        rng = np.random.default_rng(16)
        values = [stats11(rng.normal(0, 1, 256))[I["pse"]] for _ in range(10)]
        assert all(v > 0.8 for v in values)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_pse_always_in_unit_interval(self, seed, n):
        x = np.random.default_rng(seed).normal(0, 1, n)
        pse = stats11(x)[I["pse"]]
        assert 0.0 <= pse <= 1.0

    def test_power_bins_sum_to_variance(self):
        rng = np.random.default_rng(17)
        for n in (16, 17, 64, 101):
            x = rng.normal(0, 2, n)
            assert power_bins(x).sum() == pytest.approx(x.var(), rel=1e-9, abs=1e-12)


class TestExtract:
    def test_all_zero_window(self):
        w = make_window(np.zeros((30, 3)))
        f = extract_many([w])[0]
        assert f.shape == (88,)
        assert np.all(f == 0.0)

    def test_acc_scaling_doubles_linear_acc_features(self):
        rng = np.random.default_rng(18)
        acc = rng.normal(0, 1, (60, 3))
        gyr = rng.normal(0, 40, (60, 3))
        w1 = make_window(acc, gyr=gyr)
        w2 = make_window(2.0 * acc, gyr=gyr)
        f1 = extract_many([w1])[0]
        f2 = extract_many([w2])[0]
        linear = ("mean", "median", "delta", "std", "max", "min", "p25", "p75")
        for sig_idx in range(4):  # accelerometer signals
            for name in linear:
                j = sig_idx * 11 + I[name]
                assert f2[j] == pytest.approx(2.0 * f1[j], rel=1e-9, abs=1e-12)
        assert np.array_equal(f1[GYR_FEATURES], f2[GYR_FEATURES])

    def test_sensor_separation_bit_identical(self):
        rng = np.random.default_rng(19)
        acc = rng.normal(0, 1, (50, 3))
        gyr = rng.normal(0, 40, (50, 3))
        w1 = make_window(acc, gyr=gyr)
        w2 = make_window(acc, gyr=gyr + rng.normal(0, 10, (50, 3)))
        f1 = extract_many([w1])[0]
        f2 = extract_many([w2])[0]
        assert np.array_equal(f1[ACC_FEATURES], f2[ACC_FEATURES])

    def test_matches_independent_reimplementation(self, synth_trials):
        for rec in synth_trials[:3]:
            w = segment(rec)[0]
            d = derive_all(w)
            got = extract_many([w])[0]
            signals = [
                w.acc[:, 0], w.acc[:, 1], w.acc[:, 2], d.smv_acc,
                w.gyr[:, 0], w.gyr[:, 1], w.gyr[:, 2], d.smv_gyr,
            ]
            expected = np.concatenate([stats11_reference(s) for s in signals])
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)

    def test_within_signal_order_invariants(self, synth_trials):
        for rec in synth_trials[:10]:
            w = segment(rec)[0]
            v = extract_many([w])[0]
            for sig_idx in range(8):
                s = v[sig_idx * 11 : (sig_idx + 1) * 11]
                assert s[I["min"]] <= s[I["p25"]] <= s[I["median"]] <= s[I["p75"]] <= s[I["max"]]
                assert s[I["var"]] == pytest.approx(s[I["std"]] ** 2, rel=1e-12, abs=1e-15)
                assert s[I["delta"]] == pytest.approx(s[I["max"]] - s[I["min"]], rel=1e-12, abs=1e-15)
                assert 0.0 <= s[I["pse"]] <= 1.0


class TestFeatureNames:
    def test_canonical_order(self):
        assert len(FEATURE_NAMES) == 88
        assert FEATURE_NAMES[0] == "acc_x_mean"
        assert FEATURE_NAMES[10] == "acc_x_pse"
        assert FEATURE_NAMES[33] == "smv_acc_mean"
        assert FEATURE_NAMES[44] == "gyr_x_mean"
        assert FEATURE_NAMES[87] == "smv_gyr_pse"


def stats11_loop(x):
    """The one-signal statistics as computed before the stacked kernel, kept as the bit-identity oracle."""
    x = np.asarray(x, dtype=float)
    mean = float(x.mean())
    var = float(x.var())
    std = float(np.sqrt(var))
    median, p25, p75 = (float(v) for v in np.percentile(x, [50.0, 25.0, 75.0]))
    mx = float(x.max())
    mn = float(x.min())
    n = x.shape[0]
    spec = np.fft.rfft(x - x.mean())
    bins = ((spec.real**2 + spec.imag**2) / (n * n))[1:]
    if n % 2 == 0:
        bins[:-1] *= 2.0
    else:
        bins *= 2.0
    psd = float(bins.sum())
    if psd < POWER_FLOOR or bins.shape[0] < 2:
        pse = 0.0
    else:
        p = bins / psd
        nz = p[p > 0.0]
        pse = float(-(nz * np.log2(nz)).sum()) / float(np.log2(bins.shape[0]))
    return np.array([mean, var, median, mx - mn, std, mx, mn, p25, p75, psd, pse])


def canonical_signals(w):
    d = derive_all(w)
    return [w.acc[:, 0], w.acc[:, 1], w.acc[:, 2], d.smv_acc, w.gyr[:, 0], w.gyr[:, 1], w.gyr[:, 2], d.smv_gyr]


def shaped_window(n, shape, seed):
    """A window of n samples whose channels are noise, constant (psd below POWER_FLOOR) or ±1 (zero power bins)."""
    rng = np.random.default_rng(seed)
    if shape == "constant":
        acc = np.tile(rng.normal(0, 1, 3), (n, 1))
    elif shape == "alternating":
        acc = np.outer((-1.0) ** np.arange(n), [1.0, -1.0, 0.5])
    else:
        acc = rng.normal(0, 1, (n, 3)) * 10.0 ** rng.integers(-3, 4)
    return make_window(acc, gyr=rng.normal(0, 40, (n, 3)) if shape == "noise" else acc[::-1] * 100.0)


class TestExtractMany:
    @settings(max_examples=80, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=41),
                st.sampled_from(("noise", "constant", "alternating")),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            min_size=1,
            max_size=12,
        ),
        stack_values=st.sampled_from((1, 200, features.STACK_VALUES)),
    )
    def test_bit_identical_to_per_signal_loop(self, specs, stack_values):
        # repeated lengths share a stack; a small STACK_VALUES splits a group into several stacks
        windows = [shaped_window(n, shape, seed) for n, shape, seed in specs]
        windows += [shaped_window(n, shape, seed + 1) for n, shape, seed in specs[:3]]
        with mock.patch.object(features, "STACK_VALUES", stack_values):
            got = extract_many(windows)
        old = np.array([np.concatenate([stats11_loop(s) for s in canonical_signals(w)]) for w in windows])
        new = np.array([np.concatenate([stats11(s) for s in canonical_signals(w)]) for w in windows])
        assert got.shape == (len(windows), 88)
        assert got.tobytes() == old.tobytes()
        assert got.tobytes() == new.tobytes()
        for w, row in zip(windows, got):
            assert extract_many([w])[0].tobytes() == row.tobytes()

    def test_no_windows(self):
        assert extract_many([]).shape == (0, 88)

    def test_errors_keep_their_messages(self):
        good = shaped_window(10, "noise", 1)
        with pytest.raises(SignalTooShort, match=r"^need a 1-d signal with >= 2 samples, got shape \(1,\)$"):
            extract_many([good, make_window(np.zeros((1, 3)))])
        with pytest.raises(SignalTooShort, match=r"^need a 1-d signal with >= 2 samples, got shape \(1,\)$"):
            stats11([1.0])
        with pytest.raises(SignalTooShort, match=r"^need a 1-d signal with >= 2 samples, got shape \(2, 2\)$"):
            stats11(np.zeros((2, 2)))
        acc = np.zeros((10, 3))
        acc[4, 1] = np.inf
        with pytest.raises(NonFiniteSignal, match=r"^signal contains non-finite values$"):
            extract_many([good, make_window(acc)])
        with pytest.raises(NonFiniteSignal, match=r"^signal contains non-finite values$"):
            stats11([1.0, np.nan])

    def test_overflow_gives_non_finite_features_without_warnings(self, recwarn):
        acc = np.zeros((10, 3))
        acc[:, 0] = 1e154 * (-1.0) ** np.arange(10)  # finite, and so is its SMV, but its variance overflows
        f = extract_many([make_window(acc)])[0]
        assert not np.all(np.isfinite(f))
        x = np.full(5, 1e308)  # its mean overflows, so its power is nan
        got = stats11(x)
        assert len(recwarn) == 0
        with np.errstate(all="ignore"):
            assert got.tobytes() == stats11_loop(x).tobytes()
            assert f.tobytes() == np.concatenate([stats11_loop(s) for s in canonical_signals(make_window(acc))]).tobytes()
