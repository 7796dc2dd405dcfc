import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_window
from wristfall.signals import FI_HISTORY_SAMPLES, GRAVITY_FREEZE_G, avd, derive_all, fall_index, smv


def fi_oracle(acc, history):
    """Brute-force double sum over axes and the trailing difference history."""
    n = acc.shape[0]
    out = [0.0]
    for t in range(1, n):
        total = 0.0
        for i in range(max(1, t - history + 1), t + 1):
            for axis in range(3):
                total += (acc[i, axis] - acc[i - 1, axis]) ** 2
        out.append(math.sqrt(total))
    return np.array(out)


def avd_oracle(acc, rate, smoothing_s):
    """Scalar loop of the trailing moving average, freeze rule, and projection."""
    n = acc.shape[0]
    m = max(1, int(round(smoothing_s * rate)))
    g_hat = np.array([0.0, 0.0, 1.0])
    out = np.zeros(n)
    for t in range(n):
        lo = max(0, t - m + 1)
        ma = acc[lo : t + 1].mean(axis=0)
        norm = np.linalg.norm(ma)
        if norm >= GRAVITY_FREEZE_G:
            g_hat = ma / norm
        out[t] = abs(float(acc[t] @ g_hat))
    return out


class TestSmv:
    def test_zero_vector(self):
        w = make_window(np.zeros((5, 3)))
        assert np.all(smv(w, "acc") == 0.0)

    def test_pythagorean_triple(self):
        w = make_window([[3.0, 4.0, 0.0]] * 3)
        assert np.allclose(smv(w, "acc"), 5.0)

    def test_symmetric_vector(self):
        w = make_window([[1.0, 1.0, 1.0]] * 3)
        assert np.allclose(smv(w, "acc"), math.sqrt(3))

    def test_gyr_sensor_selects_gyroscope(self):
        w = make_window(np.zeros((4, 3)), gyr=[[0, 30, 40]] * 4)
        assert np.allclose(smv(w, "gyr"), 50.0)
        assert np.all(smv(w, "acc") == 0.0)

    def test_unknown_sensor(self):
        with pytest.raises(ValueError):
            smv(make_window(np.zeros((3, 3))), "mag")

    @given(st.permutations([0, 1, 2]), st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3))
    @settings(max_examples=30, deadline=None)
    def test_axis_permutation_and_sign_invariance(self, perm, signs):
        rng = np.random.default_rng(5)
        acc = rng.normal(0, 2, (40, 3))
        base = smv(make_window(acc), "acc")
        transformed = acc[:, perm] * np.array(signs)
        # permutation reorders the float sum of squares, so allow rounding noise
        assert np.allclose(smv(make_window(transformed), "acc"), base, rtol=1e-12, atol=0)

    def test_magnitude_dominates_components(self):
        rng = np.random.default_rng(6)
        acc = rng.normal(0, 2, (50, 3))
        mags = smv(make_window(acc), "acc")
        assert np.all(mags[:, None] >= np.abs(acc) - 1e-12)


class TestFallIndex:
    def test_constant_window_is_zero(self):
        w = make_window(np.tile([0.3, -0.2, 0.9], (30, 1)))
        assert np.all(fall_index(w) == 0.0)

    def test_single_step_height(self):
        acc = np.zeros((30, 3))
        acc[10:, 0] = 0.7  # one step of height 0.7 on one axis
        fi = fall_index(make_window(acc))
        assert fi[9] == 0.0
        assert np.allclose(fi[10:29], 0.7)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        acc = rng.normal(0, 1, (50, 3))
        w = make_window(acc)
        assert np.allclose(fall_index(w), fi_oracle(acc, 20), atol=1e-12)

    def test_offset_invariance(self):
        rng = np.random.default_rng(8)
        acc = rng.normal(0, 1, (40, 3))
        shifted = acc + np.array([5.0, -3.0, 11.0])
        assert np.allclose(fall_index(make_window(acc)), fall_index(make_window(shifted)), atol=1e-9)

    def test_scaling(self):
        rng = np.random.default_rng(9)
        acc = rng.normal(0, 1, (40, 3))
        assert np.allclose(fall_index(make_window(3.5 * acc)), 3.5 * fall_index(make_window(acc)))

    def test_full_history_equals_total_sum(self):
        rng = np.random.default_rng(10)
        acc = rng.normal(0, 1, (FI_HISTORY_SAMPLES + 1, 3))
        fi = fall_index(make_window(acc))
        total = np.sqrt((np.diff(acc, axis=0) ** 2).sum())
        assert fi[-1] == pytest.approx(total, rel=1e-12)


class TestAvd:
    def test_rest_aligned_with_default_gravity(self):
        w = make_window(np.tile([0.0, 0.0, 1.0], (50, 1)))
        assert np.allclose(avd(w), 1.0)

    def test_rest_on_other_axis_settles_to_one(self):
        w = make_window(np.tile([0.0, 1.0, 0.0], (50, 1)))
        # the moving average points along +y from the first sample on
        assert np.allclose(avd(w), 1.0)

    def test_free_fall_freezes_gravity_estimate(self):
        rate = 25.0
        acc = np.tile([0.0, 0.0, 1.0], (100, 1))
        acc[50:80] = 0.001  # free fall: magnitude far below the freeze level
        w = make_window(acc, rate=rate)
        got = avd(w)
        expected = avd_oracle(acc, rate, 1.0)
        assert np.allclose(got, expected, atol=1e-9)
        assert np.all(got[75:80] < 0.01)

    def test_matches_scalar_oracle_on_random_window(self):
        rng = np.random.default_rng(11)
        acc = rng.normal(0, 0.5, (120, 3)) + np.array([0, 0, 1.0])
        w = make_window(acc, rate=22.0)
        assert np.allclose(avd(w), avd_oracle(acc, 22.0, 1.0), atol=1e-9)


class TestDeriveAll:
    def test_constant_window(self):
        w = make_window(np.tile([0.0, 0.0, 1.0], (40, 1)), gyr=np.tile([10.0, 0, 0], (40, 1)))
        d = derive_all(w)
        assert np.allclose(d.smv_acc, 1.0)
        assert np.allclose(d.smv_gyr, 10.0)
        assert np.all(d.fi == 0.0)
        assert np.allclose(d.avd, 1.0)

    def test_composition_matches_individual_operations(self):
        rng = np.random.default_rng(12)
        w = make_window(rng.normal(0, 1, (60, 3)), gyr=rng.normal(0, 50, (60, 3)))
        d = derive_all(w)
        assert np.array_equal(d.smv_acc, smv(w, "acc"))
        assert np.array_equal(d.smv_gyr, smv(w, "gyr"))
        assert np.array_equal(d.fi, fall_index(w))
        assert np.array_equal(d.avd, avd(w))

    def test_outputs_non_negative_and_finite(self, synth_trials):
        from wristfall.core import segment

        for rec in synth_trials[:20]:
            for w in segment(rec):
                d = derive_all(w)
                for series in (d.smv_acc, d.smv_gyr, d.fi, d.avd):
                    assert series.shape == (w.n_samples,)
                    assert np.all(np.isfinite(series))
                    assert np.all(series >= 0.0)

    def test_by_name_lookup(self):
        w = make_window(np.zeros((5, 3)))
        d = derive_all(w)
        assert d.by_name("smv_acc") is d.smv_acc
        with pytest.raises(KeyError):
            d.by_name("nope")
