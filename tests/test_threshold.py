import re

import numpy as np
import pytest

from conftest import make_window
from wristfall.core import Label
from wristfall.errors import DataError
from wristfall.signals import DerivedSignalSet, derive_all
from wristfall.threshold import (
    DEFAULT_GRIDS,
    ThresholdConfig,
    calibrate,
    calibrate_peaks,
    check_signals,
    detect,
    fall_score,
    grid_points,
    load_threshold_config,
    save_threshold_config,
)


def derived_with(smv_acc=0.0, smv_gyr=0.0, fi=0.0, avd=0.0, n=10):
    def series(peak):
        s = np.full(n, 0.01)
        s[n // 2] = peak
        return s

    return DerivedSignalSet(
        smv_acc=series(smv_acc), smv_gyr=series(smv_gyr), fi=series(fi), avd=series(avd)
    )


def window_with_peak(peak, label=Label.ADL):
    acc = np.tile([0.0, 0.0, 0.2], (20, 1))
    acc[10] = [0.0, 0.0, peak]
    return make_window(acc, label=label)


class TestDetect:
    def test_all_below_is_adl(self):
        config = ThresholdConfig({"smv_acc": 2.5, "fi": 1.0, "avd": 2.0})
        w = make_window(np.zeros((10, 3)))
        verdict, votes = detect(w, derived_with(n=10), config)
        assert verdict is Label.ADL
        assert set(votes) == {"smv_acc", "fi", "avd"}
        assert all(v is Label.ADL for v in votes.values())

    def test_single_signal_majority(self):
        config = ThresholdConfig({"smv_acc": 2.5})
        w = window_with_peak(3.1)
        verdict, votes = detect(w, derived_with(smv_acc=3.1), config)
        assert verdict is Label.FALL
        assert votes["smv_acc"] is Label.FALL

    def test_two_of_three_votes_fall(self):
        config = ThresholdConfig({"smv_acc": 2.0, "fi": 1.0, "avd": 2.0})
        d = derived_with(smv_acc=3.0, fi=2.0, avd=0.5)
        verdict, votes = detect(make_window(np.zeros((10, 3))), d, config)
        assert [votes["smv_acc"], votes["fi"], votes["avd"]] == [Label.FALL, Label.FALL, Label.ADL]
        assert verdict is Label.FALL

    def test_exact_tie_votes_fall(self):
        config = ThresholdConfig({"smv_acc": 2.0, "fi": 1.0})
        d = derived_with(smv_acc=3.0, fi=0.2)
        verdict, _ = detect(make_window(np.zeros((10, 3))), d, config)
        assert verdict is Label.FALL

    def test_strict_inequality_at_threshold(self):
        config = ThresholdConfig({"smv_acc": 3.0})
        verdict, _ = detect(make_window(np.zeros((10, 3))), derived_with(smv_acc=3.0), config)
        assert verdict is Label.ADL

    def test_fall_score_is_vote_fraction(self):
        config = ThresholdConfig({"smv_acc": 2.0, "fi": 1.0, "avd": 2.0})
        d = derived_with(smv_acc=3.0, fi=2.0, avd=0.5)
        assert fall_score(d, config) == pytest.approx(2.0 / 3.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            peak = rng.uniform(0.5, 6.0)
            lo, hi = sorted(rng.uniform(0.5, 6.0, size=2))
            d = derived_with(smv_acc=peak)
            w = make_window(np.zeros((10, 3)))
            v_lo, _ = detect(w, d, ThresholdConfig({"smv_acc": lo}))
            v_hi, _ = detect(w, d, ThresholdConfig({"smv_acc": hi}))
            # raising the threshold never flips ADL -> Fall
            assert not (v_lo is Label.ADL and v_hi is Label.FALL)

    def test_scale_signal_and_threshold_together(self):
        rng = np.random.default_rng(21)
        acc = rng.normal(0, 1, (40, 3))
        for c in (0.5, 2.0, 7.3):
            w1, w2 = make_window(acc), make_window(c * acc)
            d1, d2 = derive_all(w1), derive_all(w2)
            for theta in (0.5, 1.5, 3.0):
                v1, _ = detect(w1, d1, ThresholdConfig({"smv_acc": theta}))
                v2, _ = detect(w2, d2, ThresholdConfig({"smv_acc": c * theta}))
                assert v1 is v2


class TestConfig:
    def test_requires_a_signal(self):
        with pytest.raises(DataError, match="^empty signal list$"):
            ThresholdConfig({})

    def test_rejects_unknown_signal(self):
        with pytest.raises(DataError):
            ThresholdConfig({"magnetometer": 1.0})

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(DataError):
            ThresholdConfig({"smv_acc": 0.0})
        with pytest.raises(DataError):
            ThresholdConfig({"smv_acc": float("inf")})

    def test_round_trip_bit_exact(self, tmp_path):
        config = ThresholdConfig({"smv_acc": 2.8500000000000001, "fi": 1.05, "smv_gyr": 315.0})
        path = tmp_path / "thresholds.txt"
        save_threshold_config(config, path)
        loaded = load_threshold_config(path)
        assert loaded.thresholds == config.thresholds
        first_bytes = path.read_bytes()
        save_threshold_config(loaded, path)
        assert path.read_bytes() == first_bytes

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("smv_acc 2.5\n")
        with pytest.raises(DataError):
            load_threshold_config(path)

    @pytest.mark.parametrize(
        "text,fault",
        [
            ("smv_acc = 2.0\nsmv_acc = 9.0\n", "line 2: signal 'smv_acc' repeats line 1"),
            ("# thresholds\nfi = 1.0\n\nsmv_acc=2.0\n  fi = 1.0  # again\n", "line 5: signal 'fi' repeats line 2"),
        ],
        ids=["adjacent", "apart"],
    )
    def test_load_rejects_a_signal_named_twice(self, tmp_path, text, fault):
        """A second line for a signal would replace the first's threshold unseen, even with the same value."""
        path = tmp_path / "repeat.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {fault}')}$"):
            load_threshold_config(path)


def calibrate_oracle(fall_peaks, adl_peaks, lo, hi, step):
    """Exhaustive loop over the grid applying the stated selection rule."""
    best = None
    for theta in grid_points(lo, hi, step):
        se = float(np.mean(np.asarray(fall_peaks) > theta))
        sp = float(np.mean(np.asarray(adl_peaks) <= theta))
        cand = (se, sp, float(theta))
        if best is None or cand > best:
            best = cand
    return best[2]


class TestCalibrate:
    def dev_set(self, fall_peaks, adl_peaks):
        pairs = []
        for p in fall_peaks:
            w = window_with_peak(p, label=Label.FALL)
            pairs.append((w, derive_all(w)))
        for p in adl_peaks:
            w = window_with_peak(p, label=Label.ADL)
            pairs.append((w, derive_all(w)))
        return pairs

    def test_separable_set_picks_threshold_in_gap(self):
        fall_peaks = [3.0, 3.4, 4.0, 5.2]
        adl_peaks = [1.6, 1.8, 2.0]
        config = calibrate(self.dev_set(fall_peaks, adl_peaks), signals=("smv_acc",))
        theta = config.thresholds["smv_acc"]
        assert 2.0 < theta <= 3.0
        assert theta == calibrate_oracle(fall_peaks, adl_peaks, *DEFAULT_GRIDS["smv_acc"])

    def test_matches_exhaustive_oracle_on_random_sets(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            fall_peaks = rng.uniform(2.0, 6.0, size=12)
            adl_peaks = rng.uniform(1.0, 4.0, size=15)
            config = calibrate(self.dev_set(fall_peaks, adl_peaks), signals=("smv_acc",))
            expected = calibrate_oracle(fall_peaks, adl_peaks, *DEFAULT_GRIDS["smv_acc"])
            assert config.thresholds["smv_acc"] == expected

    def test_perfectly_separable_fi_scores_perfectly_on_dev(self):
        rng = np.random.default_rng(23)
        pairs = []
        for _ in range(8):
            acc = rng.normal(0, 0.01, (30, 3))
            acc[15] += 4.0  # big jerk spike -> high fall index
            pairs.append((make_window(acc, label=Label.FALL), None))
        for _ in range(8):
            acc = rng.normal(0, 0.01, (30, 3))
            pairs.append((make_window(acc, label=Label.ADL), None))
        pairs = [(w, derive_all(w)) for w, _ in pairs]
        config = calibrate(pairs, signals=("fi",))
        verdicts = [detect(w, d, config)[0] for w, d in pairs]
        actual = [w.label for w, _ in pairs]
        assert all(
            (v is Label.FALL) == (a is Label.FALL) for v, a in zip(verdicts, actual)
        )

    def test_order_invariance(self):
        rng = np.random.default_rng(24)
        pairs = self.dev_set(rng.uniform(2.5, 5.0, 10), rng.uniform(1.0, 3.0, 10))
        config_a = calibrate(pairs, signals=("smv_acc", "fi"))
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        config_b = calibrate(shuffled, signals=("smv_acc", "fi"))
        assert config_a.thresholds == config_b.thresholds

    def test_unreachable_sensitivity_takes_larger_threshold(self):
        # fall peaks below the grid floor: SE = 0 everywhere, SP = 1 everywhere,
        # so the tie-break selects the top of the grid
        config = calibrate(self.dev_set([1.1, 1.2], [1.0, 1.05]), signals=("smv_acc",))
        lo, hi, step = DEFAULT_GRIDS["smv_acc"]
        assert config.thresholds["smv_acc"] == hi

    def test_single_class_dev_set_rejected(self):
        pairs = self.dev_set([3.0, 4.0], [])
        with pytest.raises(DataError, match="^development set must contain both falls and ADLs$"):
            calibrate(pairs, signals=("smv_acc",))

    def test_no_signals_rejected(self):
        with pytest.raises(DataError, match="^empty signal list$"):
            calibrate(self.dev_set([3.0], [1.0]), signals=())

    def test_unknown_signal_is_a_data_error(self):
        """Not the KeyError of a grid lookup: the signal list is checked before the search."""
        with pytest.raises(DataError, match="unknown signal 'bogus'"):
            calibrate_peaks(np.ones((2, 1)), [Label.FALL, Label.ADL], ("bogus",))


class TestCheckSignals:
    def test_returns_the_names_as_a_tuple(self):
        assert check_signals(["fi", "smv_acc"]) == ("fi", "smv_acc")

    def test_empty_list(self):
        with pytest.raises(DataError, match="^empty signal list$"):
            check_signals([])

    def test_unknown_name(self):
        with pytest.raises(DataError, match=r"^unknown signal 'bogus'; expected one of \('smv_acc', "):
            check_signals(["fi", "bogus"])

    def test_repeated_name(self):
        with pytest.raises(DataError, match="^signal 'fi' repeats$"):
            check_signals(["fi", "fi"])

    def test_config_checks_its_keys_with_it(self):
        with pytest.raises(DataError, match="^empty signal list$"):
            ThresholdConfig({})
        with pytest.raises(DataError, match="^unknown signal 'magnetometer'; expected one of "):
            ThresholdConfig({"magnetometer": 1.0})
