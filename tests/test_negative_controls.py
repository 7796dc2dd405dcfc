"""Negative controls for the acceptance criteria: a pipeline that is broken in the way a criterion guards against must
fail that criterion, and the same pipeline unbroken must pass it.

Criterion 2, on a quarter of the Erciyes replica (every fourth ADL and fall task, 765 trials of 17 subjects): RF and
SVM pass the floors. Shuffling the development labels (a permutation test: Ojala & Garriga, JMLR 2010) or zeroing
every feature leaves the same pipeline nothing to learn, so both must then land below the floors, at a balanced
accuracy near chance.

Criterion 3, on the full Erciyes replica: the threshold detector calibrated on shuffled development labels.
Criteria 4 and 5, on the UMAFall replica: the accelerometer or the gyroscope features become seeded noise.
Criterion 7, on the quarter Erciyes replica: a development stage reads every subject.

The gates, their constants and the seed are those of `test_acceptance`; the full replicas are the session fixtures of
`conftest`, ingested once for both modules.
"""

import dataclasses

import numpy as np
import pytest

import replicas
from test_acceptance import ERCIYES_RF_FLOOR, ERCIYES_THRESHOLD_ACC, FUSION_SLACK_POINTS, SEED, UMAFALL_SVM
from wristfall import evaluation, features
from wristfall.datasets import ingest, load_manifest
from wristfall.evaluation import STAGE_PREDICTION, DetectorSpec, run_experiment, split_subjects
from wristfall.features import ACC_FEATURES, GYR_FEATURES, N_FEATURES

KINDS = ("rf", "svm")
VIEWS = ("combined88", "acc44", "gyr44")
# Balanced accuracy of a detector that learned nothing, in points from 50: about 3.5 standard deviations of chance
# on the 135 evaluation windows.
CHANCE_POINTS = 15.0
# The standard deviation of the noise that stands in for a sensor's features (standardized features are near 1).
NOISE_SD = 10.0


@pytest.fixture(scope="module")
def quarter_erciyes(tmp_path_factory):
    """The recordings of the quarter Erciyes replica."""
    with pytest.MonkeyPatch.context() as patch:
        for table in ("ERCIYES_ADL", "ERCIYES_FALLS"):
            patch.setattr(replicas, table, dict(list(getattr(replicas, table).items())[::4]))
        manifest = replicas.build_erciyes_replica(tmp_path_factory.mktemp("quarter-erciyes"))
    trials, report = ingest(load_manifest(manifest))
    assert (report.n_trials, len(report.subjects)) == (765, 17)
    return trials


@pytest.fixture(scope="module")
def unchanged(quarter_erciyes):
    """The unmutated pipeline's result on the quarter Erciyes replica, for each kind."""
    return {kind: run_experiment(quarter_erciyes, DetectorSpec(kind), SEED) for kind in KINDS}


@pytest.fixture(scope="module")
def unchanged_umafall(umafall):
    """The unmutated UMAFall SVM report of each view."""
    return umafall_svm(umafall.trials)


def passes_floors(report) -> bool:
    """Criterion 2 of `test_acceptance` on one report."""
    return all(getattr(report, metric) >= floor for metric, floor in ERCIYES_RF_FLOOR.items())


def passes_criterion_3(report) -> bool:
    """Criterion 3 of `test_acceptance` on one report: every fall found, accuracy inside the band."""
    ref, tol = ERCIYES_THRESHOLD_ACC
    return report.sensitivity == 100.0 and abs(report.accuracy - ref) <= tol


def passes_criterion_4(reports) -> bool:
    """Criterion 4 of `test_acceptance`: UMAFall SVM combined88 inside the `UMAFALL_SVM` band."""
    r = reports["combined88"]
    return all(abs(getattr(r, metric) - ref) <= tol for metric, (ref, tol) in UMAFALL_SVM.items())


def passes_criterion_5(reports) -> bool:
    """The UMAFall half of criterion 5 of `test_acceptance`: combined88 within the slack of the better one-sensor view."""
    best_one_sensor = max(reports["acc44"].accuracy, reports["gyr44"].accuracy)
    return reports["combined88"].accuracy >= best_one_sensor - FUSION_SLACK_POINTS


def passes_criterion_7(result) -> bool:
    """Criterion 7 of `test_acceptance` on one result: no evaluation subject read outside prediction, every one read."""
    predicted = {s for s, stage in result.access_log.events if stage == STAGE_PREDICTION}
    return not result.access_log.violations(result.split.eval_subjects) and predicted == set(result.split.eval_subjects)


def assert_near_chance(report):
    assert not passes_floors(report), report
    assert report.accuracy < ERCIYES_RF_FLOOR["accuracy"], report
    assert abs((report.sensitivity + report.specificity) / 2 - 50.0) <= CHANCE_POINTS, report  # balanced accuracy


def shuffled_development_labels(trials) -> list:
    """`trials` with the labels of the development subjects' trials (split at SEED) permuted among them."""
    split = split_subjects((rec.subject_id for rec in trials), SEED)
    dev = [i for i, rec in enumerate(trials) if rec.subject_id in split.dev_subjects]
    labels = [trials[dev[j]].label for j in np.random.default_rng(SEED).permutation(len(dev))]
    shuffled = list(trials)
    for i, label in zip(dev, labels):
        shuffled[i] = dataclasses.replace(shuffled[i], label=label)
    return shuffled


def umafall_svm(trials, views=VIEWS, noise_in=None) -> dict:
    """The UMAFall SVM report of each view. With `noise_in`, those feature columns of every window are N(0, NOISE_SD²)
    noise, drawn in window order from a generator seeded with SEED, so every view's run gets the same draws.

    The noise enters the row matrix that the fit and the prediction read (`evaluation._rows`), in this process: the
    file workers that extract the features each hold a copy of the generator, so draws made there would depend on
    how many workers there are."""
    reports = {}
    for view in views:
        with pytest.MonkeyPatch.context() as patch:
            if noise_in is not None:
                rng = np.random.default_rng(SEED)
                real_rows = evaluation._rows

                def noisy(*args):
                    rows = real_rows(*args)
                    rows.values[:, noise_in] = rng.normal(0.0, NOISE_SD, rows.values[:, noise_in].shape)
                    return rows

                patch.setattr(evaluation, "_rows", noisy)
            reports[view] = run_experiment(trials, DetectorSpec("svm", feature_view=view), SEED).report
    return reports


@pytest.mark.parametrize("kind", KINDS)
def test_the_unchanged_corpus_passes_the_floors(kind, unchanged):
    """The positive control: without it, a failing control would show nothing."""
    assert passes_floors(unchanged[kind].report)


@pytest.mark.parametrize("kind", KINDS)
def test_shuffled_development_labels_fail_the_floors(kind, quarter_erciyes):
    result = run_experiment(shuffled_development_labels(quarter_erciyes), DetectorSpec(kind), SEED)
    # the evaluation subjects and their labels are those of the unchanged corpus
    assert result.split == split_subjects((rec.subject_id for rec in quarter_erciyes), SEED)
    assert_near_chance(result.report)


@pytest.mark.parametrize("kind", KINDS)
def test_zeroed_features_fail_the_floors(kind, quarter_erciyes, monkeypatch):
    monkeypatch.setattr(features, "extract_many", lambda windows: np.zeros((len(windows), N_FEATURES)))
    assert_near_chance(run_experiment(quarter_erciyes, DetectorSpec(kind), SEED).report)


def test_shuffled_development_labels_fail_criterion_3(erciyes):
    """Unchanged: 75.37 % accuracy with every fall found, inside the 77.3 +/- 6 band. Calibrated on shuffled
    development labels: 68.89 / 100 / 30.0 % (accuracy / SE / SP), 2.41 points under the band's 71.3 % floor; the
    shuffle seeds 0-7 all gave that figure.

    Only the full replica fails clearly: on the quarter replica the shuffled run gives 71.11 %, 0.19 points under."""
    spec = DetectorSpec(kind="threshold", signals=("smv_acc",))
    assert passes_criterion_3(run_experiment(erciyes.trials, spec, SEED).report)
    broken = run_experiment(shuffled_development_labels(erciyes.trials), spec, SEED).report
    assert not passes_criterion_3(broken)
    floor = ERCIYES_THRESHOLD_ACC[0] - ERCIYES_THRESHOLD_ACC[1]
    assert broken.accuracy <= floor - 2.4, broken


def test_noise_for_accelerometer_features_fails_criterion_4(umafall, unchanged_umafall):
    """Unchanged: 95.70 / 100 / 92.98 % (accuracy / SE / SP), inside the band. With noise: 86.02 / 83.33 / 87.72 %,
    5.48 accuracy points under the band's 91.5 % floor.

    The margin depends on the draws: over the noise seeds 0-15 the accuracy spans 84.95-94.62 %, and at seed 12
    (94.62 / 97.22 / 92.98 %) the band holds, so criterion 4 alone can miss a broken accelerometer.
    """
    assert passes_criterion_4(unchanged_umafall)
    broken = umafall_svm(umafall.trials, views=("combined88",), noise_in=ACC_FEATURES)
    assert not passes_criterion_4(broken)
    floor = UMAFALL_SVM["accuracy"][0] - UMAFALL_SVM["accuracy"][1]
    assert broken["combined88"].accuracy <= floor - 3.3, broken  # other noise draws gave 88.17 %, 3.33 points under


def test_noise_for_gyroscope_features_fails_criterion_5(umafall, unchanged_umafall):
    """Unchanged: combined88 / acc44 / gyr44 at 95.70 / 93.55 / 93.55 %. With noise: combined88 falls to 84.95 %,
    6.60 points under acc44's 93.55 % less the slack; gyr44 falls to 52.69 % and acc44, which reads no gyroscope
    feature, stays at 93.55 %. Over the noise seeds 0-15 combined88 spans 82.80-91.40 %, under 91.55 % at each.

    Only the UMAFall half can fail this way. On the full Erciyes replica, with the same gyroscope noise, RF combined88
    and acc44 both stay at 100 / 100 / 100 % (gyr44: 55.74 %), so the Erciyes half cannot see a broken gyroscope.
    """
    assert passes_criterion_5(unchanged_umafall)
    broken = umafall_svm(umafall.trials, noise_in=GYR_FEATURES)
    assert not passes_criterion_5(broken)
    floor = broken["acc44"].accuracy - FUSION_SLACK_POINTS
    assert broken["combined88"].accuracy <= floor - 1.2, broken  # other noise draws gave 90.32 %, 1.23 points under


def test_a_development_stage_that_reads_every_subject_fails_criterion_7(quarter_erciyes, unchanged, monkeypatch):
    """Unchanged: no violation. Reading every subject at the fit stages gives 6: each of the 3 evaluation subjects
    at standardization and at training."""
    assert passes_criterion_7(unchanged["rf"])
    rows = evaluation._rows

    def every_subject(trials, subjects, signals, window_seconds, stages, log):
        if STAGE_PREDICTION not in stages:
            subjects = {trial.subject_id for trial in trials}
        return rows(trials, subjects, signals, window_seconds, stages, log)

    monkeypatch.setattr(evaluation, "_rows", every_subject)
    leaky = run_experiment(quarter_erciyes, DetectorSpec("rf"), SEED)
    assert not passes_criterion_7(leaky)
    assert len(leaky.access_log.violations(leaky.split.eval_subjects)) == 6
