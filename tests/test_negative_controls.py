"""Negative controls for the criterion-2 floors: a detector with no signal to learn must fail them.

On a quarter of the Erciyes replica (every fourth ADL and fall task, 765 trials of 17 subjects), RF and SVM pass the
floors. Shuffling the development labels (a permutation test: Ojala & Garriga, JMLR 2010) or zeroing every feature
leaves the same pipeline nothing to learn, so both must then land below the floors, at a balanced accuracy near
chance. The floors and the seed are those of `test_acceptance`.
"""

import dataclasses

import numpy as np
import pytest

import replicas
from test_acceptance import ERCIYES_RF_FLOOR, SEED
from wristfall import evaluation
from wristfall.datasets import ingest, load_manifest
from wristfall.evaluation import DetectorSpec, run_experiment, split_subjects
from wristfall.features import N_FEATURES

KINDS = ("rf", "svm")
# Balanced accuracy of a detector that learned nothing, in points from 50: about 3.5 standard deviations of chance
# on the 135 evaluation windows.
CHANCE_POINTS = 15.0


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


def passes_floors(report) -> bool:
    """Criterion 2 of `test_acceptance` on one report."""
    return all(getattr(report, metric) >= floor for metric, floor in ERCIYES_RF_FLOOR.items())


def assert_near_chance(report):
    assert not passes_floors(report), report
    assert report.accuracy < ERCIYES_RF_FLOOR["accuracy"], report
    assert abs((report.sensitivity + report.specificity) / 2 - 50.0) <= CHANCE_POINTS, report  # balanced accuracy


@pytest.mark.parametrize("kind", KINDS)
def test_the_unchanged_corpus_passes_the_floors(kind, quarter_erciyes):
    """The positive control: without it, a failing control would show nothing."""
    assert passes_floors(run_experiment(quarter_erciyes, DetectorSpec(kind), SEED).report)


@pytest.mark.parametrize("kind", KINDS)
def test_shuffled_development_labels_fail_the_floors(kind, quarter_erciyes):
    split = split_subjects((rec.subject_id for rec in quarter_erciyes), SEED)
    dev = [i for i, rec in enumerate(quarter_erciyes) if rec.subject_id in split.dev_subjects]
    labels = [quarter_erciyes[dev[j]].label for j in np.random.default_rng(SEED).permutation(len(dev))]
    shuffled = list(quarter_erciyes)
    for i, label in zip(dev, labels):
        shuffled[i] = dataclasses.replace(shuffled[i], label=label)
    result = run_experiment(shuffled, DetectorSpec(kind), SEED)
    assert result.split == split  # the evaluation subjects and their labels are those of the unchanged corpus
    assert_near_chance(result.report)


@pytest.mark.parametrize("kind", KINDS)
def test_zeroed_features_fail_the_floors(kind, quarter_erciyes, monkeypatch):
    monkeypatch.setattr(evaluation, "extract_many", lambda windows: np.zeros((len(windows), N_FEATURES)))
    assert_near_chance(run_experiment(quarter_erciyes, DetectorSpec(kind), SEED).report)
