import pytest

import wristfall
from wristfall import cli, core, errors, evaluation, features, ml


def test_every_exported_name_resolves():
    for name in wristfall.__all__:
        assert getattr(wristfall, name, None) is not None, name


@pytest.mark.parametrize(
    "module,name",
    [
        (features, "FeatureVector"),
        (features, "write_feature_csv"),
        (ml, "predict_values"),
        (ml, "_feature_matrix"),
        (errors, "ModelNotFitted"),
        (cli, "_fit_on_dev"),
        (cli, "_read_corpus"),
        (features, "extract"),
        (evaluation, "classify"),
        (evaluation, "windows_of"),
        (wristfall, "detect"),
        (wristfall, "calibrate"),
        (core, "DEFAULT_MIN_SAMPLES"),
        (errors, "SignalTooShort"),
        (errors, "NoSignalsEnabled"),
        (errors, "SingleClassDevSet"),
        (errors, "SingleClassTrainingSet"),
        (errors, "IncompleteFeatureVector"),
        (errors, "ManifestRootMissing"),
        (errors, "TooFewSubjects"),
        (cli, "EXIT_USAGE"),
    ],
)
def test_removed_name_is_gone(module, name):
    assert name not in wristfall.__all__
    assert not hasattr(wristfall, name)
    assert not hasattr(module, name)


def test_feature_views_defined_once():
    assert not hasattr(ml, "FEATURE_VIEWS") or ml.FEATURE_VIEWS is features.FEATURE_VIEWS
