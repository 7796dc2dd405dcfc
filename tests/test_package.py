from pathlib import Path

import numpy as np
import pytest

import wristfall
from wristfall import cli, core, datasets, errors, evaluation, features, ml, threshold
from wristfall.core import Label, Source
from wristfall.synthetic import synthesize


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
        (features, "WindowRow"),
        (features, "trial_rows"),
        (evaluation, "_matrix"),
        (datasets, "_REPR_FLOAT_BYTES"),
        (datasets.DatasetManifest, "label_for"),
        (evaluation, "classify_rows"),
        (threshold, "vote"),
        (datasets, "_plain_interleaved"),
    ],
)
def test_removed_name_is_gone(module, name):
    assert name not in wristfall.__all__
    assert not hasattr(wristfall, name)
    assert not hasattr(module, name)


def test_feature_views_defined_once():
    assert not hasattr(ml, "FEATURE_VIEWS") or ml.FEATURE_VIEWS is features.FEATURE_VIEWS


def test_datasets_calls_loadtxt_once():
    """Raw columns, interleaved files, canonical trial files and detect-stream rows all reach numpy through
    `datasets._loadtxt`, behind the one plain-number gate `datasets._is_plain`."""
    assert Path(datasets.__file__).read_text(encoding="utf-8").count("np.loadtxt(") == 1


def test_readme_library_block_runs(tmp_path, monkeypatch):
    """The README's "Library use" block runs as written: on a small raw corpus (`manifest.json`) and its canonical
    corpus (`corpus`), so that the documented API cannot drift from the package."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1].split("\n```\n", 1)[0]
    codes = {Label.ADL: "A01", Label.FALL: "F01"}
    for rec in synthesize(seed=3, n_subjects=5, trials_per_subject=4):
        trial_dir = tmp_path / "raw" / rec.subject_id / codes[rec.label] / f"trial_{rec.trial_id[-1]}"
        trial_dir.mkdir(parents=True)
        rows = np.hstack([rec.acc, rec.gyr]).tolist()
        (trial_dir / "wrist.txt").write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows))
    layout = datasets.LayoutSpec(
        file_glob="S*/*/trial_*/wrist.txt",
        path_regex=r"(?P<subject>S\d+)/(?P<code>[AF]01)/trial_(?P<trial>\d+)/wrist\.txt$",
    )
    tasks = {code: (label, label.value) for label, code in codes.items()}
    manifest = datasets.DatasetManifest(Source.ERCIYES, Path("raw"), tasks, layout, nominal_rate_hz=25.0)
    datasets.save_manifest(manifest, tmp_path / "manifest.json")
    trials, report = datasets.ingest(datasets.load_manifest(tmp_path / "manifest.json"))
    assert report.n_trials == 20 and not report.skipped
    datasets.write_canonical(trials, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, "README.md (Library use)", "exec"), namespace)
    corpus_report, report = namespace["corpus_result"].report, namespace["result"].report
    assert corpus_report.to_dict()["confusion"] == report.to_dict()["confusion"]
