import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_python
from test_datasets import serial_and_forked
from wristfall.core import DEFAULT_WINDOW_SECONDS, Label, segment
from wristfall.datasets import MIN_FORK_ITEMS, read_canonical, read_index, write_canonical
from wristfall.errors import DataError, ExperimentStageError
from wristfall import evaluation
from wristfall.evaluation import (
    AccessLog,
    DetectorSpec,
    EvalReport,
    classify_many,
    compute_metrics,
    fit_on_dev,
    predict_subjects,
    predictions_csv,
    report_json,
    report_table,
    run_experiment,
    split_subjects,
)
from wristfall.features import window_values
from wristfall.ml import save_model
from wristfall.signals import derive_all
from wristfall.synthetic import synthesize
from wristfall.threshold import ThresholdConfig, detect, fall_score

F, A = Label.FALL, Label.ADL


def windows_of(trials, subjects, window_seconds):
    """The windows of the trials of `subjects`, in trial order."""
    return [w for rec in trials if rec.subject_id in subjects for w in segment(rec, window_seconds=window_seconds)]


class TestSplit:
    def test_17_subjects_gives_14_dev_3_eval(self):
        subjects = [f"P{i:02d}" for i in range(17)]
        split = split_subjects(subjects, seed=0)
        assert len(split.dev_subjects) == 14
        assert len(split.eval_subjects) == 3

    def test_two_subjects_gives_one_each(self):
        split = split_subjects(["a", "b"], seed=0)
        assert len(split.dev_subjects) == 1
        assert len(split.eval_subjects) == 1

    def test_same_seed_same_split(self):
        subjects = [f"P{i}" for i in range(11)]
        assert split_subjects(subjects, seed=7) == split_subjects(subjects, seed=7)

    def test_input_order_irrelevant(self):
        subjects = [f"P{i}" for i in range(9)]
        assert split_subjects(subjects, seed=3) == split_subjects(reversed(subjects), seed=3)

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_and_covering(self, n, seed):
        subjects = [f"P{i:03d}" for i in range(n)]
        split = split_subjects(subjects, seed=seed)
        dev, ev = set(split.dev_subjects), set(split.eval_subjects)
        assert dev.isdisjoint(ev)
        assert dev | ev == set(subjects)
        assert len(ev) == max(1, round(0.2 * n))

    def test_too_few_subjects(self):
        with pytest.raises(DataError, match="^need at least 2 subjects, got 1$"):
            split_subjects(["only"], seed=0)


class TestMetrics:
    def test_perfect(self):
        r = compute_metrics([(F, F), (F, F), (A, A), (A, A)])
        assert (r.tp, r.fn, r.tn, r.fp) == (2, 0, 2, 0)
        assert r.accuracy == 100.0
        assert r.sensitivity == 100.0
        assert r.specificity == 100.0

    def test_even_split(self):
        r = compute_metrics([(F, F), (A, F), (A, A), (F, A)])
        assert (r.tp, r.fn, r.tn, r.fp) == (1, 1, 1, 1)
        assert r.accuracy == 50.0
        assert r.sensitivity == 50.0
        assert r.specificity == 50.0

    def test_undefined_ratios_are_absent(self):
        r = compute_metrics([(F, F), (A, F)])
        assert r.specificity is None
        assert r.sensitivity == 50.0
        r = compute_metrics([(A, A)])
        assert r.sensitivity is None

    def test_permutation_invariant(self):
        rng = np.random.default_rng(60)
        pairs = [(F if rng.random() < 0.5 else A, F if rng.random() < 0.5 else A) for _ in range(50)]
        shuffled = [pairs[i] for i in rng.permutation(50)]
        assert compute_metrics(pairs) == compute_metrics(shuffled)

    @given(
        tp=st.integers(0, 40), fn=st.integers(0, 40), tn=st.integers(0, 40), fp=st.integers(0, 40)
    )
    @settings(max_examples=80, deadline=None)
    def test_accuracy_identity(self, tp, fn, tn, fp):
        pairs = [(F, F)] * tp + [(A, F)] * fn + [(A, A)] * tn + [(F, A)] * fp
        if not pairs:
            return
        r = compute_metrics(pairs)
        p, n = tp + fn, tn + fp
        if p and n:
            weighted = (r.sensitivity * p + r.specificity * n) / (p + n)
            assert r.accuracy == pytest.approx(weighted, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_report_serialization(self):
        r = compute_metrics([(F, F), (A, A)], detector="knn(combined88)", dataset="synthetic")
        doc = report_json(r)
        assert EvalReport.from_dict(__import__("json").loads(doc)) == r

    def test_report_table_alignment(self):
        r1 = compute_metrics([(F, F), (A, A)], detector="d1", dataset="x")
        r2 = compute_metrics([(F, F), (F, A)], detector="d2", dataset="x")
        table = report_table([r1, r2])
        lines = table.strip().split("\n")
        assert len(lines) == 4
        assert "Accuracy" in lines[1]
        assert "Sensitivity (SE)" in lines[2]
        assert "Specificity (SP)" in lines[3]


@pytest.fixture(scope="module")
def corpus():
    return synthesize(seed=88, n_subjects=6, trials_per_subject=16)


class TestFitOnDev:
    def test_fit_then_predict_is_run_experiment(self, corpus):
        spec = DetectorSpec(kind="svm")
        log = AccessLog()
        detector, split, n_dev_windows = fit_on_dev(list(corpus), spec, 5, 60.0, log)
        records = predict_subjects(detector, corpus, split.eval_subjects, 60.0, log)
        result = run_experiment(corpus, spec, 5)
        assert (records, split, log.events) == (result.predictions, result.split, result.access_log.events)
        assert n_dev_windows == len(windows_of(corpus, split.dev_subjects, 60.0))

    def test_only_development_trials_are_reduced_before_fitting(self, corpus, tmp_path, monkeypatch):
        """On index entries, map_trials gets the development subjects' trials, the evaluation subjects' after the fit."""
        write_canonical(corpus, tmp_path)
        events = []
        real_fit, real_map = evaluation.fit_detector, evaluation.map_trials

        def fit(spec, dev_rows, seed):
            events.append("fit")
            return real_fit(spec, dev_rows, seed)

        def map_trials(fn, entries):
            events.append({entry.subject_id for entry in entries})
            return real_map(fn, entries)

        monkeypatch.setattr(evaluation, "fit_detector", fit)
        monkeypatch.setattr(evaluation, "map_trials", map_trials)
        spec = DetectorSpec(kind="threshold")
        result = run_experiment(read_index(tmp_path), spec, 5)
        assert events == [set(result.split.dev_subjects), "fit", set(result.split.eval_subjects)]
        assert result.predictions == run_experiment(read_canonical(tmp_path), spec, 5).predictions

    def test_an_empty_signal_list_fails_before_any_trial_is_read(self, corpus, tmp_path, monkeypatch):
        write_canonical(corpus, tmp_path)
        entries = read_index(tmp_path)

        def map_trials(fn, entries):
            pytest.fail("a trial file was read before the signal list was checked")

        monkeypatch.setattr(evaluation, "map_trials", map_trials)
        with pytest.raises(DataError, match="^empty signal list$"):
            run_experiment(entries, DetectorSpec("threshold", ()), 7)

    def test_run_experiment_keeps_the_callers_trials(self, corpus):
        trials = list(corpus)
        run_experiment(trials, DetectorSpec(kind="svm"), 5)
        assert [id(r) for r in trials] == [id(r) for r in corpus]


class TestRows:
    """`_rows` holds one entry per window that `segment` cuts from the chosen trials, in trial id order."""

    @pytest.mark.parametrize("window_seconds,per_trial", [(10.0, 2), (60.0, 1)])  # the trials last 12 to 18 s
    @pytest.mark.parametrize("source", ["recordings", "entries", "entries-without-store"])
    def test_the_block_names_each_window_as_segment_does(self, source, window_seconds, per_trial, corpus, tmp_path):
        write_canonical(corpus, tmp_path)
        trials = {
            "recordings": corpus,
            "entries": read_index(tmp_path),
            "entries-without-store": [entry._replace(stored={}) for entry in read_index(tmp_path)],
        }[source]
        spec, log = DetectorSpec("threshold"), AccessLog()
        _, split, n_dev_windows = fit_on_dev(trials, spec, 5, window_seconds, log)
        rows = evaluation._rows(trials, split.dev_subjects, spec.signals, window_seconds, ("stage",), AccessLog())
        windows = windows_of(sorted(corpus, key=lambda rec: rec.trial_id), split.dev_subjects, window_seconds)
        assert len(windows) == per_trial * sum(rec.subject_id in split.dev_subjects for rec in corpus)
        assert rows.window_refs == tuple(w.window_ref for w in windows)
        assert rows.subject_ids == tuple(w.subject_id for w in windows)
        assert rows.labels == tuple(w.label for w in windows)
        assert rows.values.tobytes() == window_values(windows, spec.signals).tobytes()
        assert n_dev_windows == rows.values.shape[0] == len(windows)
        assert log.events == {(subject, evaluation.STAGE_CALIBRATION) for subject in split.dev_subjects}


class TestOnePath:
    """Recordings, like index entries, are reduced by `datasets.map_trials`: serially on one CPU, else in forked
    file workers."""

    @pytest.mark.parametrize("kind", ["threshold", "svm"])
    def test_recordings_serial_forked_and_from_the_index_agree(self, kind, corpus, tmp_path, monkeypatch):
        assert len(corpus) >= MIN_FORK_ITEMS  # enough recordings to fork without the patch below

        def run(trials):
            result = run_experiment(trials, DetectorSpec(kind), 5)
            return result.predictions, result.split, result.access_log.events

        trials = sorted(corpus, key=lambda rec: rec.trial_id)  # the order of the index that write_canonical writes
        serial, forked = serial_and_forked(monkeypatch, lambda _: run(trials))
        assert serial == forked
        write_canonical(trials, tmp_path)
        assert run(read_index(tmp_path)) == serial

    def test_the_first_recording_segment_refuses_is_raised(self, corpus, monkeypatch):
        split = split_subjects((rec.subject_id for rec in corpus), 5)
        dev = [i for i, rec in enumerate(corpus) if rec.subject_id in split.dev_subjects]
        trials = list(corpus)
        # forked over 3 shares, dev[1] is a child's and dev[3] the parent's: the parent meets its failure first
        for i in (dev[1], dev[3]):
            trials[i] = dataclasses.replace(trials[i], t=np.empty(0), acc=np.empty((0, 3)), gyr=np.empty((0, 3)))

        def error(_):
            with pytest.raises(ExperimentStageError) as err:
                run_experiment(trials, DetectorSpec("knn"), 5)
            return err.value.stage, str(err.value)

        serial, forked = serial_and_forked(monkeypatch, error)
        assert serial == forked == ("training", f"[training] recording {trials[dev[1]].trial_id!r} has no samples")


class TestDetectorSpec:
    def test_unknown_signal_is_refused_as_the_spec_is_built(self):
        with pytest.raises(DataError, match="'bogus'"):
            DetectorSpec(kind="threshold", signals=("bogus",))

    def test_empty_signal_list_is_refused_as_the_spec_is_built(self):
        with pytest.raises(DataError, match="^empty signal list$"):
            DetectorSpec(kind="threshold", signals=())

    def test_a_classifier_ignores_the_signal_list(self):
        assert DetectorSpec(kind="rf", signals=("bogus",)).signals == ("bogus",)


class TestRunExperiment:
    def test_threshold_on_synthetic_is_perfectly_sensitive(self, corpus):
        result = run_experiment(corpus, DetectorSpec(kind="threshold", signals=("smv_acc",)), seed=5)
        assert result.report.sensitivity == 100.0
        assert isinstance(result.detector, ThresholdConfig)

    def test_no_leakage(self, corpus):
        for spec in (DetectorSpec(kind="threshold"), DetectorSpec(kind="knn")):
            result = run_experiment(corpus, spec, seed=5)
            assert result.access_log.violations(result.split.eval_subjects) == []
            # every eval subject was actually read at prediction time
            predicted = {s for s, stage in result.access_log.events if stage == "prediction"}
            assert predicted == set(result.split.eval_subjects)

    def test_access_log_digest_is_stable(self, corpus):
        a = run_experiment(corpus, DetectorSpec(kind="threshold"), seed=5)
        b = run_experiment(corpus, DetectorSpec(kind="threshold"), seed=5)
        assert a.access_log.digest() == b.access_log.digest()
        # a row key and a log digest are sha256 over their input whether hashlib is first imported in a forked file
        # worker or in the process itself: the script forks before it hashes anything, then hashes serially
        script = (
            "import json\n"
            "from wristfall import datasets, evaluation\n"
            "from wristfall.core import Label, Source\n"
            "fields = dict(trial_id='T1', subject_id='S01', activity_code='F01', label=Label.FALL, sample_rate_hz=25,\n"
            "              source=Source.SYNTHETIC)\n"
            "def hashes(i):\n"
            "    log = evaluation.AccessLog()\n"
            "    log.record(f'S{i}', 'prediction')\n"
            "    return datasets._row_key(fields, b'%d' % i).decode(), log.digest()\n"
            "datasets.MIN_FORK_ITEMS = 2\n"
            "out = []\n"
            "for cpus in (2, 1):\n"
            "    datasets._usable_cpus = lambda: cpus\n"
            "    out.append(datasets._map_files(hashes, range(4)))\n"
            "print(json.dumps(out))\n"
        )
        done = fresh_python(script)
        assert done.returncode == 0, done.stderr
        identity = hashlib.sha256()
        for path in sorted(Path(evaluation.__file__).parent.glob("*.py")):
            identity.update(f"{path.name} {path.stat().st_size}\n".encode() + path.read_bytes())
        identity.update(f"numpy {np.__version__} window {DEFAULT_WINDOW_SECONDS!r}".encode())
        record = json.dumps(["T1", "S01", "F01", "Fall", 25.0, "Synthetic"]).encode() + b"\n"
        keys = [hashlib.sha256(identity.digest() + record + b"%d" % i).hexdigest() for i in range(4)]
        want = [[key, hashlib.sha256(f"S{i}\tprediction".encode()).hexdigest()] for i, key in enumerate(keys)]
        assert json.loads(done.stdout) == [want, want]

    def test_reports_byte_identical_across_runs(self, corpus):
        spec = DetectorSpec(kind="rf", params={"n_trees": 10})
        a = run_experiment(corpus, spec, seed=9, dataset_name="synthetic")
        b = run_experiment(corpus, spec, seed=9, dataset_name="synthetic")
        assert report_json(a.report) == report_json(b.report)
        assert [p for p in a.predictions] == [p for p in b.predictions]

    @pytest.mark.parametrize("kind", ["rf", "svm"])
    def test_a_permuted_list_of_recordings_gives_the_same_detector(self, corpus, kind, tmp_path):
        """The rows are taken in trial id order, so a fit does not depend on the order of the recordings."""
        spec = DetectorSpec(kind=kind, params={"n_trees": 10} if kind == "rf" else {})
        shuffled = [corpus[i] for i in np.random.default_rng(3).permutation(len(corpus))]
        results = [run_experiment(trials, spec, seed=9) for trials in (corpus, shuffled)]
        for result, name in zip(results, "ab"):
            save_model(result.detector, tmp_path / name)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        assert results[0].predictions == results[1].predictions

    def test_different_seed_changes_split(self, corpus):
        a = run_experiment(corpus, DetectorSpec(kind="threshold"), seed=1)
        b = run_experiment(corpus, DetectorSpec(kind="threshold"), seed=2)
        assert a.split != b.split

    def test_stage_labels_on_failure(self):
        trials = [t for t in synthesize(seed=4, n_subjects=4, trials_per_subject=6) if t.label is A]
        with pytest.raises(ExperimentStageError) as err:
            run_experiment(trials, DetectorSpec(kind="threshold"), seed=0)
        assert err.value.stage == "calibration"

        with pytest.raises(ExperimentStageError) as err:
            run_experiment(trials, DetectorSpec(kind="svm"), seed=0)
        assert err.value.stage == "training"

    def test_split_stage_error_for_single_subject(self):
        trials = [t for t in synthesize(seed=4, n_subjects=2, trials_per_subject=4) if t.subject_id == "S01"]
        with pytest.raises(ExperimentStageError) as err:
            run_experiment(trials, DetectorSpec(kind="threshold"), seed=0)
        assert err.value.stage == "split"

    def test_predictions_csv(self, corpus, tmp_path):
        result = run_experiment(corpus, DetectorSpec(kind="threshold"), seed=5)
        path = tmp_path / "predictions.csv"
        predictions_csv(result.predictions, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "window_ref,subject_id,actual,predicted,score"
        assert len(lines) == len(result.predictions) + 1

    def test_ml_views_match_window_counts(self, corpus):
        result = run_experiment(corpus, DetectorSpec(kind="knn", feature_view="acc44"), seed=5)
        eval_trials = [t for t in corpus if t.subject_id in result.split.eval_subjects]
        assert result.report.total == len(eval_trials)  # short trials: one window each


class TestClassify:
    @settings(max_examples=30, deadline=None)
    @given(
        thresholds=st.dictionaries(
            st.sampled_from(("smv_acc", "smv_gyr", "fi", "avd")),
            st.floats(min_value=0.05, max_value=400.0),
            min_size=1,
        ),
        index=st.integers(min_value=0, max_value=47),
    )
    def test_threshold_matches_detect_and_fall_score(self, corpus, thresholds, index):
        window = windows_of(corpus[:48], {t.subject_id for t in corpus}, 60.0)[index]
        config = ThresholdConfig(thresholds)
        derived = derive_all(window)
        assert classify_many(config, [window])[0] == (detect(window, derived, config)[0], fall_score(derived, config))

    @pytest.mark.parametrize(
        "spec",
        [
            DetectorSpec(kind="threshold", signals=("smv_acc", "fi", "avd")),
            DetectorSpec(kind="knn", feature_view="combined88"),
            DetectorSpec(kind="rf", feature_view="acc44", params={"n_trees": 15}),
            DetectorSpec(kind="svm", feature_view="gyr44"),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_classify_many_matches_one_window_at_a_time(self, corpus, spec):
        detector, split, _ = fit_on_dev(corpus, spec, 3, 60.0, AccessLog())
        windows = windows_of(corpus, split.eval_subjects, 5.0)  # many windows, of several lengths
        assert len({w.n_samples for w in windows}) > 1
        many = classify_many(detector, windows)
        assert many == [classify_many(detector, [w])[0] for w in windows]
        assert classify_many(detector, []) == []
