import contextlib
import csv
import gc
import io
import json
import os
import shutil
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fresh_python, make_recording
from test_datasets import (
    columns_manifest,
    interleaved_manifest,
    pool_manifest,
    serial_and_forked,
    write_columns_trial,
    write_interleaved_trial,
    write_pool_corpus,
)
from wristfall.cli import main
from wristfall import datasets, evaluation
from wristfall.core import SignalWindow, TrialRecording, segment, window_from_arrays
from wristfall.datasets import CANONICAL_HEADER, read_canonical, read_canonical_trial, save_manifest
from wristfall.errors import CanonicalFormatError
from wristfall.evaluation import (
    DetectorSpec,
    EvalReport,
    classify_many,
    report_json,
    run_experiment,
    split_subjects,
)
from wristfall.ml import save_model
from wristfall.signals import derive_all
from wristfall.synthetic import synthesize
from wristfall.threshold import load_threshold_config, save_threshold_config


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synthesize", "--seed", "11", "--subjects", "5", "--trials-per-subject", "12", "--out", str(out)]) == 0
    return out


def stdin_of(text):
    """A stdin that holds `text` as UTF-8 bytes, as a pipe does."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSynthesizeCommand:
    def test_writes_corpus_and_prints_counts(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["synthesize", "--seed", "3", "--subjects", "4", "--trials-per-subject", "6", "--out", str(out)]) == 0
        assert "24 trials (12 ADL / 12 fall), 4 subjects" in capsys.readouterr().out
        assert len(read_canonical(out)) == 24

    def test_idempotent(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synthesize", "--seed", "3", "--out", str(a)])
        main(["synthesize", "--seed", "3", "--out", str(b)])
        assert read_tree(a) == read_tree(b)


class TestIngestCommand:
    def make_raw(self, tmp_path, n_trials=4):
        raw = tmp_path / "raw"
        rng = np.random.default_rng(70)
        for i in range(n_trials):
            code = "A01" if i % 2 == 0 else "F01"
            acc = rng.normal(0, 1, (80, 3)) + np.array([0, 0, 9.80665])
            write_columns_trial(raw, f"sub{i % 2 + 1:02d}", code, i, acc, rng.normal(0, 0.5, (80, 3)))
        manifest_path = tmp_path / "manifest.json"
        save_manifest(columns_manifest(raw), manifest_path)
        return manifest_path

    def test_ingest_writes_canonical_and_report(self, tmp_path, capsys):
        manifest_path = self.make_raw(tmp_path)
        out = tmp_path / "canon"
        assert main(["ingest", "--manifest", str(manifest_path), "--out", str(out)]) == 0
        assert "4 trials (2 ADL / 2 fall), 2 subjects" in capsys.readouterr().out
        assert len(read_canonical(out)) == 4
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["n_trials"] == 4
        assert report["skipped"] == []

    def test_each_recording_is_checked_once(self, tmp_path):
        """map_raw_trials checks each recording; staging its trial file and stored rows does not check it again."""
        manifest_path = self.make_raw(tmp_path)
        checked = []
        real = TrialRecording.validate

        def counting(rec):
            checked.append(rec.trial_id)
            return real(rec)

        with mock.patch.object(TrialRecording, "validate", counting):
            assert main(["ingest", "--manifest", str(manifest_path), "--out", str(tmp_path / "canon")]) == 0
        assert sorted(checked) == ["sub01_A01_0", "sub01_A01_2", "sub02_F01_1", "sub02_F01_3"]
        assert len(datasets.read_index(tmp_path / "canon")[0].stored) == 4  # every trial's rows are stored

    def test_rerun_is_byte_identical(self, tmp_path):
        manifest_path = self.make_raw(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["ingest", "--manifest", str(manifest_path), "--out", str(a)])
        main(["ingest", "--manifest", str(manifest_path), "--out", str(b)])
        assert read_tree(a) == read_tree(b)

    def test_missing_root_fails_without_partial_output(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        save_manifest(columns_manifest(tmp_path / "missing"), manifest_path)
        out = tmp_path / "canon"
        assert main(["ingest", "--manifest", str(manifest_path), "--out", str(out)]) == 3
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expected,mismatches",
        [
            ({"participants": 2, "adl_trials": 2, "fall_trials": 2}, None),
            ({"participants": 3, "fall_trials": 1}, "participants 2 != 3; fall trials 2 != 1"),
            ({"adl_trials": 5}, "ADL trials 2 != 5"),
        ],
        ids=["all-match", "two-differ", "adl-differs"],
    )
    def test_expected_counts_warn_when_they_differ(self, expected, mismatches, tmp_path, capsys):
        manifest_path = self.make_raw(tmp_path)
        doc = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**doc, "expected": expected}))
        assert main(["ingest", "--manifest", str(manifest_path), "--out", str(tmp_path / "canon")]) == 0
        warning = f"warning: corpus does not match manifest expectations: {mismatches}\n" if mismatches else ""
        assert capsys.readouterr().err == warning

    def test_manifest_dir_env(self, tmp_path, monkeypatch, capsys):
        manifest_path = self.make_raw(tmp_path)
        monkeypatch.setenv("WRISTFALL_MANIFEST_DIR", str(manifest_path.parent))
        out = tmp_path / "canon"
        assert main(["ingest", "--manifest", "manifest", "--out", str(out)]) == 0

    @staticmethod
    def make_pool(tmp_path):
        """write_pool_corpus's 39 raw files, at least MIN_FORK_ITEMS; returns its manifest."""
        write_pool_corpus(tmp_path / "raw")
        manifest_path = tmp_path / "manifest.json"
        save_manifest(pool_manifest(tmp_path / "raw"), manifest_path)
        return manifest_path

    @pytest.mark.parametrize("forked", [False, True], ids=["below-the-fork-minimum", "forked"])
    def test_no_recording_is_alive_when_the_index_is_written(self, forked, tmp_path, monkeypatch):
        """The file workers write each trial and hand back its index fields: the command holds no samples."""
        manifest_path = self.make_pool(tmp_path) if forked else self.make_raw(tmp_path)
        n_files = sum(1 for p in (tmp_path / "raw").rglob("*") if p.is_file())
        assert (n_files >= datasets.MIN_FORK_ITEMS) == forked
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: 2)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())

        def alive():
            gc.collect()
            return sum(isinstance(obj, TrialRecording) and isinstance(obj.t, np.ndarray) for obj in gc.get_objects())

        real_write_index = datasets._write_index
        at_write = []

        def write_index(out_dir, ordered):
            at_write.append(alive())
            return real_write_index(out_dir, ordered)

        monkeypatch.setattr(datasets, "_write_index", write_index)
        before = alive()
        assert main(["ingest", "--manifest", str(manifest_path), "--out", str(tmp_path / "canon")]) == 0
        assert at_write == [before]
        assert bool(forks) == forked
        names = sorted(p.name for p in (tmp_path / "canon").iterdir())
        assert names == ["index.jsonl", "ingest_report.json", "rows.npy", "trials"]

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh-out", "out-holds-a-corpus"])
    def test_a_failed_ingest_leaves_out_as_it_found_it(self, existing, tmp_path, monkeypatch, capsys):
        """A raw file that cannot be read stops ingest after the workers have staged other trials, serially or
        forked: a fresh --out (and the parent made for it) is gone, and a corpus already there keeps its bytes."""
        manifest_path = self.make_pool(tmp_path)
        (tmp_path / "raw/sub08/A01/trial_1/wrist.txt").mkdir(parents=True)  # not a duplicate: IsADirectoryError
        out = tmp_path / "made" / "corpus"
        if existing:
            out = tmp_path / "corpus"
            assert main(["synthesize", "--subjects", "3", "--trials-per-subject", "4", "--out", str(out)]) == 0
            capsys.readouterr()
        before = (sorted(out.rglob("*")), read_tree(out)) if existing else None

        def run(tag):
            code = main(["ingest", "--manifest", str(manifest_path), "--out", str(out)])
            captured = capsys.readouterr()
            after = (sorted(out.rglob("*")), read_tree(out)) if out.exists() else None
            return code, captured.out, captured.err, after, (tmp_path / "made").exists()

        serial, forked = serial_and_forked(monkeypatch, run)
        assert serial == forked
        code, printed, err, after, made = forked
        assert (code, printed) == (3, "") and "Is a directory" in err and "sub08/A01/trial_1/wrist.txt" in err
        assert after == before and not made


class TestCalibrateAndTrain:
    def test_calibrate_writes_config(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "thresholds.txt"
        code = main(
            ["calibrate", "--corpus", str(corpus_dir), "--signals", "smv_acc,fi", "--seed", "2", "--out", str(cfg)]
        )
        assert code == 0
        config = load_threshold_config(cfg)
        assert set(config.thresholds) == {"smv_acc", "fi"}
        assert "calibrated on" in capsys.readouterr().out

    def test_train_writes_model(self, corpus_dir, tmp_path):
        model_path = tmp_path / "model.json"
        code = main(
            ["train", "--corpus", str(corpus_dir), "--kind", "knn", "--view", "acc44", "--seed", "2", "--out", str(model_path)]
        )
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["kind"] == "knn"
        assert doc["feature_view"] == "acc44"

    def test_bad_signal_name(self, corpus_dir, tmp_path):
        assert main(["calibrate", "--corpus", str(corpus_dir), "--signals", "bogus", "--out", str(tmp_path / "c")]) == 3

    def test_repeated_signal_name(self, corpus_dir, tmp_path, capsys):
        """A signal listed twice would vote once, so the tie rule would apply to fewer votes than were listed."""
        argv = ["calibrate", "--corpus", str(corpus_dir), "--signals", "fi,fi,smv_acc", "--out", str(tmp_path / "c")]
        assert main(argv) == 3
        assert "'fi'" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("kind,view,seed", [("rf", "combined88", 3), ("svm", "acc44", 5), ("knn", "gyr44", 7)])
    def test_train_matches_run_experiment_model(self, corpus_dir, tmp_path, kind, view, seed):
        cli_path, lib_path = tmp_path / "cli.json", tmp_path / "lib.json"
        args = ["train", "--corpus", str(corpus_dir), "--kind", kind, "--view", view, "--seed", str(seed)]
        assert main([*args, "--out", str(cli_path)]) == 0
        result = run_experiment(read_canonical(corpus_dir), DetectorSpec(kind, feature_view=view), seed)
        save_model(result.detector, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()

    def test_calibrate_matches_run_experiment_config(self, corpus_dir, tmp_path):
        cli_path, lib_path = tmp_path / "cli.txt", tmp_path / "lib.txt"
        args = ["calibrate", "--corpus", str(corpus_dir), "--signals", "smv_acc,smv_gyr,avd", "--seed", "6"]
        assert main([*args, "--out", str(cli_path)]) == 0
        spec = DetectorSpec("threshold", signals=("smv_acc", "smv_gyr", "avd"))
        save_threshold_config(run_experiment(read_canonical(corpus_dir), spec, 6).detector, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()

    def test_a_declared_rate_moves_no_threshold_and_no_verdict(self, tmp_path, capsys):
        """25 Hz rows declared at 21 Hz, as `validate` allows: AVD's one-second mean spans the rows' 25 samples, so
        the threshold file and every prediction are those of the corpus declared at 25 Hz."""
        outputs = []
        for rate in (25.0, 21.0):
            corpus, cfg, ev = tmp_path / f"corpus-{rate}", tmp_path / f"avd-{rate}.txt", tmp_path / f"ev-{rate}"
            assert main(["synthesize", "--subjects", "3", "--trials-per-subject", "12", "--out", str(corpus)]) == 0
            index = corpus / "index.jsonl"
            index.write_text(index.read_text().replace('"sample_rate_hz": 25.0', f'"sample_rate_hz": {rate}'))
            for rec in read_canonical(corpus):
                assert rec.sample_rate_hz == rate
                rec.validate()
            assert main(["calibrate", "--corpus", str(corpus), "--signals", "avd", "--out", str(cfg)]) == 0
            args = ["--detector", "threshold", "--signals", "avd", "--predictions", "--out", str(ev)]
            assert main(["evaluate", "--corpus", str(corpus), *args]) == 0
            outputs.append((cfg.read_text(), (ev / "predictions.csv").read_text()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["calibrate", "train"])
    @pytest.mark.parametrize("out", ["missing/out.file", ""], ids=["parent-missing", "a-directory"])
    def test_unwritable_out_is_found_before_the_corpus_is_read(self, command, out, tmp_path, monkeypatch, capsys):
        def read_index(corpus_dir):
            pytest.fail("the corpus was read before --out was checked")

        monkeypatch.setattr("wristfall.cli.read_index", read_index)
        out = str(tmp_path / out)
        kind = ["--kind", "knn"] if command == "train" else []
        assert main([command, "--corpus", str(tmp_path), *kind, "--out", out]) == 3
        assert out in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,named",
        [
            (["evaluate", "--detector", "rf", "--out", "afile"], "afile"),
            (["evaluate", "--detector", "rf", "--out", "afile/report"], "afile/report"),
            (["evaluate", "--detector", "rf", "--params", "{bad", "--out", "report"], "--params"),
            (["evaluate", "--detector", "threshold", "--signals", "smv", "--out", "report"], "'smv'"),
            (["evaluate", "--detector", "threshold", "--params", '{"grids": {}}', "--out", "report"], "'grids'"),
            # a classifier's hyperparameters are checked as its spec is built, by the check `train` runs
            (["evaluate", "--detector", "knn", "--params", '{"k": -1}', "--out", "report"], "hyperparameter k "),
            (["evaluate", "--detector", "rf", "--params", '{"n_trees": 0}', "--out", "report"], "n_trees"),
            (["evaluate", "--detector", "svm", "--params", '{"bogus": 1}', "--out", "report"], "'bogus'"),
            (["train", "--kind", "knn", "--params", '{"k": -1}', "--out", "report"], "hyperparameter k "),
            (["train", "--kind", "rf", "--params", '{"n_trees": 0}', "--out", "report"], "n_trees"),
            (["train", "--kind", "rf", "--params", '{"bogus": 1}', "--out", "report"], "'bogus'"),
        ],
        ids=["out-a-file", "out-under-a-file", "params-not-json", "unknown-signal", "threshold-grids",
             "evaluate-knn-k", "evaluate-rf-n_trees", "evaluate-unknown-name", "train-knn-k", "train-rf-n_trees",
             "train-unknown-name"],
    )
    def test_evaluate_checks_its_arguments_before_the_corpus_is_read(self, args, named, tmp_path, monkeypatch, capsys):
        def read_index(corpus_dir):
            pytest.fail("the corpus was read before the arguments were checked")

        monkeypatch.setattr("wristfall.cli.read_index", read_index)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        assert main([args[0], "--corpus", "corpus", *args[1:]]) == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/corpus"], ids=["a-file", "under-a-file"])
    def test_ingest_checks_out_before_the_manifest_is_read(self, out, tmp_path, monkeypatch, capsys):
        def load_manifest(path):
            pytest.fail("the manifest was read before --out was checked")

        monkeypatch.setattr("wristfall.cli.load_manifest", load_manifest)
        (tmp_path / "manifest.json").write_bytes(manifest_file())
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / out)
        assert main(["ingest", "--manifest", str(tmp_path / "manifest.json"), "--out", out]) == 3
        captured = capsys.readouterr()
        assert out in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args,out,rule",
        [
            (["synthesize"], "afile", "must be a directory or a path where one can be made"),
            (["synthesize"], "afile/corpus", "must be a directory or a path where one can be made"),
            (["export-plots", "--reports", "."], "adir", "must be a file path in an existing directory"),
            (["export-plots", "--reports", "."], "missing/x.csv", "must be a file path in an existing directory"),
        ],
        ids=["synthesize-a-file", "synthesize-under-a-file", "export-plots-a-directory", "export-plots-parent-missing"],
    )
    def test_synthesize_and_export_plots_check_out_first(self, args, out, rule, tmp_path, monkeypatch, capsys):
        """--out is refused with the message the other commands give, before any trial is made or input read."""

        def synthesize(*args, **kwargs):
            pytest.fail("trials were generated before --out was checked")

        monkeypatch.setattr("wristfall.cli.synthesize", synthesize)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main([*args, "--out", out]) == 3
        assert capsys.readouterr() == ("", f"error: --out {out} {rule}\n")
        assert sorted(tmp_path.rglob("*")) == before


class TestEvaluateCommand:
    def test_threshold_report(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate", "--corpus", str(corpus_dir), "--detector", "threshold",
                "--signals", "smv_acc", "--seed", "4", "--out", str(out), "--predictions",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "accuracy=" in printed and "SE=" in printed and "SP=" in printed
        report = json.loads((out / "report.json").read_text())
        assert report["sensitivity_pct"] == 100.0
        assert (out / "report.txt").exists()
        assert (out / "predictions.csv").exists()

    def test_ml_report_and_determinism(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["evaluate", "--corpus", str(corpus_dir), "--detector", "rf", "--params", '{"n_trees": 10}', "--seed", "4"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "command", [["evaluate", "--detector", "knn"], ["train", "--kind", "knn"]], ids=["evaluate", "train"]
    )
    def test_undecodable_byte_in_trial_file_is_a_data_error(self, command, corpus_dir, tmp_path, capsys):
        trial_csv = sorted(corpus_dir.glob("trials/*.csv"))[0]
        lines = trial_csv.read_bytes().split(b"\n")
        lines[5] = lines[5].replace(b",", b",\xff", 1)
        trial_csv.write_bytes(b"\n".join(lines))
        assert main([*command, "--corpus", str(corpus_dir), "--out", str(tmp_path / "o")]) == 3
        assert f"{trial_csv}:6: non-numeric field" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "corpus-name"])
    def test_control_character_in_dataset_name_is_escaped_in_report_txt(self, via, corpus_dir, tmp_path):
        """The report.txt header stays one line; report.json keeps the name as it is."""
        if via == "flag":
            corpus, name_flag = corpus_dir, ["--dataset-name", "two\nlines\x1b"]
        else:
            corpus, name_flag = corpus_dir.rename(tmp_path / "two\nlines\x1b"), []
        out = tmp_path / "ev"
        argv = ["evaluate", "--corpus", str(corpus), "--detector", "threshold", *name_flag, "--out", str(out)]
        assert main(argv) == 0
        lines = (out / "report.txt").read_text().split("\n")
        assert len(lines) == 5 and lines[0].endswith("[two\\nlines\\x1b]") and lines[4] == ""
        assert json.loads((out / "report.json").read_text())["dataset"] == "two\nlines\x1b"

    def test_missing_corpus(self, tmp_path):
        assert main(["evaluate", "--corpus", str(tmp_path / "nope"), "--detector", "threshold", "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "command",
        [["calibrate"], ["train", "--kind", "svm"], ["evaluate", "--detector", "svm"]],
        ids=["calibrate", "train", "evaluate"],
    )
    def test_unexpected_error_is_internal(self, command, corpus_dir, tmp_path, monkeypatch, capsys):
        """Only a data error gets a stage label and exit 3; a bug is exit 4 in every command."""

        def boom(spec, dev_rows, seed):
            raise RuntimeError("boom")

        monkeypatch.setattr("wristfall.evaluation.fit_detector", boom)
        assert main([command[0], "--corpus", str(corpus_dir), *command[1:], "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == "internal error: boom\n"


@pytest.fixture(scope="module")
def order_corpus(tmp_path_factory):
    """A small synthetic corpus and, per detector kind, the outputs `fitted_outputs` gives on it."""
    corpus = tmp_path_factory.mktemp("in-order") / "corpus"
    assert main(["synthesize", "--seed", "8", "--subjects", "4", "--trials-per-subject", "6", "--out", str(corpus)]) == 0
    return corpus, {}


def fitted_outputs(kind, corpus, out):
    """The bytes of the file `calibrate` or `train` writes for `kind` on `corpus`, and of `evaluate`'s outputs."""
    out.mkdir(exist_ok=True)
    args = ["--corpus", str(corpus), "--seed", "3"]
    fit = ["calibrate"] if kind == "threshold" else ["train", "--kind", kind]
    assert main([*fit, *args, "--out", str(out / "fitted")]) == 0
    assert main(["evaluate", *args, "--detector", kind, "--predictions", "--out", str(out / "evaluate")]) == 0
    return read_tree(out)


class TestIndexOrder:
    @pytest.mark.parametrize("kind", ["threshold", "knn", "rf", "svm"])
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_a_permuted_index_gives_the_same_bytes(self, kind, order_corpus, data, tmp_path_factory):
        """A detector is fitted on its development windows, whatever the order of the index lines."""
        corpus, want = order_corpus
        if kind not in want:
            want[kind] = fitted_outputs(kind, corpus, tmp_path_factory.mktemp(kind))
        lines = (corpus / "index.jsonl").read_text().splitlines(keepends=True)
        order = data.draw(st.permutations(range(len(lines))), label="order")
        permuted = tmp_path_factory.mktemp("permuted") / "corpus"
        shutil.copytree(corpus, permuted)
        (permuted / "index.jsonl").write_text("".join(lines[i] for i in order))
        assert fitted_outputs(kind, permuted, permuted.parent / "out") == want[kind]


def edit_index_entry(corpus, **changes):
    """Change the first entry of the corpus's index.jsonl."""
    path = corpus / "index.jsonl"
    first, rest = path.read_text().split("\n", 1)
    path.write_text(json.dumps({**json.loads(first), **changes}) + "\n" + rest)


def keep_index_entries(corpus, keep):
    path = corpus / "index.jsonl"
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines() if keep(json.loads(line))))


def dev_trial(corpus):
    """The index line (counted from 0) and the trial file of the first development subject's first trial (seed 0)."""
    entries = [json.loads(line) for line in (corpus / "index.jsonl").read_text().splitlines()]
    dev_subject = split_subjects([e["subject_id"] for e in entries], 0).dev_subjects[0]
    i = next(i for i, e in enumerate(entries) if e["subject_id"] == dev_subject)
    return i, corpus / entries[i]["path"]


def cut_dev_trial(corpus, n_rows):
    """Cut `dev_trial`'s file to its header and its first `n_rows` rows; returns the file."""
    _, path = dev_trial(corpus)
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines()[: 1 + n_rows]))
    return path


def declare_dev_trial_rate(corpus, rate):
    """Declare `rate` Hz in `dev_trial`'s index entry, for rows sampled at 25 Hz; returns the trial file."""
    i, path = dev_trial(corpus)
    index = corpus / "index.jsonl"
    lines = index.read_text().splitlines()
    lines[i] = json.dumps({**json.loads(lines[i]), "sample_rate_hz": rate})
    index.write_text("".join(line + "\n" for line in lines))
    return path


def huge_dev_fall_row(corpus):
    """Put 1e200 on each accelerometer axis of one row of a development fall trial (at seed 0)."""
    entries = [json.loads(line) for line in (corpus / "index.jsonl").read_text().splitlines()]
    dev_subjects = split_subjects([e["subject_id"] for e in entries], 0).dev_subjects
    path = corpus / next(e["path"] for e in entries if e["subject_id"] in dev_subjects and e["label"] == "Fall")
    lines = path.read_text().split("\n")
    lines[20] = lines[20].split(",")[0] + ",1e200,1e200,1e200,0.0,0.0,0.0"
    path.write_text("\n".join(lines))


class TestFitFaults:
    """A corpus fault is exit 3 with one `error:` line, the same from the command that fits and from evaluate."""

    # fault -> (how to make it, stage label for threshold, for svm; None: named by the file at fault, which the
    # maker returns, or else by the index line it edits)
    FAULTS = {
        "subject_id-int": (lambda c: edit_index_entry(c, subject_id=5), None, None),
        "sample_rate_hz-nan": (lambda c: edit_index_entry(c, sample_rate_hz=float("nan")), None, None),
        # a trial file is checked as it is read, as ingest checks a raw file
        "header-only-trial": (lambda c: cut_dev_trial(c, 0), None, None),
        "one-row-trial": (lambda c: cut_dev_trial(c, 1), None, None),
        "rate-15-declared-for-25": (lambda c: declare_dev_trial_rate(c, 15.0), None, None),
        "one-subject": (lambda c: keep_index_entries(c, lambda e: e["subject_id"] == "S01"), "split", "split"),
        "one-class": (lambda c: keep_index_entries(c, lambda e: e["label"] == "ADL"), "calibration", "training"),
        "huge-dev-fall-row": (huge_dev_fall_row, "calibration", "training"),
    }
    PAIRS = {
        "threshold": (["calibrate"], ["evaluate", "--detector", "threshold"]),
        "svm": (["train", "--kind", "svm"], ["evaluate", "--detector", "svm"]),
    }

    @pytest.mark.parametrize("pair", list(PAIRS))
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_same_error_from_fit_and_evaluate(self, fault, pair, corpus_dir, tmp_path, capsys):
        make, threshold_label, svm_label = self.FAULTS[fault]
        named = make(corpus_dir) or "index.jsonl:1"
        lines = []
        for command in self.PAIRS[pair]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command[0], "--corpus", str(corpus_dir), *command[1:], "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == 3, err
            assert [str(w.message) for w in caught] == []
            lines.append(err.splitlines())
        fit_lines, evaluate_lines = lines
        assert len(fit_lines) == 1 and fit_lines[0].startswith("error: ")
        assert evaluate_lines == fit_lines
        label = threshold_label if pair == "threshold" else svm_label
        if label is None:
            assert f"{named}: " in fit_lines[0] and not fit_lines[0].startswith("error: [")
        else:
            assert fit_lines[0].startswith(f"error: [{label}] ")

    SPREAD_ERROR = "error: [training] feature gyr_y_var: its mean or spread over the training windows is not finite\n"

    @pytest.mark.parametrize(
        "command,expected",
        [
            (["train", "--kind", "knn"], (3, SPREAD_ERROR)),
            (["train", "--kind", "rf"], (3, SPREAD_ERROR)),
            (["train", "--kind", "svm"], (3, SPREAD_ERROR)),
            (["evaluate", "--detector", "svm"], (3, SPREAD_ERROR)),
            (["calibrate"], (0, "")),  # no voted signal reads the gyroscope
        ],
        ids=["train-knn", "train-rf", "train-svm", "evaluate-svm", "calibrate"],
    )
    def test_feature_spread_that_overflows_names_the_feature(self, command, expected, tmp_path, capsys):
        """Every feature is finite, but the spread of gyr_y_var over the training windows overflows: no warning."""
        corpus = tmp_path / "c"
        assert main(["synthesize", "--seed", "4", "--subjects", "4", "--trials-per-subject", "6", "--out", str(corpus)]) == 0
        path = corpus / "trials" / "S04_SYN_FALL_003.csv"
        lines = path.read_text().split("\n")
        lines[151] = "6.0,0.0,0.0,1.0,0.0,1e150,0.0"
        path.write_text("\n".join(lines))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command[0], "--corpus", str(corpus), *command[1:], "--seed", "3", "--out", str(tmp_path / "o")])
        assert (code, capsys.readouterr().err) == expected


class TestSubjectScopedReads:
    """calibrate and train open only the development subjects' trial files; evaluate opens the others after fitting."""

    FIT_COMMANDS = {"calibrate": ["calibrate"], "train": ["train", "--kind", "rf", "--params", '{"n_trees": 5}']}

    @staticmethod
    def corrupt_evaluation_trial(corpus):
        """Make line 6 of an evaluation subject's trial file (at seed 0) non-numeric; returns that file."""
        entries = [json.loads(line) for line in (corpus / "index.jsonl").read_text().splitlines()]
        eval_subjects = split_subjects([e["subject_id"] for e in entries], 0).eval_subjects
        path = corpus / next(e["path"] for e in entries if e["subject_id"] in eval_subjects)
        lines = path.read_text().split("\n")
        lines[5] = lines[5].replace(",", ",x", 1)
        path.write_text("\n".join(lines))
        return path

    @pytest.mark.parametrize("command", list(FIT_COMMANDS))
    def test_fit_writes_the_same_bytes_with_an_evaluation_trial_corrupt(self, command, corpus_dir, tmp_path):
        argv = [*self.FIT_COMMANDS[command], "--corpus", str(corpus_dir)]
        assert main([*argv, "--out", str(tmp_path / "clean")]) == 0
        self.corrupt_evaluation_trial(corpus_dir)
        assert main([*argv, "--out", str(tmp_path / "corrupt")]) == 0
        assert (tmp_path / "corrupt").read_bytes() == (tmp_path / "clean").read_bytes()

    def test_evaluate_reports_the_corrupt_evaluation_trial(self, corpus_dir, tmp_path, capsys):
        path = self.corrupt_evaluation_trial(corpus_dir)
        assert main(["evaluate", "--corpus", str(corpus_dir), "--detector", "knn", "--out", str(tmp_path / "ev")]) == 3
        assert capsys.readouterr().err == f"error: {path}:6: non-numeric field\n"

    @pytest.mark.parametrize(
        "command", [["calibrate"], ["train", "--kind", "knn"], ["evaluate", "--detector", "knn"]],
        ids=["calibrate", "train", "evaluate"],
    )
    def test_no_recording_or_window_is_alive_at_fit_time(self, command, corpus_dir, tmp_path, monkeypatch):
        """The file workers hand back window rows: the parent holds no samples when it fits."""

        def alive():
            gc.collect()
            return sum(isinstance(obj, (TrialRecording, SignalWindow)) for obj in gc.get_objects())

        real_fit = evaluation.fit_detector
        at_fit = []

        def fit(spec, dev_rows, seed):
            at_fit.append(alive())
            return real_fit(spec, dev_rows, seed)

        monkeypatch.setattr(evaluation, "fit_detector", fit)
        before = alive()
        assert main([command[0], "--corpus", str(corpus_dir), *command[1:], "--out", str(tmp_path / "o")]) == 0
        assert at_fit == [before]


@pytest.fixture(scope="module")
def vote_config(tmp_path_factory):
    """A threshold file that votes on all three signals; AVD's peak passes 10 g on a large spike only, so its vote
    varies and a change of the window's rate can flip it."""
    path = tmp_path_factory.mktemp("vote") / "thresholds.txt"
    path.write_text("smv_acc = 3.15\nfi = 5.0\navd = 10.0\n")
    return path


class TestDetectStream:
    def stream_text(self, trials):
        lines = ["t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z"]
        t_base = 0.0
        for rec in trials:
            for i in range(rec.n_samples):
                vals = [t_base + rec.t[i], *rec.acc[i], *rec.gyr[i]]
                lines.append(",".join(repr(float(v)) for v in vals))
            t_base += rec.t[-1] + 1.0 / rec.sample_rate_hz
        return "\n".join(lines) + "\n"

    @pytest.fixture()
    def threshold_config_path(self, corpus_dir, tmp_path):
        cfg = tmp_path / "thresholds.txt"
        main(["calibrate", "--corpus", str(corpus_dir), "--signals", "smv_acc", "--seed", "2", "--out", str(cfg)])
        return cfg

    def run_stream(self, args, text, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_fall_trial_emits_fall_event(self, threshold_config_path, monkeypatch, capsys):
        trials = [t for t in synthesize(seed=55, n_subjects=2, trials_per_subject=4) if t.label.value == "Fall"]
        text = self.stream_text(trials[:2])
        code, out, _ = self.run_stream(
            ["detect-stream", "--threshold-config", str(threshold_config_path)], text, monkeypatch, capsys
        )
        assert code == 0
        labels = [line.split(",")[1] for line in out.strip().splitlines()]
        assert "Fall" in labels

    def test_all_zero_stream_is_all_adl(self, threshold_config_path, monkeypatch, capsys):
        rows = ["t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z"]
        rows += [f"{i * 0.04!r},0.0,0.0,0.0,0.0,0.0,0.0" for i in range(500)]
        code, out, _ = self.run_stream(
            ["detect-stream", "--threshold-config", str(threshold_config_path)], "\n".join(rows) + "\n", monkeypatch, capsys
        )
        assert code == 0
        events = out.strip().splitlines()
        assert events
        assert all(line.split(",")[1] == "ADL" for line in events)

    def test_replay_identical(self, threshold_config_path, monkeypatch, capsys):
        trials = synthesize(seed=56, n_subjects=2, trials_per_subject=4)
        text = self.stream_text(trials[:3])
        args = ["detect-stream", "--threshold-config", str(threshold_config_path), "--window-seconds", "10"]
        _, out1, _ = self.run_stream(args, text, monkeypatch, capsys)
        _, out2, _ = self.run_stream(args, text, monkeypatch, capsys)
        assert out1 == out2
        assert len(out1.strip().splitlines()) >= 2

    def test_malformed_rows_skipped_with_warning(self, threshold_config_path, monkeypatch, capsys):
        rows = ["t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z"]
        rows += [f"{i * 0.04!r},0,0,1,0,0,0" for i in range(300)]
        rows.insert(50, "garbage,row")
        code, out, err = self.run_stream(
            ["detect-stream", "--threshold-config", str(threshold_config_path)], "\n".join(rows) + "\n", monkeypatch, capsys
        )
        assert code == 0
        assert "warning" in err
        assert out.strip()

    def test_model_stream(self, corpus_dir, tmp_path, monkeypatch, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--corpus", str(corpus_dir), "--kind", "svm", "--seed", "2", "--out", str(model_path)])
        trials = synthesize(seed=57, n_subjects=2, trials_per_subject=4)
        code, out, _ = self.run_stream(["detect-stream", "--model", str(model_path)], self.stream_text(trials[:2]), monkeypatch, capsys)
        assert code == 0
        assert out.strip()

    def test_an_svm_margin_that_overflows_is_a_data_error_without_a_warning(self, tmp_path, monkeypatch, capsys):
        """Weights near 1e304 (lam 1e-307) times the features of a wild stream overflow: exit 3, not an ADL on nan."""
        corpus, model = tmp_path / "c", tmp_path / "svm.json"
        assert main(["synthesize", "--subjects", "3", "--trials-per-subject", "12", "--out", str(corpus)]) == 0
        assert main(["train", "--corpus", str(corpus), "--kind", "svm", "--params", '{"lam": 1e-307}', "--out", str(model)]) == 0
        capsys.readouterr()
        rows = [f"{i / 25!r},{300 if i % 2 else -300},0,1,0,0,{500 if i % 2 else -500}" for i in range(100)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = self.run_stream(["detect-stream", "--model", str(model)], "\n".join(rows) + "\n", monkeypatch, capsys)
        assert result == (3, "", "error: svm margin is not finite: the feature row is too large for the weights\n")

    def test_requires_exactly_one_detector(self, monkeypatch, capsys):
        code, _, err = self.run_stream(["detect-stream"], "", monkeypatch, capsys)
        assert code == 3
        assert "exactly one" in err

    def assert_bad_row_skipped(self, args, bad_row, at, monkeypatch, capsys):
        """Inserting `bad_row` before line `at + 1` warns about it and changes no verdict."""
        trials = [t for t in synthesize(seed=55, n_subjects=2, trials_per_subject=4) if t.label.value == "Fall"]
        rows = self.stream_text(trials[:2]).splitlines()
        capsys.readouterr()
        _, expected, _ = self.run_stream(args, "\n".join(rows) + "\n", monkeypatch, capsys)
        dirty = "\n".join(rows[:at] + [bad_row(rows[at - 1], rows[at])] + rows[at:]) + "\n"
        code, out, err = self.run_stream(args, dirty, monkeypatch, capsys)
        assert code == 0
        assert f"warning: line {at + 1} skipped" in err
        assert out == expected
        assert len(expected.splitlines()) >= 2
        return err

    @staticmethod
    def nan_row(prev, nxt):
        t = (float(prev.split(",")[0]) + float(nxt.split(",")[0])) / 2
        return f"{t!r},nan,0.0,1.0,0.0,0.0,0.0"

    @staticmethod
    def repeated_t_spike_row(prev, nxt):
        return prev.split(",")[0] + ",9.0,9.0,9.0,0.0,0.0,0.0"

    @staticmethod
    def non_numeric_row(prev, nxt):
        t = (float(prev.split(",")[0]) + float(nxt.split(",")[0])) / 2
        return f"{t!r},0.0,x,1.0,0.0,0.0,0.0"

    @pytest.mark.parametrize(
        "bad_row",
        [
            lambda prev, nxt: "1.0,2.0,3.0",
            non_numeric_row,
            nan_row,
            repeated_t_spike_row,
            lambda prev, nxt: "t,junk",
        ],
        ids=["field-count", "non-numeric", "nan", "repeated-t", "t-prefixed-junk"],
    )
    def test_stream_and_corpus_reader_reject_the_same_rows(
        self, bad_row, threshold_config_path, tmp_path, monkeypatch, capsys
    ):
        at = 120
        trials = [t for t in synthesize(seed=55, n_subjects=2, trials_per_subject=4) if t.label.value == "Fall"]
        rows = self.stream_text(trials[:2]).splitlines()
        trial_csv = tmp_path / "dirty.csv"
        trial_csv.write_text("\n".join(rows[:at] + [bad_row(rows[at - 1], rows[at])] + rows[at:]) + "\n")
        with pytest.raises(CanonicalFormatError) as err:
            read_canonical_trial(trial_csv)
        assert err.value.line_no == at + 1
        args = ["detect-stream", "--threshold-config", str(threshold_config_path), "--window-seconds", "10"]
        err_text = self.assert_bad_row_skipped(args, bad_row, at, monkeypatch, capsys)
        assert f"warning: line {at + 1} skipped ({err.value.reason})" in err_text

    def test_non_finite_row_skipped_with_model(self, corpus_dir, tmp_path, monkeypatch, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--corpus", str(corpus_dir), "--kind", "svm", "--seed", "2", "--out", str(model_path)])
        args = ["detect-stream", "--model", str(model_path), "--window-seconds", "10"]
        self.assert_bad_row_skipped(args, self.nan_row, 120, monkeypatch, capsys)

    def test_non_finite_row_skipped_with_threshold_config(self, corpus_dir, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "thresholds.txt"
        main(["calibrate", "--corpus", str(corpus_dir), "--seed", "2", "--out", str(cfg)])
        args = ["detect-stream", "--threshold-config", str(cfg), "--window-seconds", "10"]
        self.assert_bad_row_skipped(args, self.nan_row, 120, monkeypatch, capsys)

    def test_repeated_timestamp_row_skipped(self, threshold_config_path, monkeypatch, capsys):
        args = ["detect-stream", "--threshold-config", str(threshold_config_path), "--window-seconds", "10"]
        self.assert_bad_row_skipped(args, self.repeated_t_spike_row, 120, monkeypatch, capsys)

    @pytest.mark.parametrize("flag", ["--model", "--threshold-config"])
    def test_huge_finite_row_is_a_data_error(self, flag, corpus_dir, threshold_config_path, tmp_path, monkeypatch, capsys):
        """A finite row whose derived signals overflow stops the stream with exit 3, never exit 4 or a silent vote."""
        path = threshold_config_path
        if flag == "--model":
            path = tmp_path / "model.json"
            main(["train", "--corpus", str(corpus_dir), "--kind", "svm", "--seed", "2", "--out", str(path)])
        rows = [f"{i * 0.04!r},0.0,0.0,1.0,0,0,0" for i in range(200)]
        rows.insert(50, "1.965,1e308,1e308,1e308,0,0,0")
        code, _, err = self.run_stream(["detect-stream", flag, str(path)], "\n".join(rows) + "\n", monkeypatch, capsys)
        assert code == 3
        assert "error:" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("flag", ["--model", "--threshold-config"])
    def test_huge_finite_row_prints_only_the_error(
        self, flag, corpus_dir, threshold_config_path, tmp_path, monkeypatch, capsys
    ):
        """The overflow of a huge finite row issues no numpy warning: the error line is all of stderr."""
        path = threshold_config_path
        if flag == "--model":
            path = tmp_path / "model.json"
            main(["train", "--corpus", str(corpus_dir), "--kind", "svm", "--seed", "2", "--out", str(path)])
        rows = [f"{i * 0.04!r},0.0,0.0,1.0,0,0,0" for i in range(200)]
        rows.insert(50, "1.965,1e308,1e308,1e308,0,0,0")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = self.run_stream(["detect-stream", flag, str(path)], "\n".join(rows) + "\n", monkeypatch, capsys)
        assert code == 3
        assert [str(w.message) for w in caught] == []
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_huge_knn_distance_prints_only_the_error(self, corpus_dir, tmp_path, monkeypatch, capsys):
        """A row whose features are finite but whose knn distances overflow is exit 3, not a vote on inf distances."""
        path = tmp_path / "knn.json"
        main(["train", "--corpus", str(corpus_dir), "--kind", "knn", "--seed", "2", "--out", str(path)])
        capsys.readouterr()
        rows = [f"{i * 0.04!r},0.0,0.0,1.0,0,0,0" for i in range(100)]
        rows[50] = "2.0,1e150,1e150,1e150,0,0,0"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = self.run_stream(["detect-stream", "--model", str(path)], "\n".join(rows) + "\n", monkeypatch, capsys)
        assert code == 3
        assert [str(w.message) for w in caught] == []
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("gap", [1e-300, 5e-324])
    def test_rows_at_an_enormous_rate(self, gap, threshold_config_path, tmp_path, monkeypatch, capsys):
        """The gravity mean of avd spans at most the window, so a rate of 1e300 Hz or inf gives a verdict and a series."""
        text = "".join(f"{i * gap!r},0.1,0.2,1.0,1,2,3\n" for i in range(49))
        trial = tmp_path / "trial.csv"
        trial.write_text(CANONICAL_HEADER + "\n" + text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = self.run_stream(
                ["detect-stream", "--threshold-config", str(threshold_config_path)], text, monkeypatch, capsys
            )
            assert main(["export-plots", "--trial", str(trial), "--out", str(tmp_path / "series.csv")]) == 0
        assert (code, err) == (0, "")
        assert out == f"{48 * gap!r},ADL,0.000000\n"
        assert [str(w.message) for w in caught] == []

    def test_undecodable_byte_skipped_under_strict_stdin(self, threshold_config_path, monkeypatch, capsys):
        trials = [t for t in synthesize(seed=55, n_subjects=2, trials_per_subject=4) if t.label.value == "Fall"]
        rows = self.stream_text(trials[:2]).splitlines()
        args = ["detect-stream", "--threshold-config", str(threshold_config_path), "--window-seconds", "10"]
        _, expected, _ = self.run_stream(args, "\n".join(rows) + "\n", monkeypatch, capsys)
        rows.insert(120, rows[119].replace(",", ",\udcff", 1))  # decodes back to the byte 0xff
        data = ("\n".join(rows) + "\n").encode("utf-8", "surrogateescape")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict"))
        code = main(args)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "warning: line 121 skipped (non-numeric field)\n"
        assert captured.out == expected

    class Trickle(io.BytesIO):
        """A pipe that hands over at most `limit` bytes per read."""

        def __init__(self, data, limit):
            super().__init__(data)
            self.limit = limit

        def read1(self, size=-1):
            return super().read1(self.limit if size < 0 else min(size, self.limit))

    @pytest.mark.parametrize("limit", [5, 4096])
    def test_chunked_stdin_matches_one_read(self, limit, threshold_config_path, monkeypatch, capsys):
        trials = [t for t in synthesize(seed=55, n_subjects=2, trials_per_subject=4) if t.label.value == "Fall"]
        rows = self.stream_text(trials[:2]).splitlines()
        rows[300:300] = ["", "   \t", CANONICAL_HEADER, " " + CANONICAL_HEADER + " "]
        head = "\n".join(rows[:100]) + "\n"
        # pad the junk row so that its two-byte 'é' straddles two 5-byte reads
        junk = "x" * ((4 - len(head.encode())) % 5) + "é,0,0,1,0,0,0"
        rows.insert(100, junk)
        text = "\n".join(rows)  # no final newline
        data = text.encode()
        assert data.index("é".encode()) % 5 == 4
        args = ["detect-stream", "--threshold-config", str(threshold_config_path), "--window-seconds", "10"]
        expected = self.run_stream(args, text, monkeypatch, capsys)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(self.Trickle(data, limit), encoding="utf-8", newline="\n"))
        code = main(args)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        assert expected[2] == "warning: line 101 skipped (non-numeric field)\n"
        assert len(expected[1].splitlines()) >= 2

    @pytest.mark.parametrize("limit", [None, 7], ids=["one-read", "trickle"])
    def test_a_row_alone_in_its_window_merges_into_the_previous(self, limit, tmp_path, monkeypatch, capsys):
        """The impact row at t=10 is alone in the window [10, 20): as in `segment`, it is voted on with the rows before
        it, not dropped. The rows from t=25 fill the windows [20, 30) and [30, 40)."""
        cfg = tmp_path / "thresholds.txt"
        cfg.write_text("smv_acc = 2.0\n")
        rows = [f"{i / 25!r},0,0,1,0,0,0" for i in range(250)] + ["10.0,9.0,0.0,0.0,0.0,0.0,0.0"]
        rows += [f"{25 + i / 25!r},0,0,1,0,0,0" for i in range(250)]
        data = ("\n".join(rows) + "\n").encode()
        stdin = io.BytesIO(data) if limit is None else self.Trickle(data, limit)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin, encoding="utf-8"))
        assert main(["detect-stream", "--threshold-config", str(cfg), "--window-seconds", "10"]) == 0
        assert capsys.readouterr() == ("10.0,Fall,1.000000\n29.96,ADL,0.000000\n34.96,ADL,0.000000\n", "")

    def test_each_verdict_is_flushed_before_stdin_is_read_again(self, vote_config, monkeypatch):
        """On a pipe, a verdict leaves as soon as it is known, not in the next 8 KiB of buffered output."""
        events = []

        class Stdout(io.StringIO):
            def write(self, text):
                events.append("write")
                return super().write(text)

            def flush(self):
                events.append("flush")

        class Stdin(self.Trickle):
            def read1(self, size=-1):
                events.append("read")
                return super().read1(size)

        rows = "".join(f"{i / 25!r},0,0,{9 if i % 97 == 0 else 1},0,0,0\n" for i in range(1000))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(Stdin(rows.encode(), 97), encoding="utf-8"))
        monkeypatch.setattr("sys.stdout", stdout := Stdout())
        assert main(["detect-stream", "--threshold-config", str(vote_config), "--window-seconds", "2"]) == 0
        assert len(stdout.getvalue().splitlines()) == 20
        assert events[events.index("write") :].count("read") > 1  # verdicts are printed between reads
        unflushed = False  # a verdict was written and not yet flushed
        for event in events:
            assert not (event == "read" and unflushed)
            unflushed = event == "write" or unflushed and event != "flush"
        assert not unflushed

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        # runs of 25 Hz rows broken by longer gaps; a run of 0 puts a row alone first, between two gaps or last
        head=st.integers(0, 80),
        runs=st.lists(st.tuples(st.sampled_from([0.5, 3.0, 15.0]), st.integers(0, 80)), max_size=5),
        window_seconds=st.sampled_from([0.01, 0.03, 0.05, 0.5, 2.5, 10.0]),
        limit=st.sampled_from([5, 97, 4096]),
        seed=st.integers(0, 2**16),
        declared=st.floats(21.0, 30.0),  # the recording's declared rate, which a stream does not have
    )
    # window 0 peaks at AVD 9.64 at its rows' 25 Hz and at 10.14 at the declared 21 Hz
    @example(head=80, runs=[], window_seconds=2.5, limit=97, seed=150, declared=21.0)
    def test_stream_windows_are_the_windows_of_segment(
        self, vote_config, head, runs, window_seconds, limit, seed, declared
    ):
        """For any gaps, read sizes and declared rate, the stream prints the verdict of each window of `segment`."""
        gaps = [0.04] * head + [g for gap, run in runs for g in [gap] + [0.04] * run]
        t = np.concatenate([[0.0], np.cumsum(gaps)])
        rng = np.random.default_rng(seed)
        acc = rng.normal(0.0, 0.3, (t.size, 3)) + [0.0, 0.0, 1.0]
        acc[rng.random(t.size) < 0.05] *= 8.0  # a spike now and then, so that verdicts differ
        gyr = rng.normal(0.0, 20.0, (t.size, 3))
        data = "".join(",".join(map(repr, row)) + "\n" for row in np.column_stack((t, acc, gyr)).tolist()).encode()
        detector = load_threshold_config(vote_config)
        expected = []
        for w in segment(make_recording(t, acc, gyr, rate=declared), window_seconds=window_seconds):
            if w.n_samples >= 2:  # only a stream of one row has a shorter window
                [(label, score)] = classify_many(detector, [w])
                expected.append(f"{w.end_t!r},{label.value},{score:.6f}\n")
        out, err = io.StringIO(), io.StringIO()
        stdin = io.TextIOWrapper(self.Trickle(data, limit), encoding="utf-8")
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["detect-stream", "--threshold-config", str(vote_config), "--window-seconds", str(window_seconds)])
        assert (code, out.getvalue(), err.getvalue()) == (0, "".join(expected), "")


class TestExportPlots:
    def test_trial_series(self, corpus_dir, tmp_path):
        trial_csv = sorted(corpus_dir.glob("trials/*.csv"))[0]
        out = tmp_path / "series.csv"
        assert main(["export-plots", "--trial", str(trial_csv), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,smv_acc,smv_gyr,fi,avd"
        n_samples = len(trial_csv.read_text().strip().splitlines()) - 1
        assert len(lines) == n_samples + 1

    def test_trial_series_reads_back_bit_for_bit(self, corpus_dir, tmp_path):
        """Every field is a plain float, equal to the derived series bit for bit (numpy >= 2 reprs np.float64(...))."""
        trial_csv = sorted(corpus_dir.glob("trials/*.csv"))[0]
        out = tmp_path / "series.csv"
        assert main(["export-plots", "--trial", str(trial_csv), "--out", str(out)]) == 0
        t, acc, gyr = read_canonical_trial(trial_csv)
        derived = derive_all(window_from_arrays(trial_csv.stem, t, acc, gyr))
        expected = np.column_stack((t, derived.smv_acc, derived.smv_gyr, derived.fi, derived.avd))
        written = np.array([[float(field) for field in line.split(",")] for line in out.read_text().splitlines()[1:]])
        assert written.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_trial_under_2_rows_is_a_data_error(self, n_rows, corpus_dir, tmp_path, capsys):
        """Found before window_from_arrays takes a median gap: exit 3 naming the file, and no numpy warning."""
        trial_csv = sorted(corpus_dir.glob("trials/*.csv"))[0]
        short = tmp_path / "short.csv"
        short.write_text("".join(trial_csv.read_text().splitlines(keepends=True)[: 1 + n_rows]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["export-plots", "--trial", str(short), "--out", str(tmp_path / "series.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert str(short) in err
        assert "internal error" not in err
        assert [str(w.message) for w in caught] == []

    def test_trial_whose_signals_overflow_is_a_data_error(self, corpus_dir, tmp_path, capsys):
        """A finite row of 1e308 overflows the derived signals: exit 3 naming the file, no warning and no output."""
        lines = sorted(corpus_dir.glob("trials/*.csv"))[0].read_text().splitlines()
        fields = lines[4].split(",")
        lines[4] = ",".join([fields[0], "1e308", "1e308", "1e308", *fields[4:]])
        big = tmp_path / "big.csv"
        big.write_text("\n".join(lines) + "\n")
        out = tmp_path / "series.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["export-plots", "--trial", str(big), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"error: window {big}#w0: derived signal smv_acc contains non-finite values\n"
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_reports_with_a_dataset_name_to_quote(self, corpus_dir, tmp_path):
        """A comma, a quote or a newline in a name is quoted, so every row reads back as 5 fields."""
        name = 'a,b "c"\nd'
        out = tmp_path / "reports" / "run0"
        main(["evaluate", "--corpus", str(corpus_dir), "--detector", "threshold", "--dataset-name", name, "--out", str(out)])
        table = tmp_path / "table.csv"
        assert main(["export-plots", "--reports", str(tmp_path / "reports"), "--out", str(table)]) == 0
        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [5, 5]
        assert rows[1][1] == name

    def test_report_metrics(self, corpus_dir, tmp_path):
        out_dir = tmp_path / "eval"
        main(["evaluate", "--corpus", str(corpus_dir), "--detector", "threshold", "--seed", "4", "--out", str(out_dir)])
        out = tmp_path / "metrics.csv"
        assert main(["export-plots", "--report", str(out_dir / "report.json"), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "metric,value_pct"
        assert len(lines) == 4

    def test_reports_table_consistent_with_evaluate_outputs(self, corpus_dir, tmp_path):
        detectors = [
            ("threshold", []),  # threshold(avd>..., fi>..., smv_acc>...): a name with commas
            ("threshold", ["--signals", "smv_acc"]),
            ("knn", ["--view", "acc44"]),
            ("knn", ["--view", "combined88"]),
            ("svm", ["--view", "combined88"]),
        ]
        reports_dir = tmp_path / "reports"
        expected = {}
        for i, (kind, extra) in enumerate(detectors):
            out = reports_dir / f"run{i}"
            main(["evaluate", "--corpus", str(corpus_dir), "--detector", kind, *extra, "--seed", "4", "--out", str(out)])
            doc = json.loads((out / "report.json").read_text())
            expected[doc["detector"] + "|" + doc["dataset"]] = doc
        table = tmp_path / "table.csv"
        assert main(["export-plots", "--reports", str(reports_dir), "--out", str(table)]) == 0
        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["detector", "dataset", "accuracy_pct", "sensitivity_pct", "specificity_pct"]
        assert len(rows) == len(detectors) + 1
        for row in rows[1:]:
            detector, dataset, acc, se, sp = row
            doc = expected[detector + "|" + dataset]
            assert float(acc) == doc["accuracy_pct"]
            assert float(se) == doc["sensitivity_pct"]
            assert float(sp) == doc["specificity_pct"]

    @pytest.mark.parametrize("accuracy_pct", [100.0 * 8 / 11, 12.5, "abc"], ids=["unchanged", "contradicts", "string"])
    def test_report_percentages_come_from_its_counts(self, accuracy_pct, tmp_path):
        """The stored accuracy_pct is not read: the counts give every percentage. The unchanged report is the base of
        the report faults of TestLoaderFaults, so each of those is its one change."""
        path = tmp_path / "report.json"
        path.write_bytes(report_file(lambda doc: doc.update(accuracy_pct=accuracy_pct)))
        out = tmp_path / "metrics.csv"
        assert main(["export-plots", "--report", str(path), "--out", str(out)]) == 0
        expected = ["metric,value_pct", f"accuracy,{100.0 * 8 / 11!r}", "sensitivity,75.0", f"specificity,{500 / 7!r}"]
        assert out.read_text().splitlines() == expected

    def test_reports_with_a_detector_that_is_not_a_string(self, tmp_path, capsys):
        path = tmp_path / "reports" / "run0" / "report.json"
        path.parent.mkdir(parents=True)
        path.write_bytes(report_file(lambda doc: doc.update(detector=5)))
        code = main(["export-plots", "--reports", str(tmp_path / "reports"), "--out", str(tmp_path / "table.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error" not in err
        assert str(path) in err

    def test_exactly_one_mode(self, tmp_path):
        assert main(["export-plots", "--out", str(tmp_path / "x.csv")]) == 3


# JSON nested deeper than the decoder's limit on every supported Python (about 1000 levels up to 3.11, several
# thousand from 3.12 on, where the C decoder has its own limit), and an integer past the 4300-digit conversion limit
DEEP = b"[" * 100_000 + b"]" * 100_000
DIGITS = b"1" * 5000


def rf_chain_model(splits) -> bytes:
    """An rf model file whose one tree is a chain of `splits` splits, each with a leaf on its right."""
    chain = b'{"f": 0, "thr": 0.5, "l": ' * splits + b'{"leaf": 0}' + b', "r": {"leaf": 1}}' * splits
    return model_file("rf", lambda doc: doc["state"]["trees"][0].clear()).replace(b"[{}]", b"[" + chain + b"]")


def model_file(kind, edit=lambda doc: None) -> bytes:
    """A small valid acc44 model file of `kind`, changed by `edit(doc)`."""
    tree = {"f": 0, "thr": 0.5, "l": {"leaf": 0}, "r": {"leaf": 1}}
    state = {
        "knn": {"k": 1, "X": [[0.0] * 44, [1.0] * 44], "y": [0, 1]},
        "rf": {"n_trees": 1, "max_depth": 16, "mtry": None, "min_leaf": 1, "trees": [tree]},
        "svm": {"lam": 0.001, "epochs": 50, "w": [0.0] * 44, "b": 0.0},
    }[kind]
    doc = {
        "format": "wristfall-model",
        "version": 1,
        "kind": kind,
        "feature_view": "acc44",
        "params": {key: value for key, value in state.items() if key not in ("X", "y", "trees", "w", "b")},
        "seed": 0,
        "standardizer": {"mean": [0.0] * 44, "std": [1.0] * 44},
        "state": state,
    }
    edit(doc)
    return json.dumps(doc).encode()


def report_file(edit=lambda doc: None) -> bytes:
    """A report.json as `evaluate` writes it, of 3 TP, 1 FN, 5 TN and 2 FP, changed by `edit(doc)`."""
    doc = json.loads(report_json(EvalReport("svm(combined88)", "corpus", tp=3, fn=1, tn=5, fp=2)))
    edit(doc)
    return json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n"


def manifest_file(**changes) -> bytes:
    """A valid manifest whose root is `raw` next to it, with `changes` made at the top level."""
    doc = {
        "source": "Erciyes",
        "root": "raw",
        "nominal_rate_hz": 25.0,
        "tasks": {"A01": {"label": "ADL", "description": "walking"}},
        "layout": {"file_glob": "*.txt", "path_regex": r"(?P<subject>s\d+)_(?P<code>A\d+)"},
    }
    return json.dumps({**doc, **changes}).encode()


def layout(**changes) -> dict:
    return {**json.loads(manifest_file())["layout"], **changes}


def index_entry(**changes) -> bytes:
    """An index.jsonl line for a new trial of the `corpus_dir` corpus (see `append_index_line`), with `changes` made."""
    entry = {
        "trial_id": "S01_SYN_ADL_000_again",
        "subject_id": "S01",
        "activity_code": "SYN_ADL",
        "label": "ADL",
        "sample_rate_hz": 25.0,
        "source": "Synthetic",
        "path": "trials/S01_SYN_ADL_000_again.csv",
    }
    return json.dumps({**entry, **changes}).encode() + b"\n"


def append_index_line(corpus, line: bytes) -> None:
    """Append `line` to the corpus's index, and write the trial file of `index_entry()`: a copy of a listed one."""
    trials = corpus / "trials"
    (trials / "S01_SYN_ADL_000_again.csv").write_bytes((trials / "S01_SYN_ADL_000.csv").read_bytes())
    index = corpus / "index.jsonl"
    index.write_bytes(index.read_bytes() + line)


class TestLoaderFaults:
    """Every file the CLI reads gives a data error naming the file: never exit 4 on bad bytes or a bad layout."""

    FAULTS = {
        "model": {
            "undecodable": b'{"format": "wristfall-model\xff", "version": 1}\n',
            "malformed": b"not json\n",
            "bad_key": b'{"format": "wristfall-model", "version": 1, "kind": "svm"}\n',
            "svm-w-short": model_file("svm", lambda d: d["state"].update(w=[0.0] * 5)),
            "svm-w-inf": model_file("svm", lambda d: d["state"].update(w=[float("inf")] * 44)),
            "mean-short": model_file("svm", lambda d: d["standardizer"].update(mean=[0.0] * 5)),
            "std-nan": model_file("knn", lambda d: d["standardizer"].update(std=[float("nan")] * 44)),
            "rf-split-500": model_file("rf", lambda d: d["state"]["trees"][0].update(f=500)),
            "rf-leaf-7": model_file("rf", lambda d: d["state"]["trees"][0]["r"].update(leaf=7)),
            "rf-tree-count": model_file("rf", lambda d: d["state"]["trees"].append({"leaf": 1})),
            "params-n_trees-edited": model_file("rf", lambda d: d["params"].update(n_trees=2)),
            "params-k-edited": model_file("knn", lambda d: d["params"].update(k=2)),
            "params-unknown": model_file("knn", lambda d: d["params"].update(x=1)),
            "knn-k-0": model_file("knn", lambda d: (d["params"].update(k=0), d["state"].update(k=0))),
            "knn-k-float": model_file("knn", lambda d: (d["params"].update(k=1.0), d["state"].update(k=1.0))),
            "knn-X-columns": model_file("knn", lambda d: d["state"].update(X=[[0.0] * 43, [1.0] * 43])),
            "knn-y-2": model_file("knn", lambda d: d["state"].update(y=[0, 2])),
            "knn-y-short": model_file("knn", lambda d: d["state"].update(y=[0])),
            "seed-1e400": model_file("knn").replace(b'"seed": 0', b'"seed": 1e400'),
            "seed-1.5": model_file("knn", lambda d: d.update(seed=1.5)),
            "nested-100000": b'{"format": ' + DEEP + b"}",
            "seed-5000-digits": model_file("knn").replace(b'"seed": 0', b'"seed": ' + DIGITS),
            "rf-chain-100000": rf_chain_model(100_000),
        },
        "threshold_config": {
            "undecodable": b"smv_acc = 2.5  # \xff\n",
            "malformed": b"smv = 2.5\n",  # no such signal
            "bad_key": b"# no signal enabled\n",
            "repeated-signal": b"smv_acc = 2.0\nsmv_acc = 9.0\n",
        },
        "index": {
            "undecodable": b'{"trial_id": "\xff"}\n',
            "malformed": b"[1, 2]\n",  # JSON, but not an entry
            "bad_key": b'{"path": "trials/x.csv", "trial_id": "x", "subject_id": "S", "activity_code": "A", '
            b'"label": "Falls", "sample_rate_hz": 25.0, "source": "synthetic"}\n',  # a label that is not one
            "subject_id-int": index_entry(subject_id=5),
            "subject_id-null": index_entry(subject_id=None),
            "trial_id-list": index_entry(trial_id=[1]),
            "rate-nan": index_entry(sample_rate_hz=float("nan")),
            "rate-inf": index_entry(sample_rate_hz=float("inf")),
            "rate-bool": index_entry(sample_rate_hz=True),
            "rate-zero": index_entry(sample_rate_hz=0),
            "rate-negative": index_entry(sample_rate_hz=-5),
            "rate-1e9": index_entry(sample_rate_hz=1e9),
            "rate-string": index_entry(sample_rate_hz="25"),
            "rate-int-beyond-float": index_entry(sample_rate_hz=10**400),
            "nested-100000": DEEP + b"\n",
            "rate-5000-digits": index_entry().replace(b'"sample_rate_hz": 25.0', b'"sample_rate_hz": ' + DIGITS),
            "repeated-trial-id": index_entry(trial_id="S01_SYN_ADL_000"),
            "repeated-path": index_entry(path="trials/./S01_SYN_ADL_000.csv"),  # the same file, spelled otherwise
        },
        "report": {
            "undecodable": b'{"detector": "svm\xff"}\n',
            "malformed": b"{\n",
            "bad_key": b'{"detector": "svm", "dataset": "d"}\n',
            "tp-1e400": report_file().replace(b'"tp": 3', b'"tp": 1e400'),
            "tp-negative": report_file(lambda d: d["confusion"].update(tp=-1)),
            "tp-string": report_file(lambda d: d["confusion"].update(tp="3")),
            "all-zero": report_file(lambda d: d["confusion"].update(tp=0, fn=0, tn=0, fp=0)),
            "tp-int-beyond-float": report_file(lambda d: d["confusion"].update(tp=10**400)),
            "nested-100000": DEEP,
            "tp-5000-digits": report_file().replace(b'"tp": 3', b'"tp": ' + DIGITS),
        },
    }

    # bad_key: a key missing, or (index.jsonl, where a missing key is already a data error) a value of no use;
    # the further model faults are each one value of a valid model file changed
    @pytest.mark.parametrize("target,fault", [(target, fault) for target, faults in FAULTS.items() for fault in faults])
    def test_bad_file_is_a_data_error_naming_it(self, target, fault, corpus_dir, tmp_path, monkeypatch, capsys):
        content = self.FAULTS[target][fault]
        if target == "index":
            path = corpus_dir / "index.jsonl"
            append_index_line(corpus_dir, content)
            argv = ["evaluate", "--corpus", str(corpus_dir), "--detector", "knn", "--out", str(tmp_path / "ev")]
        else:
            path = tmp_path / f"faulty-{target}.file"
            path.write_bytes(content)
            flag = {"model": "--model", "threshold_config": "--threshold-config", "report": "--report"}[target]
            command = "export-plots" if target == "report" else "detect-stream"
            argv = [command, flag, str(path)] + (["--out", str(tmp_path / "x.csv")] if target == "report" else [])
        monkeypatch.setattr("sys.stdin", stdin_of(""))
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error" not in err
        assert path.name in err

    def test_unchanged_index_entry_reads(self, corpus_dir, tmp_path, capsys):
        """The base of the index faults above reads, so each fault is its one change."""
        append_index_line(corpus_dir, index_entry())
        assert main(["evaluate", "--corpus", str(corpus_dir), "--detector", "knn", "--out", str(tmp_path / "ev")]) == 0
        assert len(read_canonical(corpus_dir)) == 61

    @pytest.mark.parametrize("fault", ["repeated-trial-id", "repeated-path"])
    def test_a_repeated_trial_names_the_line_and_the_one_it_repeats(self, fault, corpus_dir, tmp_path, capsys):
        """A trial listed twice would be read twice, and could be both fitted and scored: no trial file is read."""
        index = corpus_dir / "index.jsonl"
        first = next(n for n, line in enumerate(index.read_text().splitlines(), 1) if "S01_SYN_ADL_000.csv" in line)
        append_index_line(corpus_dir, self.FAULTS["index"][fault])
        with mock.patch("wristfall.evaluation.map_trials") as map_trials:
            code = main(["evaluate", "--corpus", str(corpus_dir), "--detector", "knn", "--out", str(tmp_path / "ev")])
        err = capsys.readouterr().err
        assert (code, map_trials.call_count) == (3, 0)
        assert err.startswith(f"error: {index}:61: {'trial_id' if fault == 'repeated-trial-id' else 'trial file'} ")
        assert err.endswith(f" repeats line {first}\n")

    def test_an_unknown_model_hyperparameter_is_named_as_params_names_it(self, tmp_path, monkeypatch, capsys):
        """`load_model` builds its classifier with `make_classifier`, as `--params` does: no Python TypeError text."""
        path = tmp_path / "model.json"
        path.write_bytes(self.FAULTS["model"]["params-unknown"])
        monkeypatch.setattr("sys.stdin", stdin_of(""))
        assert main(["detect-stream", "--model", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {path}: unknown knn hyperparameters: ['x']\n"

    @pytest.mark.parametrize("kind", ["knn", "rf", "svm"])
    def test_unchanged_model_file_loads(self, kind, tmp_path, monkeypatch, capsys):
        """The base of the model faults above is a valid model file, so each fault is its one change."""
        path = tmp_path / "model.json"
        path.write_bytes(model_file(kind))
        monkeypatch.setattr("sys.stdin", stdin_of("".join(f"{i * 0.04!r},0,0,1,0,0,0\n" for i in range(100))))
        assert main(["detect-stream", "--model", str(path)]) == 0
        assert capsys.readouterr().out.count(",") == 2

    @staticmethod
    def write_raw_trial(base):
        (base / "raw").mkdir()
        (base / "raw" / "s01_A01.txt").write_text("".join(f"{i * 0.04!r} 0 0 1 0 0 0\n" for i in range(100)))

    def test_unchanged_manifest_ingests(self, tmp_path, capsys):
        """The base of the manifest faults below ingests its one trial, so each fault is its one change."""
        path = tmp_path / "manifest.json"
        path.write_bytes(manifest_file())
        self.write_raw_trial(tmp_path)
        assert main(["ingest", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("1 trials")

    @pytest.mark.parametrize(
        "content",
        [
            b'{"source": "erciyes\xff"}\n',
            b"not json\n",
            b"7\n",
            pytest.param(manifest_file(tasks=[]), id="tasks-list"),
            pytest.param(manifest_file(tasks={"A01": "ADL"}), id="task-string"),
            pytest.param(manifest_file(layout=5), id="layout-int"),
            pytest.param(manifest_file(layout=layout(surprise=1)), id="layout-unknown-key"),
            pytest.param(manifest_file(layout={"path_regex": "x"}), id="layout-no-file_glob"),
            pytest.param(manifest_file(nominal_rate_hz="fast"), id="rate-string"),
            pytest.param(manifest_file(nominal_rate_hz=-20), id="rate-negative"),
            pytest.param(manifest_file(nominal_rate_hz="nan"), id="rate-nan-string"),
            pytest.param(manifest_file(nominal_rate_hz=0), id="rate-zero"),
            pytest.param(manifest_file(nominal_rate_hz=1e9), id="rate-1e9"),
            pytest.param(manifest_file(nominal_rate_hz="25"), id="rate-numeric-string"),
            pytest.param(manifest_file(nominal_rate_hz=10**400), id="rate-int-beyond-float"),
            pytest.param(manifest_file(root=5), id="root-int"),
            pytest.param(manifest_file(layout=layout(acc_columns=3)), id="acc_columns-int"),
            pytest.param(manifest_file(layout=layout(path_regex="(?P<subject")), id="path_regex-uncompilable"),
            pytest.param(manifest_file(expected=[17]), id="expected-list"),
            pytest.param(manifest_file(layout=layout(value_columns=[2, 3])), id="value_columns-two"),
            pytest.param(manifest_file(layout=layout(file_glob=5)), id="file_glob-int"),
            pytest.param(manifest_file(layout=layout(delimiter="")), id="delimiter-empty"),
            pytest.param(manifest_file(layout=layout(time_column=-1)), id="time_column-negative"),
            pytest.param(
                manifest_file(layout=layout(mode="interleaved", sensor_type_column=5, sensor_id_column=6)),
                id="interleaved-no-sample_no_column",
            ),
            pytest.param(DEEP, id="nested-100000"),
            pytest.param(manifest_file().replace(b'"nominal_rate_hz": 25.0', b'"nominal_rate_hz": ' + DIGITS),
                         id="rate-5000-digits"),
        ],
    )
    def test_bad_manifest_is_a_data_error_naming_it(self, content, tmp_path, capsys):
        path = tmp_path / "faulty-manifest.json"
        path.write_bytes(content)
        self.write_raw_trial(tmp_path)
        code = main(["ingest", "--manifest", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error" not in err
        assert path.name in err


class TestBadParams:
    """A hyperparameter out of its range is a data error naming it, found before anything is fitted or saved."""

    @pytest.mark.parametrize(
        "command,detector,params,named",
        [
            ("evaluate", "knn", {"k": -1}, "k"),
            ("evaluate", "svm", {"epochs": 0}, "epochs"),
            ("train", "rf", {"mtry": 0}, "mtry"),
            ("train", "rf", {"n_trees": 0}, "n_trees"),
            ("train", "rf", {"max_depth": "x"}, "max_depth"),
            ("train", "svm", {"lam": 0}, "lam"),
            ("train", "knn", {"k": 5.0}, "k"),
            ("evaluate", "threshold", {"k": 3}, "'k'"),
            # the threshold detector takes no parameters: its calibration grids are fixed
            ("evaluate", "threshold", {"grids": {"smv_acc": [1.5, 6.0, 0.05]}}, "'grids'"),
            ("train", "svm", {"lam": 10**400}, "lam"),
        ],
        ids=["knn-k", "svm-epochs", "rf-mtry", "rf-n_trees", "rf-max_depth", "svm-lam", "knn-k-float",
             "threshold-k", "threshold-grids", "svm-lam-int-beyond-float"],
    )
    def test_rejected(self, command, detector, params, named, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        flag = "--kind" if command == "train" else "--detector"
        argv = [command, "--corpus", str(corpus_dir), flag, detector, "--params", json.dumps(params), "--out", str(out)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error" not in err
        assert named in err
        assert not out.exists()


    @pytest.mark.parametrize("params", [DEEP, b'{"k": ' + DIGITS + b"}"], ids=["nested-100000", "k-5000-digits"])
    def test_params_that_do_not_decode(self, params, corpus_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["train", "--corpus", str(corpus_dir), "--kind", "knn", "--params", params.decode(), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: --params is not valid JSON: ")
        assert not out.exists()


class TestWindowSeconds:
    """--window-seconds must be finite and positive in every command that takes it (exit 2)."""

    COMMANDS = {
        "calibrate": ["calibrate", "--corpus", "c", "--out", "o"],
        "train": ["train", "--corpus", "c", "--kind", "knn", "--out", "o"],
        "evaluate": ["evaluate", "--corpus", "c", "--detector", "knn", "--out", "o"],
        "detect-stream": ["detect-stream", "--threshold-config", "t.cfg"],
    }

    def run(self, argv, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", stdin_of("".join(f"{i * 0.04!r},0,0,1,0,0,0\n" for i in range(100))))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--window-seconds must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_rejected_in_every_command(self, command, monkeypatch, capsys):
        for value in ("0", "-1", "nan", "inf"):
            self.run([*self.COMMANDS[command], f"--window-seconds={value}"], monkeypatch, capsys)

    @pytest.mark.parametrize(
        "value", [0, -1.0, "nan", [60], True], ids=["zero", "negative", "nan-string", "list", "bool"]
    )
    def test_config_file_value_rejected(self, value, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"window_seconds": value}))
        self.run(["--config", str(cfg), *self.COMMANDS["detect-stream"]], monkeypatch, capsys)

    def test_tiny_window_is_bounded_work(self, tmp_path):
        corpus = tmp_path / "c"
        assert main(["synthesize", "--seed", "1", "--subjects", "4", "--trials-per-subject", "6", "--out", str(corpus)]) == 0
        start = time.perf_counter()
        code = main(["calibrate", "--corpus", str(corpus), "--window-seconds", "1e-5", "--out", str(tmp_path / "t.cfg")])
        assert code == 0
        # a loop step per window boundary took 11 s on this corpus; a cut per sample takes under 1 s
        assert time.perf_counter() - start < 5.0


class TestSeedAndSizes:
    """--seed must be an integer >= 0 in every command that takes it (exit 2); synthesize's sizes are data (exit 3)."""

    COMMANDS = {
        "synthesize": ["synthesize", "--out", "o"],
        "calibrate": ["calibrate", "--corpus", "c", "--out", "o"],
        "train": ["train", "--corpus", "c", "--kind", "knn", "--out", "o"],
        "evaluate": ["evaluate", "--corpus", "c", "--detector", "knn", "--out", "o"],
    }

    def run(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_negative_seed_rejected_in_every_command(self, command, capsys):
        self.run([*self.COMMANDS[command], "--seed", "-1"], capsys)

    @pytest.mark.parametrize("value", [1.5, 1e30, True, [1], -1], ids=["float", "1e30", "bool", "list", "negative"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_config_file_seed_rejected(self, command, value, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": value}))
        self.run(["--config", str(cfg), *self.COMMANDS[command]], capsys)

    @pytest.mark.parametrize(
        "config,named",
        [
            ({"trials_per_subject": -3}, "trials_per_subject"),
            ({"trials_per_subject": 0}, "trials_per_subject"),
            ({"trials_per_subject": True}, "trials_per_subject"),
            ({"subjects": 2.5}, "n_subjects"),
        ],
        ids=["trials-negative", "trials-zero", "trials-bool", "subjects-float"],
    )
    def test_bad_synthesize_size_is_a_data_error(self, config, named, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "corpus"
        assert main(["--config", str(cfg), "synthesize", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "internal error" not in err and named in err
        assert not out.exists()


class TestUsage:
    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("ingest", "synthesize", "calibrate", "train", "evaluate", "detect-stream", "export-plots"):
            assert cmd in out

    def test_unknown_flag_is_fatal(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--out", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 3, "subjects": 4, "trials_per_subject": 6}))
        out = tmp_path / "c"
        assert main(["--config", str(cfg), "synthesize", "--out", str(out)]) == 0
        assert "24 trials" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spelling",
        [["--config={}", "synthesize"], ["synthesize", "--config={}"], ["--config", "{}", "synthesize"]],
        ids=["equals-before", "equals-after", "space-before"],
    )
    def test_config_file_applies_in_every_spelling(self, spelling, tmp_path, capsys):
        cfg = tmp_path / "s5.json"
        cfg.write_text(json.dumps({"seed": 5}))
        sizes = ["--subjects", "2", "--trials-per-subject", "3"]
        assert main(["synthesize", "--seed", "5", *sizes, "--out", str(tmp_path / "want")]) == 0
        assert main([arg.format(cfg) for arg in spelling] + [*sizes, "--out", str(tmp_path / "got")]) == 0
        assert read_tree(tmp_path / "got") == read_tree(tmp_path / "want")

    @pytest.mark.parametrize(
        "spelling",
        [
            ["--config", "{5}", "--config", "{9}", "synthesize"],
            ["--config={5}", "--config={9}", "synthesize"],
            ["--config", "{5}", "synthesize", "--config={9}"],
        ],
        ids=["space-twice", "equals-twice", "space-then-equals-after"],
    )
    def test_second_config_flag_is_a_usage_error(self, spelling, tmp_path, capsys):
        for seed in (5, 9):
            (tmp_path / f"s{seed}.json").write_text(json.dumps({"seed": seed}))
        argv = [arg.replace("{5}", str(tmp_path / "s5.json")).replace("{9}", str(tmp_path / "s9.json")) for arg in spelling]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
        assert "--config was given more than once" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_abbreviated_config_flag_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "s5.json"
        cfg.write_text(json.dumps({"seed": 5}))
        with pytest.raises(SystemExit) as exc:
            main(["--conf", str(cfg), "synthesize", "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "config,command",
        [
            ({"params": 5}, ["train", "--kind", "rf", "--corpus", "c", "--out", "m.json"]),
            ({"params": [1]}, ["evaluate", "--detector", "rf", "--corpus", "c", "--out", "r"]),
            ({"signals": 5}, ["evaluate", "--detector", "threshold", "--corpus", "c", "--out", "r"]),
            ({"trial": 5}, ["export-plots", "--out", "o.csv"]),
            ({"threshold_config": 5}, ["detect-stream"]),
            ({"predictions": "no"}, ["evaluate", "--detector", "knn", "--corpus", "c", "--out", "r"]),
            ({"view": "nope"}, ["train", "--kind", "knn", "--corpus", "c", "--out", "m.json"]),
        ],
        ids=["params-int", "params-list", "signals-int", "trial-int", "threshold_config-int", "predictions-string",
             "view-not-a-choice"],
    )
    def test_config_value_its_flag_cannot_take_is_a_usage_error(self, config, command, tmp_path, monkeypatch, capsys):
        """Exit 2 naming the key, before any file is read."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["--config", "run.json", *command])
        assert exc.value.code == 2
        assert f"config key {next(iter(config))!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [DEEP, b'{"seed": ' + DIGITS + b"}", b'{"seed": 5\xff}', b"{"],
        ids=["nested-100000", "seed-5000-digits", "undecodable", "malformed"],
    )
    def test_config_file_that_does_not_decode_is_a_usage_error(self, content, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "synthesize", "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
        assert f"cannot read config file: {cfg}: " in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_config_file_unknown_keys_fatal(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sneaky": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "synthesize", "--out", str(tmp_path / "c")])
        assert exc.value.code == 2


# Run the CLI on the arguments, then print its exit code and whether the process has loaded OpenSSL's `_hashlib`.
OPENSSL_PROBE = "import sys; from wristfall.cli import main; code = main(sys.argv[1:]); print(code, '_hashlib' in sys.modules)"


class TestOpenSSL:
    """A command that hashes nothing never loads OpenSSL: `hashlib` is imported only where a key or digest is
    computed, so `detect-stream` and `export-plots` run without it."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        if fresh_python("import sys, numpy; print('_hashlib' in sys.modules)").stdout.strip() == b"True":
            pytest.skip("numpy < 2 loads _hashlib within import numpy (numpy.random imports secrets)")
        root = tmp_path_factory.mktemp("openssl")
        corpus = str(root / "corpus")
        assert main(["synthesize", "--subjects", "3", "--trials-per-subject", "12", "--out", corpus]) == 0
        assert main(["calibrate", "--corpus", corpus, "--out", str(root / "thresholds.txt")]) == 0
        assert main(["train", "--corpus", corpus, "--kind", "rf", "--out", str(root / "rf.json")]) == 0
        return root

    @pytest.mark.parametrize(
        "argv,loaded",
        [
            (["detect-stream", "--threshold-config", "{root}/thresholds.txt"], False),
            (["detect-stream", "--model", "{root}/rf.json"], False),
            (["export-plots", "--trial", "{trial}", "--out", "{root}/series.csv"], False),
            # the control: evaluate hashes each trial file for its stored rows, so the probe can see the module
            (["evaluate", "--corpus", "{root}/corpus", "--detector", "knn", "--out", "{root}/eval"], True),
        ],
        ids=["detect-stream-threshold", "detect-stream-model", "export-plots-trial", "evaluate"],
    )
    def test_only_a_command_that_hashes_loads_openssl(self, argv, loaded, inputs):
        trial = sorted((inputs / "corpus" / "trials").glob("*.csv"))[0]
        args = [arg.format(root=inputs, trial=trial) for arg in argv]
        with open(trial, "rb") as stdin:  # the stream detect-stream reads
            done = fresh_python(OPENSSL_PROBE, *args, stdin=stdin)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"0 {loaded}".encode()


NUMPY_MA_PROBE = "import sys; from wristfall.cli import main; code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"


class TestNumpyMa:
    """No command imports numpy.ma: medians and quartiles come from np.partition (`core.median`,
    `core.percentiles`), where np.median, np.percentile and np.unique would load it."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        if fresh_python("import sys, numpy; print('numpy.ma' in sys.modules)").stdout.strip() == b"True":
            pytest.skip("numpy < 2 loads numpy.ma within import numpy")
        root = tmp_path_factory.mktemp("numpy-ma")
        corpus = str(root / "corpus")
        assert main(["synthesize", "--subjects", "3", "--trials-per-subject", "12", "--out", corpus]) == 0
        assert main(["calibrate", "--corpus", corpus, "--out", str(root / "thresholds.txt")]) == 0
        assert main(["train", "--corpus", corpus, "--kind", "rf", "--out", str(root / "rf.json")]) == 0
        write_pool_corpus(root / "columns")
        save_manifest(pool_manifest(root / "columns"), root / "columns.json")
        (root / "interleaved").mkdir()
        rng = np.random.default_rng(54)
        for trial in range(1, 4):
            acc, gyr = rng.normal(0, 0.2, (60, 3)) + np.array([0, 0, 1.0]), rng.normal(0, 30, (60, 3))
            write_interleaved_trial(root / "interleaved", "01", "Walking", trial, acc, gyr)
        save_manifest(interleaved_manifest(root / "interleaved"), root / "interleaved.json")
        return root

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect-stream", "--threshold-config", "{root}/thresholds.txt"],
            ["detect-stream", "--model", "{root}/rf.json"],
            ["ingest", "--manifest", "{root}/columns.json", "--out", "{root}/columns-corpus"],
            ["ingest", "--manifest", "{root}/interleaved.json", "--out", "{root}/interleaved-corpus"],
            ["export-plots", "--trial", "{trial}", "--out", "{root}/series.csv"],
        ],
        ids=["detect-stream-threshold", "detect-stream-model", "ingest-columns", "ingest-interleaved", "export-plots"],
    )
    def test_no_command_loads_numpy_ma(self, argv, inputs):
        trial = sorted((inputs / "corpus" / "trials").glob("*.csv"))[0]
        args = [arg.format(root=inputs, trial=trial) for arg in argv]
        with open(trial, "rb") as stdin:  # the stream detect-stream reads
            done = fresh_python(NUMPY_MA_PROBE, *args, stdin=stdin)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == b"0 False"

    def test_the_probe_sees_np_median_load_it(self, inputs):
        done = fresh_python("import sys, numpy as np; np.median([1.0, 2.0]); print('numpy.ma' in sys.modules)")
        assert done.stdout.strip() == b"True"
