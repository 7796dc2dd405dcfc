import io
import json
import time
import warnings

import numpy as np
import pytest

from test_datasets import columns_manifest, write_columns_trial
from wristfall.cli import main
from wristfall.datasets import CANONICAL_HEADER, read_canonical, read_canonical_trial, save_manifest
from wristfall.errors import CanonicalFormatError
from wristfall.evaluation import DetectorSpec, run_experiment, split_subjects
from wristfall.ml import save_model
from wristfall.synthetic import synthesize
from wristfall.threshold import load_threshold_config, save_threshold_config


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synthesize", "--seed", "11", "--subjects", "5", "--trials-per-subject", "12", "--out", str(out)]) == 0
    return out


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

    def test_manifest_dir_env(self, tmp_path, monkeypatch, capsys):
        manifest_path = self.make_raw(tmp_path)
        monkeypatch.setenv("WRISTFALL_MANIFEST_DIR", str(manifest_path.parent))
        out = tmp_path / "canon"
        assert main(["ingest", "--manifest", "manifest", "--out", str(out)]) == 0


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

    def test_missing_corpus(self, tmp_path):
        assert main(["evaluate", "--corpus", str(tmp_path / "nope"), "--detector", "threshold", "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "command",
        [["calibrate"], ["train", "--kind", "svm"], ["evaluate", "--detector", "svm"]],
        ids=["calibrate", "train", "evaluate"],
    )
    def test_unexpected_error_is_internal(self, command, corpus_dir, tmp_path, monkeypatch, capsys):
        """Only a data error gets a stage label and exit 3; a bug is exit 4 in every command."""

        def boom(spec, dev_windows, seed):
            raise RuntimeError("boom")

        monkeypatch.setattr("wristfall.evaluation.fit_detector", boom)
        assert main([command[0], "--corpus", str(corpus_dir), *command[1:], "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == "internal error: boom\n"


def edit_index_entry(corpus, **changes):
    """Change the first entry of the corpus's index.jsonl."""
    path = corpus / "index.jsonl"
    first, rest = path.read_text().split("\n", 1)
    path.write_text(json.dumps({**json.loads(first), **changes}) + "\n" + rest)


def keep_index_entries(corpus, keep):
    path = corpus / "index.jsonl"
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines() if keep(json.loads(line))))


def empty_dev_trial(corpus):
    """Cut a development subject's trial file (at seed 0) to its header."""
    subjects = [json.loads(line)["subject_id"] for line in (corpus / "index.jsonl").read_text().splitlines()]
    dev_subject = split_subjects(subjects, 0).dev_subjects[0]
    sorted(corpus.glob(f"trials/{dev_subject}_*.csv"))[0].write_text(CANONICAL_HEADER + "\n")


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

    FAULTS = {  # fault -> (how to make it, stage label for threshold, for svm; None: named by the index line)
        "subject_id-int": (lambda c: edit_index_entry(c, subject_id=5), None, None),
        "sample_rate_hz-nan": (lambda c: edit_index_entry(c, sample_rate_hz=float("nan")), None, None),
        "header-only-trial": (empty_dev_trial, "calibration", "training"),
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
        make(corpus_dir)
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
            assert "index.jsonl:1: " in fit_lines[0] and not fit_lines[0].startswith("error: [")
        else:
            assert fit_lines[0].startswith(f"error: [{label}] ")


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
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
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


class TestExportPlots:
    def test_trial_series(self, corpus_dir, tmp_path):
        trial_csv = sorted(corpus_dir.glob("trials/*.csv"))[0]
        out = tmp_path / "series.csv"
        assert main(["export-plots", "--trial", str(trial_csv), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,smv_acc,smv_gyr,fi,avd"
        n_samples = len(trial_csv.read_text().strip().splitlines()) - 1
        assert len(lines) == n_samples + 1

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
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "detector,dataset,accuracy_pct,sensitivity_pct,specificity_pct"
        assert len(lines) == len(detectors) + 1
        for line in lines[1:]:
            detector, dataset, acc, se, sp = line.split(",")
            doc = expected[detector + "|" + dataset]
            assert float(acc) == doc["accuracy_pct"]
            assert float(se) == doc["sensitivity_pct"]
            assert float(sp) == doc["specificity_pct"]

    def test_exactly_one_mode(self, tmp_path):
        assert main(["export-plots", "--out", str(tmp_path / "x.csv")]) == 3


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
    """An index.jsonl line for a trial file of the `corpus_dir` corpus under a new trial id, with `changes` made."""
    entry = {
        "trial_id": "S01_SYN_ADL_000_again",
        "subject_id": "S01",
        "activity_code": "SYN_ADL",
        "label": "ADL",
        "sample_rate_hz": 25.0,
        "source": "Synthetic",
        "path": "trials/S01_SYN_ADL_000.csv",
    }
    return json.dumps({**entry, **changes}).encode() + b"\n"


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
            "knn-k-0": model_file("knn", lambda d: (d["params"].update(k=0), d["state"].update(k=0))),
            "knn-k-float": model_file("knn", lambda d: (d["params"].update(k=1.0), d["state"].update(k=1.0))),
            "knn-X-columns": model_file("knn", lambda d: d["state"].update(X=[[0.0] * 43, [1.0] * 43])),
            "knn-y-2": model_file("knn", lambda d: d["state"].update(y=[0, 2])),
            "knn-y-short": model_file("knn", lambda d: d["state"].update(y=[0])),
        },
        "threshold_config": {
            "undecodable": b"smv_acc = 2.5  # \xff\n",
            "malformed": b"smv = 2.5\n",  # no such signal
            "bad_key": b"# no signal enabled\n",
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
        },
        "report": {
            "undecodable": b'{"detector": "svm\xff"}\n',
            "malformed": b"{\n",
            "bad_key": b'{"detector": "svm", "dataset": "d"}\n',
        },
    }

    # bad_key: a key missing, or (index.jsonl, where a missing key is already a data error) a value of no use;
    # the further model faults are each one value of a valid model file changed
    @pytest.mark.parametrize("target,fault", [(target, fault) for target, faults in FAULTS.items() for fault in faults])
    def test_bad_file_is_a_data_error_naming_it(self, target, fault, corpus_dir, tmp_path, monkeypatch, capsys):
        content = self.FAULTS[target][fault]
        if target == "index":
            path = corpus_dir / "index.jsonl"
            path.write_bytes(path.read_bytes() + content)
            argv = ["evaluate", "--corpus", str(corpus_dir), "--detector", "knn", "--out", str(tmp_path / "ev")]
        else:
            path = tmp_path / f"faulty-{target}.file"
            path.write_bytes(content)
            flag = {"model": "--model", "threshold_config": "--threshold-config", "report": "--report"}[target]
            command = "export-plots" if target == "report" else "detect-stream"
            argv = [command, flag, str(path)] + (["--out", str(tmp_path / "x.csv")] if target == "report" else [])
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error" not in err
        assert path.name in err

    def test_unchanged_index_entry_reads(self, corpus_dir, tmp_path, capsys):
        """The base of the index faults above reads, so each fault is its one change."""
        path = corpus_dir / "index.jsonl"
        path.write_bytes(path.read_bytes() + index_entry())
        assert main(["evaluate", "--corpus", str(corpus_dir), "--detector", "knn", "--out", str(tmp_path / "ev")]) == 0
        assert len(read_canonical(corpus_dir)) == 61

    @pytest.mark.parametrize("kind", ["knn", "rf", "svm"])
    def test_unchanged_model_file_loads(self, kind, tmp_path, monkeypatch, capsys):
        """The base of the model faults above is a valid model file, so each fault is its one change."""
        path = tmp_path / "model.json"
        path.write_bytes(model_file(kind))
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{i * 0.04!r},0,0,1,0,0,0\n" for i in range(100))))
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
            ("evaluate", "threshold", {"grids": {"smv_acc": [1.5, 6.0, 0]}}, "smv_acc"),
            ("evaluate", "threshold", {"grids": {"fi": [10.0, 0.5, 0.05]}}, "fi"),
            ("evaluate", "threshold", {"grids": [1]}, "grids"),
            ("evaluate", "threshold", {"grids": 5}, "grids"),
            ("evaluate", "threshold", {"grids": {"smv_acc": [0, 1e9, 1e-9]}}, "grid for smv_acc"),
            ("evaluate", "threshold", {"grids": {"fi": [0, 1e300, 1e-300]}}, "grid for fi"),
            ("evaluate", "threshold", {"grids": {"avd": [0, 10**400, 1]}}, "grid for avd"),
            ("train", "svm", {"lam": 10**400}, "lam"),
        ],
        ids=["knn-k", "svm-epochs", "rf-mtry", "rf-n_trees", "rf-max_depth", "svm-lam", "knn-k-float",
             "threshold-k", "grid-step-0", "grid-hi-below-lo", "grids-list", "grids-int", "grid-1e18-points",
             "grid-infinite-points", "grid-int-beyond-float", "svm-lam-int-beyond-float"],
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


class TestWindowSeconds:
    """--window-seconds must be finite and positive in every command that takes it (exit 2)."""

    COMMANDS = {
        "calibrate": ["calibrate", "--corpus", "c", "--out", "o"],
        "train": ["train", "--corpus", "c", "--kind", "knn", "--out", "o"],
        "evaluate": ["evaluate", "--corpus", "c", "--detector", "knn", "--out", "o"],
        "detect-stream": ["detect-stream", "--threshold-config", "t.cfg"],
    }

    def run(self, argv, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{i * 0.04!r},0,0,1,0,0,0\n" for i in range(100))))
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

    def test_config_file_unknown_keys_fatal(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sneaky": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "synthesize", "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
