import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_recording
from wristfall import datasets
from wristfall.cli import main
from wristfall.core import Label, Source, segment
from wristfall.datasets import (
    CANONICAL_HEADER,
    DatasetManifest,
    LayoutSpec,
    ingest,
    load_manifest,
    parse_canonical_row,
    parse_canonical_rows,
    parse_trial_file,
    read_canonical,
    read_canonical_trial,
    save_manifest,
    write_canonical,
)
from wristfall.errors import CanonicalFormatError, DataError
from wristfall.evaluation import split_subjects
from wristfall.signals import derive_all, smv
from wristfall.synthetic import synthesize
from wristfall.threshold import calibrate, detect


def columns_manifest(root):
    """Whitespace-delimited files in SI units, no timestamp column, decoy files."""
    return DatasetManifest(
        source=Source.ERCIYES,
        root=root,
        tasks={
            "A01": (Label.ADL, "walking"),
            "F01": (Label.FALL, "forward fall"),
        },
        layout=LayoutSpec(
            file_glob="sub*/*/trial_*/wrist.txt",
            path_regex=r"(?P<subject>sub\d+)/(?P<code>[A-Z0-9]+)/trial_(?P<trial>\d+)/wrist\.txt$",
            mode="columns",
            delimiter=None,
            comment_prefix="%",
            acc_columns=(0, 1, 2),
            gyr_columns=(3, 4, 5),
            acc_unit="m/s2",
            gyr_unit="rad/s",
        ),
        nominal_rate_hz=25.0,
    )


def write_columns_trial(root, subject, code, trial, acc_ms2, gyr_rads):
    d = root / subject / code / f"trial_{trial}"
    d.mkdir(parents=True, exist_ok=True)
    lines = ["% synthetic wrist unit capture", "% acc[m/s2] x y z, gyr[rad/s] x y z"]
    for a, g in zip(acc_ms2, gyr_rads):
        lines.append(" ".join(repr(float(v)) for v in (*a, *g)))
    (d / "wrist.txt").write_text("\n".join(lines) + "\n")
    # decoy sensor position that the glob must ignore
    (d / "chest.txt").write_text("0 0 0 0 0 0\n")


class TestColumnsAdapter:
    def test_parses_and_converts_units(self, tmp_path):
        n = 80
        rng = np.random.default_rng(50)
        acc_ms2 = rng.normal(0, 1, (n, 3)) + np.array([0, 0, 9.80665])
        gyr_rads = rng.normal(0, 0.5, (n, 3))
        write_columns_trial(tmp_path, "sub01", "A01", 1, acc_ms2, gyr_rads)
        trials, report = ingest(columns_manifest(tmp_path))
        assert report.n_trials == 1
        assert report.n_adl == 1 and report.n_fall == 0
        rec = trials[0]
        assert rec.subject_id == "sub01"
        assert rec.activity_code == "A01"
        assert rec.label is Label.ADL
        assert rec.source is Source.ERCIYES
        np.testing.assert_allclose(rec.acc, acc_ms2 / 9.80665)
        np.testing.assert_allclose(rec.gyr, gyr_rads * 180.0 / math.pi)
        np.testing.assert_allclose(rec.t, np.arange(n) / 25.0)

    def test_unknown_activity_code_reported_not_raised(self, tmp_path):
        n = 60
        acc = np.tile([0, 0, 9.80665], (n, 1))
        write_columns_trial(tmp_path, "sub01", "Z99", 1, acc, np.zeros((n, 3)))
        write_columns_trial(tmp_path, "sub01", "A01", 1, acc, np.zeros((n, 3)))
        trials, report = ingest(columns_manifest(tmp_path))
        assert report.n_trials == 1
        assert len(report.skipped) == 1
        path, reason = report.skipped[0]
        assert "Z99" in reason and "task table" in reason

    def test_corrupt_file_skipped_with_reason(self, tmp_path):
        n = 60
        acc = np.tile([0, 0, 9.80665], (n, 1))
        write_columns_trial(tmp_path, "sub01", "A01", 1, acc, np.zeros((n, 3)))
        bad_dir = tmp_path / "sub01" / "F01" / "trial_1"
        bad_dir.mkdir(parents=True)
        (bad_dir / "wrist.txt").write_text("1 2 three 4 5 6\n")
        trials, report = ingest(columns_manifest(tmp_path))
        assert report.n_trials == 1
        assert any("line 1" in reason for _, reason in report.skipped)

    def test_bad_timestamp_names_its_row(self, tmp_path):
        manifest = columns_manifest(tmp_path)
        manifest = dataclasses.replace(manifest, layout=dataclasses.replace(manifest.layout, time_column=6))
        d = tmp_path / "sub01" / "A01" / "trial_1"
        d.mkdir(parents=True)
        rows = [f"0 0 9.8 0 0 0 {i / 25.0!r}" for i in range(60)]
        rows[2] = "0 0 9.8 0 0 0 0.O8"
        (d / "wrist.txt").write_text("\n".join(rows) + "\n")
        trials, report = ingest(manifest)
        assert trials == []
        [(_, reason)] = report.skipped
        assert reason.startswith("line 3: ") and "0.O8" in reason

    def test_nan_values_fail_validation(self, tmp_path):
        n = 60
        acc = np.tile([0, 0, 9.80665], (n, 1))
        acc[5, 0] = np.nan
        write_columns_trial(tmp_path, "sub02", "A01", 1, acc, np.zeros((n, 3)))
        trials, report = ingest(columns_manifest(tmp_path))
        assert report.n_trials == 0
        assert any("non-finite" in reason for _, reason in report.skipped)

    def test_empty_directory(self, tmp_path):
        trials, report = ingest(columns_manifest(tmp_path))
        assert trials == []
        assert report.n_trials == 0
        assert report.skipped == []

    def test_missing_root(self, tmp_path):
        root = tmp_path / "nope"
        with pytest.raises(DataError, match=f"^{re.escape(f'manifest root {root} is not a readable directory')}$"):
            ingest(columns_manifest(root))


def interleaved_manifest(root):
    """Semicolon-delimited rows tagged with sensor type and body-position id."""
    return DatasetManifest(
        source=Source.UMAFALL,
        root=root,
        tasks={"Walking": (Label.ADL, ""), "forwardFall": (Label.FALL, "")},
        layout=LayoutSpec(
            file_glob="*.csv",
            path_regex=r"UMA_(?P<subject>\d+)_(?P<code>[A-Za-z]+)_(?P<trial>\d+)\.csv$",
            mode="interleaved",
            delimiter=";",
            comment_prefix="%",
            time_column=0,
            time_unit="ms",
            sensor_type_column=5,
            acc_type_value="0",
            gyr_type_value="1",
            sensor_id_column=6,
            sensor_id_value="3",
            sample_no_column=1,
            value_columns=(2, 3, 4),
        ),
        nominal_rate_hz=20.0,
    )


def write_interleaved_trial(root, subject, code, trial, acc_g, gyr_dps, rate=20.0):
    lines = ["% timestamp; sample; x; y; z; type; id", "% type 0=acc 1=gyr 2=mag; id 3=wrist"]
    n = acc_g.shape[0]
    for i in range(n):
        t_ms = 1000.0 * i / rate
        a = [float(v) for v in acc_g[i]]
        g = [float(v) for v in gyr_dps[i]]
        lines.append(f"{t_ms!r};{i};{a[0]!r};{a[1]!r};{a[2]!r};0;3")
        lines.append(f"{t_ms + 1.0!r};{i};{g[0]!r};{g[1]!r};{g[2]!r};1;3")
        # decoy rows: magnetometer on the wrist, accelerometer on the ankle
        lines.append(f"{t_ms!r};{i};9.9;9.9;9.9;2;3")
        lines.append(f"{t_ms!r};{i};8.8;8.8;8.8;0;4")
    (root / f"UMA_{subject}_{code}_{trial}.csv").write_text("\n".join(lines) + "\n")


class TestInterleavedAdapter:
    def test_pairs_sensor_rows_and_filters_ids(self, tmp_path):
        rng = np.random.default_rng(51)
        n = 70
        acc = rng.normal(0, 0.2, (n, 3)) + np.array([0, 0, 1.0])
        gyr = rng.normal(0, 30, (n, 3))
        write_interleaved_trial(tmp_path, "07", "Walking", 2, acc, gyr)
        trials, report = ingest(interleaved_manifest(tmp_path))
        assert report.n_trials == 1
        rec = trials[0]
        assert rec.subject_id == "07"
        assert rec.label is Label.ADL
        np.testing.assert_allclose(rec.acc, acc)
        np.testing.assert_allclose(rec.gyr, gyr)
        np.testing.assert_allclose(np.diff(rec.t), 1.0 / 20.0)
        assert rec.t[0] == 0.0

    def test_no_wrist_rows_is_reported(self, tmp_path):
        lines = ["% header", "0.0;0;1;1;1;0;4", "0.0;0;1;1;1;1;4"]
        (tmp_path / "UMA_01_Walking_1.csv").write_text("\n".join(lines) + "\n")
        trials, report = ingest(interleaved_manifest(tmp_path))
        assert report.n_trials == 0
        assert any("no paired" in reason for _, reason in report.skipped)

    def test_infinite_sample_number_or_timestamp_is_a_skip(self, tmp_path, monkeypatch):
        """No exit 4 and no numpy warning, whether ingest reads the files serially or forked."""
        rng = np.random.default_rng(52)
        for trial in range(1, 5):
            acc = rng.normal(0, 0.2, (60, 3)) + np.array([0, 0, 1.0])
            write_interleaved_trial(tmp_path, "01", "Walking", trial, acc, rng.normal(0, 30, (60, 3)))
        for trial, first_row in ((2, "0.0;inf;0.9;0.2;0.3;0;3"), (3, "1e999;0;0.9;0.2;0.3;0;3")):
            path = tmp_path / f"UMA_01_Walking_{trial}.csv"
            lines = path.read_text().split("\n")
            lines[2] = first_row
            path.write_text("\n".join(lines))

        def run(tag):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trials, report = ingest(interleaved_manifest(tmp_path))
            return [rec.trial_id for rec in trials], report.skipped

        serial, forked = serial_and_forked(monkeypatch, run)
        assert serial == forked == (
            ["01_Walking_1", "01_Walking_4"],
            [
                ("UMA_01_Walking_2.csv", "line 3: cannot convert float infinity to integer"),
                ("UMA_01_Walking_3.csv", "recording '01_Walking_3' invalid: non-finite timestamp"),
            ],
        )


# Fields that `float` and np.loadtxt may read differently, or that make a row bad; '1e999' is read as inf.
RAW_ODD_FIELDS = ("\x1c9", "1_000", "nan", "inf", "-inf", "1e999", "1e", "", "-0.0", "+2", "1E2", ".5", "3.")


@st.composite
def raw_file(draw):
    """(text, layout): a raw trial file of either layout after comment, blank and header lines, some of its lines
    edited: an odd field, extra or missing columns, a comment prefix inside a line; '\n' or '\r\n' endings."""
    mode = draw(st.sampled_from(["columns", "interleaved"]))
    prefix = draw(st.sampled_from(["%", "#"]))
    skip = draw(st.integers(0, 2))
    lines = draw(st.lists(st.sampled_from([prefix + " a comment", prefix, "", "   ", "t x y z"]), max_size=4))
    lines += ["t x y z header"] * skip
    value = st.floats(-1e3, 1e3).map(repr)
    rows = []
    for i in range(draw(st.integers(1, 8))):
        if mode == "columns":
            rows.append([repr(i / 25.0)] + [draw(value) for _ in range(6)])
            continue
        for kind in ("0", "1"):  # an accelerometer and a gyroscope row of sample i
            sample = draw(st.sampled_from([str(i)] * 6 + [str(max(i - 1, 0)), "1e999", "2.7", "-0.5", "-0"]))
            kind = draw(st.sampled_from([kind] * 8 + ["2", "00", "1.0"]))
            sensor = draw(st.sampled_from(["3"] * 8 + ["03", "3.0", "4"]))
            rows.append([repr(i * 50.0), sample, draw(value), draw(value), draw(value), kind, sensor])
    for fields in rows:
        edit = draw(st.integers(0, 30))
        if edit == 1:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(RAW_ODD_FIELDS))
        elif edit == 2:
            fields += draw(st.lists(value, min_size=1, max_size=2))  # ragged extra columns
        elif edit == 3:
            del fields[draw(st.integers(0, len(fields) - 1))]
        line = (" " if mode == "columns" else ";").join(fields)
        if edit == 4:
            at = draw(st.integers(1, len(line)))
            line = line[:at] + prefix + line[at:]
        elif edit == 5:
            lines.append(draw(st.sampled_from([prefix + "x", ""])))
        lines.append(line)
    time_column = draw(st.sampled_from([None, 6] if mode == "columns" else [None, 0]))
    if mode == "columns":
        layout = LayoutSpec(file_glob="*", path_regex="", delimiter=None, time_column=time_column, time_unit="ms")
    else:
        layout = dataclasses.replace(interleaved_manifest(Path(".")).layout, time_column=time_column)
    layout = dataclasses.replace(layout, comment_prefix=prefix, skip_header_lines=skip)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + ending, layout


def parsed(path, layout):
    """parse_trial_file's arrays as bytes, or the type and message of the DataError it raises."""
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in parse_trial_file(path, layout, 20.0)]
    except DataError as exc:
        return type(exc), str(exc)


class TestParseTrialFile:
    """A file of plain numbers is parsed by np.loadtxt; it gives the arrays and errors of the row loop."""

    @settings(max_examples=400, deadline=None)
    @given(raw_file())
    def test_plain_parse_equals_row_loop(self, tmp_path_factory, case):
        text, layout = case
        path = tmp_path_factory.mktemp("raw") / "trial.txt"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = parsed(path, layout)
            with mock.patch.object(datasets, "_is_plain", lambda lines, layout: False):
                want = parsed(path, layout)
        assert got == want

    @pytest.mark.parametrize("mode", ["columns", "interleaved"])
    def test_a_plain_file_takes_loadtxt(self, tmp_path, mode):
        rng = np.random.default_rng(53)
        acc, gyr = rng.normal(0, 1, (40, 3)), rng.normal(0, 1, (40, 3))
        if mode == "columns":
            write_columns_trial(tmp_path, "sub01", "A01", 1, acc, gyr)
            manifest, path = columns_manifest(tmp_path), tmp_path / "sub01/A01/trial_1/wrist.txt"
        else:
            write_interleaved_trial(tmp_path, "01", "Walking", 1, acc, gyr)
            manifest, path = interleaved_manifest(tmp_path), tmp_path / "UMA_01_Walking_1.csv"
        results = []

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        real = datasets._loadtxt
        with mock.patch.object(datasets, "_loadtxt", spy):
            t, acc_read, gyr_read = parse_trial_file(path, manifest.layout, manifest.nominal_rate_hz)
        assert len(results) == (1 if mode == "columns" else 2) and all(r is not None for r in results)
        assert t.shape == (40,) and acc_read.shape == gyr_read.shape == (40, 3)

    def test_header_lines_are_counted_after_comment_and_blank_lines(self, tmp_path):
        layout = LayoutSpec(file_glob="*", path_regex="", comment_prefix="%", skip_header_lines=1)
        path = tmp_path / "trial.txt"
        path.write_text("% recorded at the wrist\n\nax ay az gx gy gz\n1 2 3 4 5 6\n% pause\n7 8 9 10 11 12\n")
        t, acc, gyr = parse_trial_file(path, layout, 25.0)
        assert acc.tolist() == [[1, 2, 3], [7, 8, 9]] and gyr.tolist() == [[4, 5, 6], [10, 11, 12]]
        assert t.tolist() == [0.0, 0.04]

    @pytest.mark.parametrize("mode", ["columns", "interleaved"])
    def test_a_bad_value_names_its_file_line(self, tmp_path, mode):
        """Line 4, after a comment and a blank line, is the second data row: the message names line 4."""
        if mode == "columns":
            layout, rows = LayoutSpec(file_glob="*", path_regex="", comment_prefix="%"), ["0 0 1 0 0 0", "0 0 x 0 0 0"]
        else:
            layout, rows = interleaved_manifest(tmp_path).layout, ["0;0;0;0;1;0;3", "40;0;0;0;x;1;3"]
        path = tmp_path / "trial.txt"
        path.write_text("\n".join(["% header", "", *rows, *rows[:1]]) + "\n")
        with pytest.raises(DataError, match="^line 4: could not convert string to float: 'x'$"):
            parse_trial_file(path, layout, 25.0)

    @pytest.mark.parametrize("char", ["\x1c", "\x85", "\u2028"], ids=["x1c", "x85", "u2028"])
    @pytest.mark.parametrize("delimiter", [None, ";"], ids=["whitespace", "semicolon"])
    def test_only_a_newline_ends_a_line(self, delimiter, char, tmp_path):
        """A line holding another break that str.splitlines knows stays one line: one sample of a whitespace layout,
        whose extra fields are ignored, and a bad line of a ';' layout. Lines are numbered as the file's."""
        layout = LayoutSpec(file_glob="*", path_regex="", delimiter=delimiter)
        row = (delimiter or " ").join(["0", "0", "1", "0", "0", "0"])
        path = tmp_path / "trial.txt"
        path.write_text("\n".join([row, row + char + row, row]) + "\n", encoding="utf-8")
        if delimiter is None:
            t, acc, gyr = parse_trial_file(path, layout, 25.0)
            assert acc.tolist() == [[0, 0, 1]] * 3 and gyr.tolist() == [[0, 0, 0]] * 3
            path.write_text("\n".join([row, row + char + row, "0 0 x 0 0 0"]) + "\n", encoding="utf-8")
            message = "line 3: could not convert string to float: 'x'"
        else:
            message = f"line 2: could not convert string to float: {'0' + char + '0'!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            parse_trial_file(path, layout, 25.0)


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        manifest = interleaved_manifest(tmp_path / "raw")
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.source is Source.UMAFALL
        assert loaded.tasks == manifest.tasks
        assert loaded.layout == manifest.layout
        assert loaded.nominal_rate_hz == manifest.nominal_rate_hz
        assert loaded == manifest

    def test_round_trip_of_every_field(self, tmp_path):
        manifest = dataclasses.replace(
            columns_manifest(tmp_path / "raw"), sensor_position="wrist(left)", expected={"participants": 2}
        )
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        assert set(json.loads(path.read_text())["layout"]) == {f.name for f in dataclasses.fields(LayoutSpec)}
        assert load_manifest(path) == manifest

    def test_unknown_keys_rejected(self, tmp_path):
        manifest = columns_manifest(tmp_path)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        doc = json.loads(path.read_text())
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="unknown manifest keys"):
            load_manifest(path)

    def test_relative_root_resolved_against_manifest_dir(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        manifest = columns_manifest(raw)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        doc = json.loads(path.read_text())
        doc["root"] = "raw"
        path.write_text(json.dumps(doc))
        assert load_manifest(path).root == tmp_path / "raw"


class TestCanonical:
    def test_single_trial_round_trip(self, tmp_path):
        trials = synthesize(seed=3, n_subjects=2, trials_per_subject=2)[:1]
        write_canonical(trials, tmp_path)
        back = read_canonical(tmp_path)
        assert len(back) == 1
        a, b = trials[0], back[0]
        assert (a.trial_id, a.subject_id, a.activity_code, a.label, a.sample_rate_hz, a.source) == (
            b.trial_id,
            b.subject_id,
            b.activity_code,
            b.label,
            b.sample_rate_hz,
            b.source,
        )
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.acc, b.acc)
        np.testing.assert_array_equal(a.gyr, b.gyr)

    def test_corpus_round_trip_and_byte_stability(self, tmp_path, synth_trials):
        first = tmp_path / "one"
        write_canonical(synth_trials, first)
        back = read_canonical(first)
        assert len(back) == len(synth_trials)
        by_id = {t.trial_id: t for t in synth_trials}
        for rec in back:
            orig = by_id[rec.trial_id]
            np.testing.assert_array_equal(rec.t, orig.t)
            np.testing.assert_array_equal(rec.acc, orig.acc)
            np.testing.assert_array_equal(rec.gyr, orig.gyr)
            assert rec.label is orig.label

        second = tmp_path / "two"
        write_canonical(back, second)
        assert (second / "index.jsonl").read_bytes() == (first / "index.jsonl").read_bytes()
        for path in sorted(first.glob("trials/*.csv")):
            assert (second / "trials" / path.name).read_bytes() == path.read_bytes()

    def test_non_monotonic_timestamps_rejected_with_line_number(self, tmp_path):
        trial_dir = tmp_path / "trials"
        trial_dir.mkdir(parents=True)
        rows = [
            "t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z",
            "0.0,0,0,1,0,0,0",
            "0.04,0,0,1,0,0,0",
            "0.04,0,0,1,0,0,0",
        ]
        (trial_dir / "bad.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(CanonicalFormatError) as err:
            read_canonical_trial(trial_dir / "bad.csv")
        assert err.value.line_no == 4
        assert "increasing" in str(err.value)

    def test_malformed_field_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z\n0.0,1,2,3\n")
        with pytest.raises(CanonicalFormatError) as err:
            read_canonical_trial(p)
        assert err.value.line_no == 2

    def test_rows_are_repr_of_each_value(self, tmp_path):
        awkward = [-0.0, 5e-324, 0.1 + 0.2, 1e16, 1 / 3, -2.5e-310]
        t = np.array([0.0, 5e-324, 0.1 + 0.2, 1 / 3, 1e16])
        acc = np.resize(awkward, (5, 3))
        gyr = np.resize(awkward[::-1], (5, 3))
        rec = make_recording(t, acc, gyr, trial_id="awkward")
        write_canonical([rec], tmp_path)
        path = tmp_path / "trials" / "awkward.csv"
        expected = [",".join(repr(float(v)) for v in (t[i], *acc[i], *gyr[i])) for i in range(5)]
        assert path.read_text().splitlines() == [CANONICAL_HEADER, *expected]
        back = read_canonical_trial(path)
        for got, want in zip(back, (t, acc, gyr)):
            assert got.tobytes() == want.tobytes()

    def test_missing_index(self, tmp_path):
        with pytest.raises(DataError, match=f"^{re.escape(f'no index.jsonl under {tmp_path}')}$"):
            read_canonical(tmp_path)

    # a repeated id would write one file for two trials and list the id twice, which read_index refuses; an id
    # holding a '/' would name a file outside trials/ or in a directory that is not there
    @pytest.mark.parametrize(
        "ids,message",
        [
            (("S01_A", "S01_A"), "trial id 'S01_A' repeats"),
            (("S01_A", "../escape"), "trial id '../escape' holds a character outside"),
            (("S01_A", "a/b"), "trial id 'a/b' holds a character outside"),
        ],
        ids=["repeated", "parent-dir", "sub-dir"],
    )
    @pytest.mark.parametrize("existing", [False, True], ids=["fresh-out", "existing-corpus"])
    def test_an_id_that_is_not_one_file_in_trials_is_refused_before_any_file_moves(
        self, ids, message, existing, tmp_path
    ):
        out = tmp_path / "corpus"
        if existing:
            write_canonical(synthesize(seed=5, n_subjects=2, trials_per_subject=2), out)

        def tree():  # every path under tmp_path, with each file's bytes
            return {p.relative_to(tmp_path).as_posix(): p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

        before = tree()
        trials = [make_recording(np.arange(10) / 25, np.zeros((10, 3)), trial_id=tid) for tid in ids]
        with pytest.raises(DataError, match=re.escape(message)):
            write_canonical(trials, out)
        assert tree() == before
        assert out.exists() == existing

    @given(parts=st.tuples(st.text(max_size=6), st.text(max_size=6), st.text(max_size=6)))
    @settings(max_examples=25, deadline=None)
    def test_every_id_ingest_makes_is_written(self, parts, tmp_path_factory):
        out = tmp_path_factory.mktemp("corpus")
        tid = datasets._trial_id(*parts)
        write_canonical([make_recording(np.arange(10) / 25, np.zeros((10, 3)), trial_id=tid)], out)
        assert [json.loads(line)["trial_id"] for line in (out / "index.jsonl").read_text().splitlines()] == [tid]
        assert (out / "trials" / f"{tid}.csv").is_file()


# Characters that numpy and float() treat differently, or that make a row bad.
ODD_CHARS = ("\x1c", "\x1f", "\xa0", " ", "\t", "\r", "_", ",", "é", "\udc80")
ODD_LINES = ("", "   ", " \t ", "\x1c", CANONICAL_HEADER, " " + CANONICAL_HEADER)
ODD_FIELDS = ("nan", "-inf", "1e308", "1e309", "1_0", "-0.0", "5e-324", "", "0x1", "1E5", "E5", "1E")


@st.composite
def canonical_block(draw):
    """(lines, prev_t): repr rows of increasing t, some of them mutated."""
    n = draw(st.integers(0, 10))
    t = draw(st.sampled_from([0.0, -3.5, 1e9]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lines = []
    for _ in range(n):
        t += draw(st.sampled_from([0.04, 0.04, 0.04, 0.04, 1e-7, 0.0, -0.04]))
        fields = [repr(v) for v in (t, *draw(st.lists(finite, min_size=6, max_size=6)))]
        mutation = draw(st.integers(0, 14))
        if mutation == 1:
            fields[draw(st.integers(0, 6))] = draw(st.sampled_from(ODD_FIELDS))
        elif mutation == 2:
            fields[draw(st.integers(0, 6))] = draw(st.text(alphabet="0123456789.eE+-", max_size=5))
        elif mutation == 3:
            del fields[draw(st.integers(0, 6))]
        line = ",".join(fields)
        if mutation == 4:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(ODD_CHARS)) + line[at:]
        elif mutation == 5:
            line = draw(st.sampled_from(ODD_LINES))
        lines.append(line)
    prev_t = draw(st.sampled_from([-math.inf, t - 1.0, t, 0.0]))
    return lines, prev_t


class TestParseCanonicalRows:
    @staticmethod
    def row_loop(lines, prev_t):
        rows, bad = [], []
        for index, line in enumerate(lines):
            try:
                row = parse_canonical_row(line, prev_t)
            except ValueError as exc:
                bad.append((index, str(exc)))
                continue
            prev_t = row[0]
            rows.append(row)
        return np.array(rows, dtype=float).reshape(-1, 7), bad

    @settings(max_examples=400, deadline=None)
    @given(canonical_block())
    def test_block_equals_row_loop(self, block):
        lines, prev_t = block
        want_values, want_bad = self.row_loop(lines, prev_t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, bad = parse_canonical_rows(lines, prev_t)
        assert bad == want_bad
        assert values.dtype == np.float64
        assert values.shape == want_values.shape
        assert values.tobytes() == want_values.tobytes()

    def test_clean_block_is_parsed_without_the_row_parser(self, monkeypatch):
        def no_row_parser(line, prev_t):
            raise AssertionError("row parser called on a clean block")

        monkeypatch.setattr("wristfall.datasets.parse_canonical_row", no_row_parser)
        lines = [",".join(repr(v) for v in (0.04 * i, -0.0, 1e-300, 1.5, 5e-324, 2.0, 1e16)) for i in range(1, 4)]
        values, bad = parse_canonical_rows(lines, 0.0)
        assert bad == []
        assert values.tobytes() == np.array([[float(f) for f in line.split(",")] for line in lines]).tobytes()

    def test_first_bad_row_names_its_line(self, tmp_path):
        rows = [CANONICAL_HEADER, "0.0,0,0,1,0,0,0", "", "0.04,0,0,1,0,0,0", "0.08,0,\x1c0,1,0,0,0", "0.12,0,0,1,0,0,0"]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CanonicalFormatError) as err:
            read_canonical_trial(path)
        assert (err.value.line_no, err.value.reason) == (5, "non-numeric field")


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize(seed=42, n_subjects=3, trials_per_subject=4)
        b = synthesize(seed=42, n_subjects=3, trials_per_subject=4)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.trial_id == y.trial_id
            np.testing.assert_array_equal(x.acc, y.acc)
            np.testing.assert_array_equal(x.gyr, y.gyr)

    def test_class_peak_separation(self, synth_trials):
        for rec in synth_trials:
            peak = max(float(np.max(smv(w, "acc"))) for w in segment(rec))
            if rec.label is Label.FALL:
                assert peak > 2.5
            else:
                assert peak < 2.0

    def test_all_trials_valid(self, synth_trials):
        for rec in synth_trials:
            rec.validate()

    def test_calibrated_threshold_is_perfectly_sensitive_on_dev(self, synth_trials):
        split = split_subjects((r.subject_id for r in synth_trials), seed=0)
        dev_windows = [
            w for r in synth_trials if r.subject_id in split.dev_subjects for w in segment(r)
        ]
        pairs = [(w, derive_all(w)) for w in dev_windows]
        config = calibrate(pairs, signals=("smv_acc",))
        verdicts = [(detect(w, d, config)[0], w.label) for w, d in pairs]
        falls = [v for v, actual in verdicts if actual is Label.FALL]
        assert falls and all(v is Label.FALL for v in falls)

    def test_requires_two_subjects(self):
        with pytest.raises(DataError):
            synthesize(seed=0, n_subjects=1)


def pool_manifest(root):
    """columns_manifest whose subject may be any directory name, so that two directories can give one trial id."""
    manifest = columns_manifest(root)
    layout = dataclasses.replace(
        manifest.layout,
        file_glob="*/*/trial_*/wrist.txt",
        path_regex=r"(?P<subject>[^/]+)/(?P<code>[A-Z0-9]+)/trial_(?P<trial>\d+)/wrist\.txt$",
    )
    return dataclasses.replace(manifest, layout=layout)


def write_pool_corpus(root):
    """39 raw files: 34 trials and 5 skips, one of each kind, among them a duplicate trial id."""
    rng = np.random.default_rng(90)

    def trial(subject, code, n, row_8=None):
        acc = rng.normal(0, 1, (60, 3)) + np.array([0, 0, 9.80665])
        write_columns_trial(root, subject, code, n, acc, rng.normal(0, 0.5, (60, 3)))
        if row_8 is not None:  # after two comment lines
            path = root / subject / code / f"trial_{n}" / "wrist.txt"
            lines = path.read_text().split("\n")
            lines[9] = row_8
            path.write_text("\n".join(lines))

    for subject in ("sub01", "sub02", "sub03", "sub04"):
        for code in ("A01", "F01"):
            for n in range(1, 5):
                trial(subject, code, n)
    trial("sub 05", "A01", 1)
    trial("sub+05", "A01", 1)  # the trial id of "sub 05" again: a duplicate
    trial("sub 06", "F01", 1, row_8="0 9.8 three 0 0 0")  # a bad row, so the next file of this trial id is kept
    trial("sub+06", "F01", 1)
    trial("sub01", "Z99", 1)  # not in the task table
    trial("sub01", "a01", 1)  # does not match path_regex
    trial("sub07", "A01", 1, row_8="0 9.8 nan 0 0 0")  # fails validation


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def recording_key(rec):
    fields = (rec.trial_id, rec.subject_id, rec.activity_code, rec.label, rec.sample_rate_hz, rec.source)
    return fields + tuple(a.tobytes() for a in (rec.t, rec.acc, rec.gyr)) + (rec.acc.shape, rec.gyr.shape)


def serial_and_forked(monkeypatch, fn):
    """(fn("serial"), fn("forked")): `_map_files` first runs serially, then forks on every call from 2 items on."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(datasets, "MIN_FORK_ITEMS", 2)
    monkeypatch.setattr(datasets, "_usable_cpus", lambda: 1)
    serial = fn("serial")
    assert forks == []
    monkeypatch.setattr(datasets, "_usable_cpus", lambda: 3)
    forked = fn("forked")
    assert forks
    return serial, forked


def error_text(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


class TestMapFiles:
    """`_map_files` gives the serial loop's results and errors whether or not it forks."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 13])
    def test_results_in_input_order(self, n, cpus, monkeypatch):
        monkeypatch.setattr(datasets, "MIN_FORK_ITEMS", 2)
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: cpus)
        items = [f"item {i}" for i in range(n)]
        assert datasets._map_files(lambda x: (x, x.upper()), items) == [(x, x.upper()) for x in items]

    def test_a_fork_after_a_blas_call_warns_nothing(self):
        """Python 3.12+ warns (DeprecationWarning) when it forks with another thread alive: BLAS threads must not be.

        Under `-W error` CPython drops that warning without a trace, so it is shown (`always`) and stderr checked.
        """
        code = (
            "import numpy as np\n"
            "from wristfall import datasets\n"
            "a = np.arange(40000.0).reshape(200, 200)\n"
            "np.dot(a, a)\n"
            "datasets.MIN_FORK_ITEMS, datasets._usable_cpus = 2, lambda: 2\n"
            "assert datasets._map_files(lambda x: x * 2, list(range(8))) == list(range(0, 16, 2))\n"
        )
        src = str(Path(datasets.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-W", "always::DeprecationWarning", "-c", code], env=env, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_fewer_items_than_the_minimum_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: 2)
        items = list(range(datasets.MIN_FORK_ITEMS - 1))
        assert datasets._map_files(lambda x: os.getpid(), items) == [os.getpid()] * len(items)
        pids = datasets._map_files(lambda x: os.getpid(), items + [len(items)])
        assert pids[0::2] == [os.getpid()] * len(pids[0::2]) and os.getpid() not in pids[1::2]

    def test_ingest_serial_and_forked_agree(self, tmp_path, monkeypatch, capsys):
        raw = tmp_path / "raw"
        write_pool_corpus(raw)
        manifest_path = tmp_path / "manifest.json"
        save_manifest(pool_manifest(raw), manifest_path)

        def run(tag):
            out = tmp_path / tag
            code = main(["ingest", "--manifest", str(manifest_path), "--out", str(out)])
            printed = capsys.readouterr()
            trials, report = ingest(pool_manifest(raw))
            back = read_canonical(out)
            return code, printed.out, printed.err, read_tree(out), report, list(map(recording_key, trials)), back

        serial, forked = serial_and_forked(monkeypatch, run)
        assert serial[:-1] == forked[:-1]
        assert list(map(recording_key, serial[-1])) == list(map(recording_key, forked[-1]))
        code, printed, _, tree, report, trials, _ = forked
        assert code == 0 and printed == "34 trials (17 ADL / 17 fall), 6 subjects; skipped 5 files\n"
        assert json.loads(tree["ingest_report.json"])["n_trials"] == 34 == len(trials)
        assert dict(report.skipped) == {
            "sub 06/F01/trial_1/wrist.txt": "line 10: could not convert string to float: 'three'",
            "sub+05/A01/trial_1/wrist.txt": "duplicate trial id sub-05_A01_1",
            "sub01/Z99/trial_1/wrist.txt": "activity code 'Z99' not in task table",
            "sub01/a01/trial_1/wrist.txt": "path does not match the layout's path_regex",
            "sub07/A01/trial_1/wrist.txt": "recording 'sub07_A01_1' invalid: non-finite channel value",
        }
        assert "sub+06" in {t[1] for t in trials}

    def test_ingest_skips_a_file_that_is_not_utf8(self, tmp_path, monkeypatch):
        raw = tmp_path / "raw"
        write_pool_corpus(raw)
        write_columns_trial(raw, "sub08", "A01", 1, np.zeros((60, 3)), np.zeros((60, 3)))
        for path in (raw / "sub08/A01/trial_1/wrist.txt", raw / "sub+05/A01/trial_1/wrist.txt"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))

        def run(tag):
            trials, report = ingest(pool_manifest(raw))
            return report, list(map(recording_key, trials))

        serial, forked = serial_and_forked(monkeypatch, run)
        assert serial == forked
        skipped = dict(forked[0].skipped)
        assert skipped["sub08/A01/trial_1/wrist.txt"].startswith("'utf-8' codec can't decode byte 0xff in position")
        assert skipped["sub+05/A01/trial_1/wrist.txt"] == "duplicate trial id sub-05_A01_1"
        assert forked[0].n_trials == 34 and len(skipped) == 6

    def test_an_unreadable_file_stops_ingest_unless_it_is_a_duplicate(self, tmp_path, monkeypatch):
        raw = tmp_path / "raw"
        write_pool_corpus(raw)
        duplicate = raw / "sub+05/A01/trial_1/wrist.txt"
        duplicate.unlink()
        duplicate.mkdir()  # matches file_glob, but reading it raises IsADirectoryError
        serial, forked = serial_and_forked(monkeypatch, lambda _: ingest(pool_manifest(raw))[1].skipped)
        assert serial == forked and ("sub+05/A01/trial_1/wrist.txt", "duplicate trial id sub-05_A01_1") in forked
        (raw / "sub08/A01/trial_1/wrist.txt").mkdir(parents=True)
        serial, forked = serial_and_forked(monkeypatch, lambda _: error_text(ingest, pool_manifest(raw)))
        assert serial == forked and forked[0] is IsADirectoryError and "sub08/A01/trial_1/wrist.txt" in forked[1]

    def test_write_canonical_serial_and_forked_agree(self, tmp_path, monkeypatch, synth_trials):
        def run(tag):
            write_canonical(synth_trials, tmp_path / tag)
            return read_tree(tmp_path / tag), [recording_key(r) for r in read_canonical(tmp_path / tag)]

        serial, forked = serial_and_forked(monkeypatch, run)
        assert serial == forked
        assert sorted(map(recording_key, synth_trials)) == forked[1]

    @staticmethod
    def faulty_corpus(tmp_path, bad_trials, bad_line=None):
        """A 12-trial corpus whose trial files `bad_trials` (index order) have a short row and whose index line
        `bad_line` is not JSON; returns it and its trial paths."""
        corpus = tmp_path / "corpus"
        write_canonical(synthesize(seed=5, n_subjects=3, trials_per_subject=4), corpus)
        index = (corpus / "index.jsonl").read_text().splitlines()
        paths = [corpus / json.loads(line)["path"] for line in index]
        for i in bad_trials:
            lines = paths[i].read_text().split("\n")
            lines[4 + i] = lines[4 + i].rsplit(",", 1)[0]  # one field short
            paths[i].write_text("\n".join(lines))
        if bad_line is not None:
            index[bad_line - 1] = "{not json"
            (corpus / "index.jsonl").write_text("\n".join(index) + "\n")
        return corpus, paths

    # trial files made bad -> the one whose error is reported; with 3 CPUs the parent reads trials 0, 3, 6, 9 and
    # the two children 1, 4, 7, 10 and 2, 5, 8, 11
    FAULTS = {
        "first-in-a-child": ((4, 8, 9), 4),
        "first-in-the-parent": ((3, 5, 10), 3),
        "only-in-the-last-child": ((2,), 2),
    }

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_first_fault_in_index_order_is_raised(self, fault, tmp_path, monkeypatch):
        bad_trials, expected = self.FAULTS[fault]
        corpus, paths = self.faulty_corpus(tmp_path, bad_trials)
        serial, forked = serial_and_forked(monkeypatch, lambda _: error_text(read_canonical, corpus))
        assert serial == forked == (CanonicalFormatError, f"{paths[expected]}:{5 + expected}: expected 7 fields, got 6")

    @pytest.mark.parametrize(
        "bad_trials", [(), (8, 10), (1, 3)], ids=["no-bad-trial", "bad-trials-after", "bad-trials-before"]
    )
    def test_a_bad_index_line_is_raised_before_any_trial_file_is_read(self, bad_trials, tmp_path, monkeypatch):
        corpus, _ = self.faulty_corpus(tmp_path, bad_trials, bad_line=6)
        read = []
        real_read = datasets.read_canonical_trial
        monkeypatch.setattr(datasets, "read_canonical_trial", lambda path: read.append(path) or real_read(path))
        monkeypatch.setattr(datasets, "MIN_FORK_ITEMS", 2)
        for cpus in (1, 3):
            monkeypatch.setattr(datasets, "_usable_cpus", lambda: cpus)
            kind, message = error_text(read_canonical, corpus)
            assert kind is CanonicalFormatError and message.startswith(f"{corpus / 'index.jsonl'}:6: bad JSON")
        assert read == []

    def test_an_unexpected_error_in_a_child_is_raised(self, monkeypatch):
        monkeypatch.setattr(datasets, "MIN_FORK_ITEMS", 2)
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: 2)

        def fn(x):
            if x in (3, 7):  # both in the child's share
                raise KeyError(f"bug at {x}")
            return x

        with pytest.raises(KeyError, match="bug at 3"):
            datasets._map_files(fn, list(range(10)))

    @pytest.mark.parametrize("fault", ["killed", "exit", "unpicklable-result", "unpicklable-error"])
    def test_a_child_that_ends_without_its_results_raises(self, fault, tmp_path, monkeypatch):
        monkeypatch.setattr(datasets, "MIN_FORK_ITEMS", 2)
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: 2)

        class Unpicklable(Exception):  # a local class cannot be pickled
            pass

        def fn(x):
            if x == 5:
                if fault == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if fault == "exit":
                    sys.exit(0)
                if fault == "unpicklable-result":
                    return lambda: x
                raise Unpicklable(x)
            return x

        with pytest.raises(RuntimeError, match="ended without its results"):
            datasets._map_files(fn, list(range(10)))

    def test_an_interrupt_in_the_parent_kills_the_children(self, monkeypatch):
        monkeypatch.setattr(datasets, "MIN_FORK_ITEMS", 2)
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: 3)
        parent = os.getpid()

        def fn(x):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            datasets._map_files(fn, list(range(6)))
        assert time.monotonic() - start < 30  # the children were killed and reaped, not waited out

    def test_read_canonical_never_returns_part_of_a_corpus(self, tmp_path, monkeypatch, synth_trials):
        write_canonical(synth_trials, tmp_path)
        real_read = datasets.read_canonical_trial
        parent = os.getpid()

        def read_or_die(path):
            if os.getpid() != parent and path.name == sorted((tmp_path / "trials").iterdir())[-1].name:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_read(path)

        monkeypatch.setattr(datasets, "read_canonical_trial", read_or_die)
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: 2)
        n = len(synth_trials)
        assert n >= datasets.MIN_FORK_ITEMS and n % 2 == 0  # the last trial is the child's
        with pytest.raises(RuntimeError, match="ended without its results"):
            read_canonical(tmp_path)

    def test_ingest_prints_its_summary_once_to_a_pipe(self, tmp_path):
        """A forked child leaves without flushing the stdout buffer it inherited, which holds the summary."""
        raw = tmp_path / "raw"
        write_pool_corpus(raw)
        manifest_path = tmp_path / "manifest.json"
        save_manifest(pool_manifest(raw), manifest_path)
        script = (
            "import sys; from wristfall import cli, datasets; "
            "datasets._usable_cpus = lambda: 3; datasets.MIN_FORK_ITEMS = 2; sys.exit(cli.main(sys.argv[1:]))"
        )
        src = str(Path(datasets.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout on a pipe is block-buffered
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-c", script, "ingest", "--manifest", str(manifest_path), "--out", str(tmp_path / "c")]
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == b"34 trials (17 ADL / 17 fall), 6 subjects; skipped 5 files\n"
