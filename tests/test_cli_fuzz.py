"""A fuzz gate for the CLI: mutated stdin streams, raw corpora and canonical corpora, run through `main` in-process.

For every example the command must end with exit 0, 2 or 3, print no `internal error`, raise no warning and stay
within a bound on its CPU time. The bound is on this process's CPU time, not on wall time, which a stalled disk can
stretch with no fault in the code; every corpus here is below `datasets.MIN_FORK_ITEMS`, so no command forks a file
worker whose time the bound would not see. Hypothesis runs derandomized and without an example database, so the gate
is the same on every run; each `@example` pins an input that once broke it.
"""

import contextlib
import io
import json
import shutil
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wristfall.cli import main
from wristfall.core import Label, Source
from wristfall.datasets import MIN_FORK_ITEMS, DatasetManifest, LayoutSpec, save_manifest

GATE = settings(derandomize=True, database=None, deadline=None, max_examples=100)
MAX_SECONDS = 20.0  # of CPU time per command; every example takes well under 1 s
# \udcff writes the byte 0xff; the two 1.7e308 are further apart than the largest float
TOKENS = ("nan", "inf", "-inf", "1e308", "1.7e308", "-1.7e308", "1e150", "1e999", "-0.0", "x", "\udcff", "")
LINE_OPS = ("field", "delete", "duplicate", "truncate", "header")
COMMAND_SEED = ["--seed", "3"]


def run(argv, stdin=b""):
    """Run `main(argv)` and check what the gate asks of every command."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    start, cpu_start = time.perf_counter(), time.process_time()
    with warnings.catch_warnings(), mock.patch("sys.stdin", stdin):
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
    assert code in (0, 2, 3), err.getvalue()
    assert "internal error" not in err.getvalue()
    assert cpu < MAX_SECONDS, f"{argv}: {cpu:.1f} s of CPU time, {wall:.1f} s of wall time"


line_edits = st.lists(
    st.tuples(st.sampled_from(LINE_OPS), st.integers(0, 10**4), st.integers(0, 200), st.sampled_from(TOKENS)),
    max_size=6,
)


def edit_lines(lines, edits, delimiter, header):
    """`lines` with each (op, row, pos, token) of `edits` applied to the data row `row` modulo their number."""
    lines = list(lines)
    for op, row, pos, token in edits:
        if not lines:
            break
        i = row % len(lines)
        if op == "field":
            fields = lines[i].split(delimiter)
            fields[pos % len(fields)] = token
            lines[i] = delimiter.join(fields)
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][: pos % (len(lines[i]) + 1)]
        else:
            lines.insert(i, header)
    return lines


def to_bytes(lines):
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A 24-trial synthetic corpus, and a threshold file and knn, rf and svm models fitted on it."""
    base = tmp_path_factory.mktemp("fuzz")
    corpus = base / "corpus"
    assert main(["synthesize", "--seed", "4", "--subjects", "4", "--trials-per-subject", "6", "--out", str(corpus)]) == 0
    assert len(list(corpus.glob("trials/*.csv"))) < MIN_FORK_ITEMS  # read in this process, inside the CPU bound
    detectors = {"threshold": ["--threshold-config", str(base / "thresholds.txt")]}
    assert main(["calibrate", "--corpus", str(corpus), *COMMAND_SEED, "--out", str(base / "thresholds.txt")]) == 0
    for kind in ("knn", "rf", "svm"):
        params = ["--params", '{"n_trees": 10}'] if kind == "rf" else []
        path = base / f"{kind}.json"
        assert main(["train", "--corpus", str(corpus), "--kind", kind, *params, *COMMAND_SEED, "--out", str(path)]) == 0
        detectors[kind] = ["--model", str(path)]
    # one fall trial and one ADL trial, end to end: the stream every detect-stream example mutates
    rows, t_base = [], 0.0
    for name in ("S01_SYN_FALL_001", "S01_SYN_ADL_002"):
        values = np.loadtxt(corpus / "trials" / f"{name}.csv", delimiter=",", skiprows=1)
        values[:, 0] += t_base
        t_base = values[-1, 0] + 0.04
        rows.append(values)
    return corpus, detectors, np.concatenate(rows)


@GATE
@given(
    detector=st.sampled_from(["threshold", "knn", "rf", "svm"]),
    window=st.sampled_from(["60", "10", "2.5", "1e-5", "1e9"]),
    t_scale=st.sampled_from([1.0, 1e-300, 1e300]),
    edits=line_edits,
)
# timestamps further apart than the largest float: a numpy overflow warning in the check of a block of rows (the
# second 64 KiB read, which holds no header), and in the rate of a window of the first two rows (every later row
# is below the second, so it is skipped)
@example(detector="threshold", window="60", t_scale=1.0,
         edits=[("field", 600, 0, "-1.7e308"), ("field", 601, 0, "1.7e308")])
@example(detector="svm", window="60", t_scale=1.0, edits=[("field", 0, 0, "-1.7e308"), ("field", 1, 0, "1.7e308")])
def test_detect_stream(fitted, detector, window, t_scale, edits):
    _, detectors, values = fitted
    values = values.copy()
    values[:, 0] *= t_scale
    lines = [",".join(map(repr, row)) for row in values.tolist()]
    header = "t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z"
    stream = to_bytes([header, *edit_lines(lines, edits, ",", header)])
    run(["detect-stream", *detectors[detector], "--window-seconds", window], stream)


def raw_manifest(root, mode):
    """Five raw trials of 60 samples at 25 Hz in the `columns` or `interleaved` layout, with their manifest."""
    common = dict(file_glob="*.txt", path_regex=r"(?P<subject>S\d+)_(?P<code>[A-Z]\d+)_(?P<trial>\d+)\.txt$",
                  comment_prefix="#", time_column=0)
    if mode == "columns":
        layout = LayoutSpec(time_unit="s", acc_columns=(1, 2, 3), gyr_columns=(4, 5, 6), **common)
    else:
        layout = LayoutSpec(mode="interleaved", delimiter=";", time_unit="ms", sensor_type_column=5,
                            acc_type_value="0", gyr_type_value="1", sensor_id_column=6, sensor_id_value="3",
                            sample_no_column=1, value_columns=(2, 3, 4), **common)
    rng = np.random.default_rng(7)
    files = {}
    trials = [("S01", "A01"), ("S01", "F01"), ("S02", "A01"), ("S02", "F01"), ("S03", "A01")]
    for k, (subject, code) in enumerate(trials):
        acc = rng.normal(0, 0.2, (60, 3)) + np.array([0.0, 0.0, 1.0])
        gyr = rng.normal(0, 30, (60, 3))
        lines = []
        for i in range(60):
            t_ms = 40.0 * i
            if mode == "columns":
                lines.append(" ".join(map(repr, [t_ms / 1000, *acc[i].tolist(), *gyr[i].tolist()])))
            else:
                lines.append(";".join(map(repr, [t_ms, i, *acc[i].tolist()])) + ";0;3")
                lines.append(";".join(map(repr, [t_ms + 1.0, i, *gyr[i].tolist()])) + ";1;3")
                lines.append(f"{t_ms!r};{i};9.9;9.9;9.9;0;4")  # the ankle: filtered out
        files[f"{subject}_{code}_{k}.txt"] = lines
    assert len(files) < MIN_FORK_ITEMS  # ingested in this process, inside the CPU bound
    manifest = DatasetManifest(
        source=Source.UMAFALL if mode == "interleaved" else Source.ERCIYES,
        root=root,
        tasks={"A01": (Label.ADL, "walking"), "F01": (Label.FALL, "fall")},
        layout=layout,
        nominal_rate_hz=25.0,
    )
    return manifest, files


@GATE
@given(
    mode=st.sampled_from(["columns", "interleaved"]),
    file=st.integers(0, 4),
    edits=line_edits,
)
@example(mode="interleaved", file=0, edits=[("field", 0, 1, "inf")])  # an infinite sample number: exit 4
@example(mode="interleaved", file=0, edits=[("field", 0, 0, "1e999")])  # an infinite timestamp: a numpy warning
@example(mode="columns", file=0, edits=[("field", 0, 0, "1e999")])
@example(mode="columns", file=0, edits=[("field", 1, 0, "1.7e308"), ("field", 2, 0, "-1.7e308")])  # a gap of -inf
def test_ingest(mode, file, edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "raw"
        root.mkdir()
        manifest, files = raw_manifest(root, mode)
        for k, (name, lines) in enumerate(files.items()):
            if k == file:
                lines = edit_lines(lines, edits, " " if mode == "columns" else ";", "# a comment")
            (root / name).write_bytes(to_bytes(["# t, x, y, z", *lines]))
        save_manifest(manifest, Path(tmp) / "manifest.json")
        run(["ingest", "--manifest", str(Path(tmp) / "manifest.json"), "--out", str(Path(tmp) / "c")])


INDEX_KEYS = ("trial_id", "subject_id", "activity_code", "label", "sample_rate_hz", "source", "path")
INDEX_VALUES = (None, -1, 0, 1e308, 10**400, float("nan"), "", "x", "Fall", "S01", [], {}, True,
                "trials", "index.jsonl", "missing.csv")
COMMANDS = (
    ["calibrate"],
    ["train", "--kind", "knn"],
    ["train", "--kind", "rf", "--params", '{"n_trees": 10}'],
    ["train", "--kind", "svm"],
    ["evaluate", "--detector", "threshold"],
    ["evaluate", "--detector", "knn"],
    ["evaluate", "--detector", "svm"],
)


def edited_trial(path, edits):
    """The bytes of the canonical trial file at `path`, with `edits` applied to its data rows."""
    header, *lines = path.read_text().splitlines()
    return to_bytes([header, *edit_lines(lines, edits, ",", header)])


@GATE
@given(
    command=st.sampled_from(COMMANDS),
    trial=st.integers(0, 23),
    edits=line_edits,
    index_edit=st.none() | st.tuples(st.integers(0, 23), st.sampled_from(INDEX_KEYS), st.sampled_from(INDEX_VALUES)),
)
# a finite value whose spread over the development windows overflows: a numpy warning, then exit 4 under -W error
@example(command=["train", "--kind", "knn"], trial=22, edits=[("field", 150, 5, "1e150")], index_edit=None)
# timestamps further apart than the largest float: a numpy overflow warning in the row check
@example(command=["calibrate"], trial=6, edits=[("field", 0, 0, "-1.7e308"), ("field", 1, 0, "1.7e308")],
         index_edit=None)
def test_fit_commands(fitted, command, trial, edits, index_edit):
    corpus = fitted[0]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "corpus"
        shutil.copytree(corpus, copy)
        index = (copy / "index.jsonl").read_text().splitlines()
        path = copy / json.loads(index[trial])["path"]
        path.write_bytes(edited_trial(path, edits))
        if index_edit is not None:
            line, key, value = index_edit
            index[line] = json.dumps({**json.loads(index[line]), key: value})
            (copy / "index.jsonl").write_text("\n".join(index) + "\n")
        run([command[0], "--corpus", str(copy), *command[1:], *COMMAND_SEED, "--out", str(Path(tmp) / "o")])


@GATE
@given(trial=st.integers(0, 23), edits=line_edits)
# a finite row of 1e308: four numpy warnings, and inf and nan in the series, then exit 4 under -W error
@example(trial=0, edits=[("field", 3, 1, "1e308"), ("field", 3, 2, "1e308"), ("field", 3, 3, "1e308")])
def test_export_plots_trial(fitted, trial, edits):
    corpus = fitted[0]
    index = (corpus / "index.jsonl").read_text().splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trial.csv"
        path.write_bytes(edited_trial(corpus / json.loads(index[trial])["path"], edits))
        run(["export-plots", "--trial", str(path), "--out", str(Path(tmp) / "series.csv")])
