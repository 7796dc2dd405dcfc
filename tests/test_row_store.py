"""The rows a corpus stores (`datasets.ROWS_NAME`).

Every command gives the same exit code, output and files with the store as without it: a stored row is the row that
reading its trial file gives, and any change to the trial file, its index entry, the store or the reduction makes
the trial miss, so that it is read as it was before there was a store.
"""

import dataclasses
import json
import os
import shutil
import warnings

import numpy as np
import pytest

from test_datasets import read_tree, serial_and_forked
from wristfall import datasets
from wristfall.cli import main
from wristfall.core import Label, Source, segment
from wristfall.datasets import (
    ROWS_NAME,
    DatasetManifest,
    LayoutSpec,
    TrialRows,
    map_trials,
    read_index,
    read_trial,
    save_manifest,
    write_canonical,
)
from wristfall.evaluation import DetectorSpec, run_experiment, split_subjects
from wristfall.features import window_values
from wristfall.ml import save_model
from wristfall.synthetic import synthesize
from wristfall.threshold import DEFAULT_SIGNALS, THRESHOLD_SIGNALS, ThresholdConfig, save_threshold_config

# Every detector and view: (fit command or None, evaluate flags).
DETECTORS = [
    (["calibrate"], ["--detector", "threshold"]),
    (["calibrate", "--signals", "smv_acc,smv_gyr"], ["--detector", "threshold", "--signals", "smv_acc,smv_gyr"]),
    *[
        (["train", "--kind", kind, "--view", view], ["--detector", kind, "--view", view])
        for kind in ("knn", "rf", "svm")
        for view in ("acc44", "gyr44", "combined88")
    ],
]


def synthetic_corpus(path, seed=0, subjects=3):
    """The synthetic corpus of `subjects` subjects of 12 trials (36 trials for 3) of `seed`, written by `synthesize`
    to `path`."""
    argv = ["synthesize", "--seed", str(seed), "--subjects", str(subjects), "--trials-per-subject", "12"]
    argv += ["--out", str(path)]
    assert main(argv) == 0
    return path


def cli(capsys, argv, out):
    """(exit code, stdout, stderr, every file written under `out`) of one command writing to `out`."""
    capsys.readouterr()
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    written = read_tree(out) if out.is_dir() else {"": out.read_bytes()} if out.exists() else None
    return code, captured.out, captured.err, written


def run_commands(capsys, corpus, commands, out):
    """The `cli` results of `commands` on `corpus`, each writing under `out`, which is made afresh."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    return [cli(capsys, [*argv, "--corpus", str(corpus)], out / str(i)) for i, argv in enumerate(commands)]


def with_and_without_store(capsys, corpus, commands, out):
    """`run_commands` on `corpus` as it is, then with its row store deleted."""
    with_store = run_commands(capsys, corpus, commands, out)
    (corpus / ROWS_NAME).unlink(missing_ok=True)
    return with_store, run_commands(capsys, corpus, commands, out)


@pytest.fixture()
def parses(monkeypatch):
    """The trial files read_canonical_trial parses, with every corpus read serial so that each parse is counted."""
    parsed = []
    real_read = datasets.read_canonical_trial
    monkeypatch.setattr(datasets, "read_canonical_trial", lambda path: parsed.append(path.name) or real_read(path))
    monkeypatch.setattr(datasets, "_usable_cpus", lambda: 1)
    return parsed


def trial_rows(rec, signals, window_seconds):
    """The rows of the windows `segment` cuts from the recording `rec`, for `signals` (None: the 88 features)."""
    return window_values(segment(rec, window_seconds), signals)


def same_rows(got, want) -> bool:
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestHitsEqualMisses:
    def test_every_command_writes_the_same_bytes_without_the_store(self, tmp_path, capsys):
        corpus = synthetic_corpus(tmp_path / "corpus")
        commands = [fit for fit, _ in DETECTORS] + [["evaluate", *flags, "--predictions"] for _, flags in DETECTORS]
        with_store, without_store = with_and_without_store(capsys, corpus, commands, tmp_path / "out")
        assert with_store == without_store
        assert all(code == 0 for code, *_ in with_store)

    @pytest.mark.parametrize("replica", ["erciyes", "umafall"])
    def test_every_stored_row_is_the_row_of_reading_its_trial(self, replica, request, tmp_path):
        trials = request.getfixturevalue(replica).trials
        write_canonical(trials, tmp_path)
        entries = read_index(tmp_path)
        assert len(entries[0].stored) == len(entries) == len(trials)  # every replica trial reduces cleanly
        # the two requests that read every stored column; the others pick some of them (test_stored_columns)
        requests = (None, THRESHOLD_SIGNALS)
        read = map_trials(lambda rec: [trial_rows(rec, signals, 60.0) for signals in requests], entries)
        for entry, want in zip(entries, read):
            for signals, rows in zip(requests, want):
                assert same_rows(datasets._stored_rows(TrialRows(signals, 60.0, "stage"), entry), rows)

    def test_stored_columns(self, tmp_path, synth_trials):
        write_canonical(synth_trials, tmp_path)
        entries = read_index(tmp_path)
        requests = (None, THRESHOLD_SIGNALS, DEFAULT_SIGNALS, ("smv_gyr", "smv_acc"), ("fi", "fi"))
        read = map_trials(lambda rec: [trial_rows(rec, signals, 60.0) for signals in requests], entries)
        for entry, want in zip(entries, read):
            for signals, rows in zip(requests, want):
                assert same_rows(datasets._stored_rows(TrialRows(signals, 60.0, "stage"), entry), rows)

    @pytest.mark.parametrize("spec", [DetectorSpec("threshold"), DetectorSpec("svm", feature_view="gyr44")])
    def test_umafall_experiment_is_the_same_without_the_store(self, spec, umafall, tmp_path):
        write_canonical(umafall.trials, tmp_path / "corpus")
        entries = read_index(tmp_path / "corpus")
        results = [run_experiment(entries, spec, 5), run_experiment([e._replace(stored={}) for e in entries], spec, 5)]
        for i, result in enumerate(results):
            save = save_threshold_config if isinstance(result.detector, ThresholdConfig) else save_model
            save(result.detector, tmp_path / f"detector-{i}")
        hit, miss = ((r.predictions, r.split, r.access_log.events, r.report) for r in results)
        assert hit == miss
        assert (tmp_path / "detector-0").read_bytes() == (tmp_path / "detector-1").read_bytes()

    def test_the_store_is_the_same_written_serially_or_forked(self, tmp_path, monkeypatch, synth_trials):
        assert len(synth_trials) >= datasets.MIN_FORK_ITEMS
        trees = []
        for cpus in (1, 2, 2):
            monkeypatch.setattr(datasets, "_usable_cpus", lambda: cpus)
            write_canonical(synth_trials, tmp_path / str(len(trees)))
            trees.append(read_tree(tmp_path / str(len(trees))))
        assert trees[0] == trees[1] == trees[2] and ROWS_NAME in trees[0]


class TestCountedParses:
    @pytest.mark.parametrize(
        "command",
        [["calibrate"], ["train", "--kind", "rf"], ["evaluate", "--detector", "rf"], ["evaluate", "--detector", "knn"]],
        ids=["calibrate", "train", "evaluate-rf", "evaluate-knn"],
    )
    def test_a_default_window_command_parses_no_trial_file(self, command, parses, tmp_path):
        corpus = synthetic_corpus(tmp_path / "corpus")
        assert main([command[0], "--corpus", str(corpus), *command[1:], "--out", str(tmp_path / "o")]) == 0
        assert parses == []

    def test_read_canonical_parses_every_trial_file(self, parses, tmp_path):
        corpus = synthetic_corpus(tmp_path / "corpus")
        assert len(datasets.read_canonical(corpus)) == len(parses) == 36


def edit_trial_byte(corpus):
    """Change the last digit of the first value of row 5 of the first trial file, which stays a valid row."""
    path = sorted((corpus / "trials").iterdir())[0]
    lines = path.read_text().split("\n")
    row = lines[5].split(",")
    row[1] = row[1][:-1] + ("1" if row[1][-1] != "1" else "2")
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines))


def declare_rate(rate):
    def edit(corpus):
        index = corpus / "index.jsonl"
        index.write_text(index.read_text().replace('"sample_rate_hz": 25.0', f'"sample_rate_hz": {rate}'))

    return edit


def corrupt_evaluation_trial(corpus):
    """Line 6 of an evaluation subject's trial file (at seed 0) made non-numeric, as in TestSubjectScopedReads."""
    entries = [json.loads(line) for line in (corpus / "index.jsonl").read_text().splitlines()]
    eval_subjects = split_subjects([e["subject_id"] for e in entries], 0).eval_subjects
    path = corpus / next(e["path"] for e in entries if e["subject_id"] in eval_subjects)
    lines = path.read_text().split("\n")
    lines[5] = lines[5].replace(",", ",x", 1)
    path.write_text("\n".join(lines))


def truncate_store(corpus):
    path = corpus / ROWS_NAME
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def garbage_store(corpus):
    (corpus / ROWS_NAME).write_bytes(bytes(range(256)) * 40)


def wrong_dtype_store(corpus):
    table = np.load(corpus / ROWS_NAME)
    np.save(corpus / ROWS_NAME, table.astype([("key", "S64"), ("values", "<f4", (92,))]))


def oversized_store(corpus):
    """The records of the store under a header that declares 10**10 of them: reading it must allocate nothing."""
    table = np.load(corpus / ROWS_NAME)
    header = {"descr": np.lib.format.dtype_to_descr(table.dtype), "fortran_order": False, "shape": (10**10,)}
    with open(corpus / ROWS_NAME, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        fh.write(table.tobytes())


def other_corpus_store(corpus):
    other = synthetic_corpus(corpus.parent / "other", seed=1)
    shutil.copyfile(other / ROWS_NAME, corpus / ROWS_NAME)


EVALUATE_RF = ["evaluate", "--detector", "rf", "--predictions"]
# case -> (how to make it, the commands run on the changed corpus, the exit code of each)
MISSES = {
    "trial-byte-edited": (edit_trial_byte, [["train", "--kind", "svm"], EVALUATE_RF], 0),
    "rate-21-declared": (declare_rate(21.0), [["calibrate"], ["evaluate", "--detector", "threshold"]], 0),
    "rate-15-declared": (declare_rate(15.0), [["calibrate"], ["evaluate", "--detector", "knn"]], 3),
    "evaluation-trial-corrupt": (corrupt_evaluation_trial, [["evaluate", "--detector", "knn"]], 3),
    "window-seconds-10": (lambda corpus: None, [[*EVALUATE_RF, "--window-seconds", "10"]], 0),
    "store-truncated": (truncate_store, [EVALUATE_RF], 0),
    "store-garbage": (garbage_store, [EVALUATE_RF], 0),
    "store-wrong-dtype": (wrong_dtype_store, [EVALUATE_RF], 0),
    "store-oversized": (oversized_store, [EVALUATE_RF], 0),
    "store-of-another-corpus": (other_corpus_store, [EVALUATE_RF], 0),
}


class TestMisses:
    @pytest.mark.parametrize("case", list(MISSES))
    def test_a_miss_gives_what_reading_the_trial_gives(self, case, parses, tmp_path, capsys):
        make, commands, code = MISSES[case]
        corpus = synthetic_corpus(tmp_path / "corpus")
        make(corpus)
        with_store = run_commands(capsys, corpus, commands, tmp_path / "out")
        assert parses  # a trial missed
        (corpus / ROWS_NAME).unlink()
        assert with_store == run_commands(capsys, corpus, commands, tmp_path / "out")
        assert [result[0] for result in with_store] == [code] * len(commands)

    def test_another_reduction_identity_misses_every_trial(self, parses, tmp_path, monkeypatch, capsys):
        corpus = synthetic_corpus(tmp_path / "corpus")
        monkeypatch.setattr(datasets, "_reduction_id", lambda: b"another reduction")
        with_store = run_commands(capsys, corpus, [EVALUATE_RF], tmp_path / "out")
        assert with_store[0][0] == 0 and len(parses) == 36
        (corpus / ROWS_NAME).unlink()
        assert with_store == run_commands(capsys, corpus, [EVALUATE_RF], tmp_path / "out")

    def test_a_trial_written_that_fails_its_check_is_not_stored(self, tmp_path, capsys):
        """write_canonical does not check recordings: one declared at 15 Hz for 25 Hz rows is written, and read as
        the data error it is."""
        trials = synthesize(0, n_subjects=3, trials_per_subject=12)
        trials[0] = dataclasses.replace(trials[0], sample_rate_hz=15.0)
        write_canonical(trials, tmp_path / "corpus")
        entries = read_index(tmp_path / "corpus")
        stored = [datasets._stored_rows(TrialRows(None, 60.0, "stage"), entry) is not None for entry in entries]
        assert stored == [entry.fields["trial_id"] != trials[0].trial_id for entry in entries]
        commands = [["calibrate"], ["evaluate", "--detector", "knn"]]
        with_store, without_store = with_and_without_store(capsys, tmp_path / "corpus", commands, tmp_path / "out")
        assert with_store == without_store
        assert [result[0] for result in with_store] == [3, 3] and "declared rate 15.0 Hz" in with_store[0][2]

    @pytest.mark.parametrize("dtype", [np.float32, bool])
    def test_a_trial_not_written_as_float64_rows_is_not_stored(self, dtype, tmp_path, synth_trials):
        """Its file holds the repr of other values (`True`, or float32 ones), so the reader must parse it."""
        odd = synth_trials[0]
        odd = dataclasses.replace(odd, t=odd.t.astype(dtype), acc=odd.acc.astype(dtype), gyr=odd.gyr.astype(dtype))
        write_canonical([odd, *synth_trials[1:]], tmp_path)
        entries = read_index(tmp_path)
        stored = [datasets._stored_rows(TrialRows(None, 60.0, "stage"), entry) is not None for entry in entries]
        assert stored == [entry.fields["trial_id"] != odd.trial_id for entry in entries]

    def test_an_empty_store_replaces_an_earlier_one(self, tmp_path):
        corpus = synthetic_corpus(tmp_path / "corpus")
        write_canonical([], corpus)
        assert np.load(corpus / ROWS_NAME).shape == (0,)


STORED_READS = [["calibrate"], ["train", "--kind", "rf"], EVALUATE_RF]


class TestStoredReadsStayInProcess:
    """This process answers every stored trial from ROWS_NAME; only the misses reach the file workers."""

    def test_a_stored_corpus_is_read_without_a_parse_or_a_fork(self, tmp_path, monkeypatch, capsys):
        corpus = synthetic_corpus(tmp_path / "corpus", subjects=5)
        entries = read_index(corpus)
        dev = split_subjects([entry.subject_id for entry in entries], 0).dev_subjects
        # enough development trials that a fit forks to read them, were they not all stored
        assert sum(entry.subject_id in dev for entry in entries) >= datasets.MIN_FORK_ITEMS

        def refuse(*args):
            raise AssertionError("a stored trial was parsed or forked for")

        with monkeypatch.context() as patch:
            patch.setattr(datasets, "_usable_cpus", lambda: 2)
            patch.setattr(datasets, "read_trial", refuse)
            patch.setattr(os, "fork", refuse)
            with_store = run_commands(capsys, corpus, STORED_READS, tmp_path / "out")
        (corpus / ROWS_NAME).unlink()

        def without_store(_):
            return run_commands(capsys, corpus, STORED_READS, tmp_path / "out")

        serial, forked = serial_and_forked(monkeypatch, without_store)
        assert with_store == serial == forked
        assert [result[0] for result in with_store] == [0, 0, 0]

    def test_an_edited_trial_is_the_only_one_parsed(self, parses, tmp_path, capsys):
        corpus = synthetic_corpus(tmp_path / "corpus")
        edit_trial_byte(corpus)
        [(code, *_)] = run_commands(capsys, corpus, [EVALUATE_RF], tmp_path / "out")
        assert code == 0 and parses == [sorted((corpus / "trials").iterdir())[0].name]

    def test_the_store_is_read_once_and_shared(self, tmp_path):
        entries = read_index(synthetic_corpus(tmp_path / "corpus"))
        assert all(entry.stored is entries[0].stored for entry in entries) and len(entries[0].stored) == 36
        assert repr(entries[0].stored) == f"RowStore({str(tmp_path / 'corpus' / ROWS_NAME)!r}, <rows of 36 trials>)"
        assert entries == read_index(tmp_path / "corpus")  # entries compare as values

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda table: np.roll(table, 1).tobytes(),  # another trial's records at each recorded offset
            lambda table: table[: len(table) // 2].tobytes(),  # the records of the later trials cut off
            lambda table: b"",
        ],
        ids=["records-moved", "truncated", "emptied"],
    )
    def test_a_store_rewritten_after_read_index_misses(self, rewrite, parses, tmp_path, monkeypatch, capsys):
        corpus = synthetic_corpus(tmp_path / "corpus")
        path = corpus / ROWS_NAME
        written, table = path.read_bytes(), np.load(path)
        rewritten = written[: len(written) - table.nbytes] + rewrite(table)  # the header, then the records rewritten
        real_read_index = datasets.read_index

        def read_index_then_rewrite(corpus_dir):
            path.write_bytes(written)
            entries = real_read_index(corpus_dir)
            path.write_bytes(rewritten)
            return entries

        with monkeypatch.context() as patch:
            patch.setattr("wristfall.cli.read_index", read_index_then_rewrite)
            with_store = run_commands(capsys, corpus, STORED_READS, tmp_path / "out")
        assert len(parses) > 0 and path.read_bytes() == rewritten
        path.unlink()
        assert with_store == run_commands(capsys, corpus, STORED_READS, tmp_path / "out")
        assert [result[0] for result in with_store] == [0, 0, 0]


def raw_corpus(root, row):
    """The synthetic trials of seed 4 (4 subjects of 6 trials) as raw whitespace columns in g and deg/s, with `row`
    (t and the six channels) in place of row 150 of the development fall trial S04_SYN_FALL_003; the manifest path."""
    for rec in synthesize(4, n_subjects=4, trials_per_subject=6):
        values = np.column_stack((rec.t, rec.acc, rec.gyr))
        if rec.trial_id == "S04_SYN_FALL_003":
            values[150] = row
        path = root / "raw" / rec.subject_id / rec.activity_code / f"{rec.trial_id[-3:]}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(" ".join(map(repr, r)) + "\n" for r in values.tolist()))
    layout = LayoutSpec(
        file_glob="*/*/*.txt",
        path_regex=r"(?P<subject>S\d+)/(?P<code>SYN_[A-Z]+)/(?P<trial>\d+)\.txt$",
        time_column=0,
        acc_columns=(1, 2, 3),
        gyr_columns=(4, 5, 6),
    )
    tasks = {"SYN_ADL": (Label.ADL, ""), "SYN_FALL": (Label.FALL, "")}
    manifest = DatasetManifest(Source.SYNTHETIC, root / "raw", tasks, layout, 25.0)
    save_manifest(manifest, root / "manifest.json")
    return root / "manifest.json"


class TestReductionFailures:
    """A trial whose reduction fails or warns is written as before, with no stored rows unless they are clean."""

    @pytest.mark.parametrize(
        "row,stored",
        [((6.0, 0.0, 0.0, 1.0, 0.0, 1e150, 0.0), True), ((6.0, 1e200, 1e200, 1e200, 0.0, 0.0, 0.0), False)],
        ids=["gyr-1e150", "acc-1e200"],
    )
    def test_the_writer_is_unchanged_and_the_readers_fail_as_before(self, row, stored, tmp_path, capsys):
        manifest = raw_corpus(tmp_path, row)
        corpus = tmp_path / "corpus"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ingest", "--manifest", str(manifest), "--out", str(corpus)]) == 0
        assert capsys.readouterr() == ("24 trials (12 ADL / 12 fall), 4 subjects\n", "")
        [entry] = [e for e in read_index(corpus) if e.fields["trial_id"] == "S04_SYN_FALL_003"]
        assert len(entry.stored) == 23 + stored
        assert (datasets._stored_rows(TrialRows(None, 60.0, "stage"), entry) is not None) == stored
        if not stored:
            with pytest.raises(Exception, match="non-finite"):
                trial_rows(read_trial(entry), None, 60.0)
        commands = [["calibrate"], ["train", "--kind", "svm"], ["evaluate", "--detector", "svm"]]
        commands = [[*argv, "--seed", "3"] for argv in [*commands, ["evaluate", "--detector", "threshold"]]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with_store, without_store = with_and_without_store(capsys, corpus, commands, tmp_path / "out")
        assert with_store == without_store
        codes = [result[0] for result in with_store]
        # the spread of gyr_y_var overflows in training; the 1e200 row overflows SMV, which every detector reads
        assert codes == ([0, 3, 3, 0] if stored else [3, 3, 3, 3])
