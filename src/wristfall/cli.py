"""Command-line interface.

Commands: ingest, synthesize, calibrate, train, evaluate, detect-stream,
export-plots. Exit codes: 0 success, 2 usage error, 3 data error, 4 internal
error. All randomness flows from --seed. Flag defaults may be supplied by a
JSON --config file (unknown keys are fatal); WRISTFALL_MANIFEST_DIR gives the
directory searched for bare manifest names.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import DEFAULT_WINDOW_SECONDS, MIN_SAMPLES, Label, is_int, is_real, window_bounds, window_from_arrays
from .datasets import (
    CANONICAL_HEADER,
    load_manifest,
    map_raw_trials,
    parse_canonical_rows,
    read_canonical_trial,
    read_index,
    staged_corpus,
    write_canonical,
)
from .errors import DataError, WristfallError, read_json, reading
from .evaluation import (
    AccessLog,
    DetectorSpec,
    EvalReport,
    _fmt_pct,
    classify_many,
    fit_on_dev,
    predictions_csv,
    report_json,
    report_table,
    run_experiment,
)
from .features import FEATURE_VIEWS, _derive_checked
from .ml import MODEL_KINDS, load_model, save_model
from .synthetic import synthesize
from .threshold import DEFAULT_SIGNALS, THRESHOLD_SIGNALS, load_threshold_config, save_threshold_config

MANIFEST_DIR_ENV = "WRISTFALL_MANIFEST_DIR"

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INTERNAL = 4

# detect-stream reads stdin in pieces of at most this many bytes.
STDIN_READ_BYTES = 1 << 16


def _resolve_manifest(value: str) -> Path:
    path = Path(value)
    if path.exists():
        return path
    env_dir = os.environ.get(MANIFEST_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / value
        if candidate.exists():
            return candidate
        candidate = Path(env_dir) / f"{value}.json"
        if candidate.exists():
            return candidate
    raise DataError(f"manifest {value!r} not found (also searched ${MANIFEST_DIR_ENV})")


def _parse_signals(value: str) -> tuple[str, ...]:
    """The names in a comma list; `DetectorSpec` checks them."""
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _parse_params(value: str | None) -> dict:
    if not value:
        return {}
    try:
        params = json.loads(value)
    except (ValueError, RecursionError) as exc:  # not JSON, nested too deep, or an integer of too many digits
        raise DataError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise DataError("--params must be a JSON object")
    return params


def cmd_ingest(args) -> int:
    _check_out_dir(args.out)  # before the manifest and raw files are read
    manifest = load_manifest(_resolve_manifest(args.manifest))
    out = Path(args.out)
    # each file worker writes its trial file and hands back only the trial's index fields and stored rows (of a
    # recording map_raw_trials has checked); if anything fails, the staged files go and --out is left as it was found
    with staged_corpus(out) as (stage, commit):
        kept, report = map_raw_trials(lambda rec: stage(rec, checked=True), manifest)
        print(report.summary())
        exp = manifest.expected or {}
        found = (("participants", "participants", len(report.subjects)), ("adl_trials", "ADL trials", report.n_adl),
                 ("fall_trials", "fall trials", report.n_fall))
        mismatches = [f"{name} {n} != {exp[key]}" for key, name, n in found if key in exp and n != exp[key]]
        if mismatches:
            print("warning: corpus does not match manifest expectations: " + "; ".join(mismatches), file=sys.stderr)
        commit(kept)
        report_doc = {**asdict(report), "skipped": [{"path": p, "reason": r} for p, r in report.skipped]}
        report_text = json.dumps(report_doc, indent=2, sort_keys=True) + "\n"
        (out / "ingest_report.json").write_text(report_text, encoding="utf-8")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    _check_out_dir(args.out)  # before any trial is generated
    trials = synthesize(args.seed, n_subjects=args.subjects, trials_per_subject=args.trials_per_subject)
    write_canonical(trials, Path(args.out))
    n_fall = sum(1 for t in trials if t.label is Label.FALL)
    print(f"{len(trials)} trials ({len(trials) - n_fall} ADL / {n_fall} fall), {args.subjects} subjects")
    return EXIT_OK


def _check_out_file(value: str) -> None:
    """DataError naming `value` unless a file can be made there: its parent is a directory and it is not one."""
    if Path(value).is_dir() or not Path(value).parent.is_dir():
        raise DataError(f"--out {value} must be a file path in an existing directory")


def _check_out_dir(value: str) -> None:
    """DataError naming `value` unless it is a directory or one can be made there; nothing is created."""
    if not next(p for p in (Path(value), *Path(value).parents) if p.exists()).is_dir():
        raise DataError(f"--out {value} must be a directory or a path where one can be made")


def _fit_and_save(args, spec: DetectorSpec, save):
    """`fit_on_dev` of `spec` on `--corpus`, with the detector saved to `--out`; `--out` is checked first."""
    _check_out_file(args.out)  # after the spec, before the corpus is read and fitted
    # from the index, fit_on_dev opens only the development subjects' trial files, each reduced in a file worker
    detector, split, n_windows = fit_on_dev(read_index(args.corpus), spec, args.seed, args.window_seconds, AccessLog())
    save(detector, args.out)
    return detector, split, n_windows


def cmd_calibrate(args) -> int:
    spec = DetectorSpec("threshold", _parse_signals(args.signals))
    config, split, _ = _fit_and_save(args, spec, save_threshold_config)
    print(f"calibrated on {len(split.dev_subjects)} dev subjects: " + config.describe())
    return EXIT_OK


def cmd_train(args) -> int:
    spec = DetectorSpec(args.kind, feature_view=args.view, params=_parse_params(args.params))
    model, split, n_windows = _fit_and_save(args, spec, save_model)
    print(f"trained {model.describe()} on {n_windows} dev windows from {len(split.dev_subjects)} subjects")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    spec = DetectorSpec(args.detector, _parse_signals(args.signals), args.view, _parse_params(args.params))
    _check_out_dir(args.out)  # the spec and --out are checked before the corpus is read
    entries = read_index(args.corpus)
    dataset_name = args.dataset_name or Path(args.corpus).name
    result = run_experiment(entries, spec, args.seed, args.window_seconds, dataset_name)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_json(result.report), encoding="utf-8")
    (out / "report.txt").write_text(report_table([result.report]), encoding="utf-8")
    if args.predictions:
        predictions_csv(result.predictions, out / "predictions.csv")

    r = result.report
    se, sp = _fmt_pct(r.sensitivity), _fmt_pct(r.specificity)
    print(f"{r.detector} on {r.dataset}: accuracy={r.accuracy:.1f}% SE={se} SP={sp}")
    return EXIT_OK


def _stdin_lines():
    """Lists of stdin's lines as they arrive; the text after the last newline comes last.

    Reads whatever the pipe holds (at most STDIN_READ_BYTES) without waiting
    for more, so a verdict is no later than with line-by-line reading.
    """
    # decoded from the bytes here, so an undecodable byte fails the row parser whatever sys.stdin.errors is
    decoder = codecs.getincrementaldecoder(sys.stdin.encoding)("surrogateescape")
    tail = ""
    while chunk := sys.stdin.buffer.read1(STDIN_READ_BYTES):
        lines = (tail + decoder.decode(chunk)).split("\n")
        tail = lines.pop()
        if lines:
            yield lines
    yield [tail + decoder.decode(b"", final=True)]


def cmd_detect_stream(args) -> int:
    if bool(args.model) == bool(args.threshold_config):
        raise DataError("provide exactly one of --model or --threshold-config")
    detector = load_model(args.model) if args.model else load_threshold_config(args.threshold_config)
    pieces = []  # the rows not yet in a printed window, one piece per block

    def times():
        """The `t` column of each block of accepted rows, after the block's warnings."""
        last_t = -math.inf
        line_no = 0
        for lines in _stdin_lines():
            values, bad = parse_canonical_rows(lines, last_t)
            for i, reason in bad:
                if lines[i].strip() not in ("", CANONICAL_HEADER):
                    print(f"warning: line {line_no + i + 1} skipped ({reason})", file=sys.stderr)
            line_no += len(lines)
            if len(values):
                last_t = float(values[-1, 0])  # a numpy scalar's repr would leak into warnings
                pieces.append(values)
                yield values[:, 0]

    for index, (a, b) in enumerate(window_bounds(times(), args.window_seconds)):
        rows = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        if b - a >= MIN_SAMPLES:  # only a stream of fewer rows has a shorter window, and it gives no verdict
            window = window_from_arrays("stream", rows[: b - a, 0], rows[: b - a, 1:4], rows[: b - a, 4:7], index)
            [(label, score)] = classify_many(detector, [window])
            print(f"{window.end_t!r},{label.value},{score:.6f}", flush=True)  # each verdict as soon as it is known
        # a copy, so that the rest of a concatenation does not keep the printed window alive
        pieces[:] = [rows[b - a :].copy() if len(pieces) > 1 else rows[b - a :]]
    return EXIT_OK


def _read_report(path: Path) -> EvalReport:
    """The report in a `report.json`; a file that is not one raises DataError naming it."""
    doc = read_json(path)
    with reading(path):
        return EvalReport.from_dict(doc)


def _pct_cells(report: EvalReport) -> list[str]:
    """The report's accuracy, sensitivity and specificity as CSV cells: repr floats, empty where undefined."""
    return ["" if v is None else repr(v) for v in (report.accuracy, report.sensitivity, report.specificity)]


def cmd_export_plots(args) -> int:
    chosen = [x for x in (args.trial, args.report, args.reports) if x]
    if len(chosen) != 1:
        raise DataError("provide exactly one of --trial, --report, --reports")
    _check_out_file(args.out)  # before any input is read
    out = Path(args.out)

    if args.trial:
        t, acc, gyr = read_canonical_trial(args.trial)
        if len(t) < MIN_SAMPLES:  # as TrialRecording.validate asks
            raise DataError(f"{args.trial}: a trial needs at least {MIN_SAMPLES} samples, got {len(t)}")
        derived = _derive_checked(window_from_arrays(args.trial, t, acc, gyr), THRESHOLD_SIGNALS)
        series = np.column_stack((t, derived.smv_acc, derived.smv_gyr, derived.fi, derived.avd))
        rows = [("t", "smv_acc", "smv_gyr", "fi", "avd"), *series.tolist()]  # a float's str is its repr
    elif args.report:
        cells = _pct_cells(_read_report(Path(args.report)))
        rows = [("metric", "value_pct"), *zip(("accuracy", "sensitivity", "specificity"), cells)]
    else:
        report_paths = sorted(Path(args.reports).glob("**/report.json"))
        if not report_paths:
            raise DataError(f"no report.json files under {args.reports}")
        rows = [("detector", "dataset", "accuracy_pct", "sensitivity_pct", "specificity_pct")]
        rows += [(r.detector, r.dataset, *_pct_cells(r)) for r in map(_read_report, report_paths)]
    with open(out, "w", newline="", encoding="utf-8") as fh:  # opened only once every input is read and checked
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wristfall",
        description="Fall detection toolkit for wrist-worn IMU recordings.",
        allow_abbrev=False,  # so that --config is spelled in full, and _apply_config_file finds every use of it
    )
    parser.add_argument("--config", help="JSON file of flag defaults (keys are flag names; unknown keys are fatal)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a raw corpus into the canonical format")
    p.add_argument("--manifest", required=True, help=f"manifest path or bare name under ${MANIFEST_DIR_ENV}")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synthesize", help="generate a deterministic synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subjects", type=int, default=6)
    p.add_argument("--trials-per-subject", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("calibrate", help="grid-search thresholds on the development split")
    p.add_argument("--corpus", required=True, help="canonical corpus directory")
    p.add_argument("--signals", default=",".join(DEFAULT_SIGNALS), help=f"comma list from {THRESHOLD_SIGNALS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window-seconds", type=float, default=DEFAULT_WINDOW_SECONDS)
    p.add_argument("--out", required=True, help="threshold config file to write")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="train a classifier on the development split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kind", choices=MODEL_KINDS, required=True)
    p.add_argument("--view", choices=tuple(FEATURE_VIEWS), default="combined88")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window-seconds", type=float, default=DEFAULT_WINDOW_SECONDS)
    p.add_argument("--params", help="JSON object of hyperparameter overrides")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run the subject-disjoint evaluation pipeline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--detector", choices=("threshold", *MODEL_KINDS), required=True)
    p.add_argument("--signals", default=",".join(DEFAULT_SIGNALS), help="threshold detector signals")
    p.add_argument("--view", choices=tuple(FEATURE_VIEWS), default="combined88")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window-seconds", type=float, default=DEFAULT_WINDOW_SECONDS)
    p.add_argument("--params", help="JSON object of detector parameter overrides")
    p.add_argument("--dataset-name", default="", help="dataset label used in reports (default: corpus dir name)")
    p.add_argument("--predictions", action="store_true", help="also write per-window predictions.csv")
    p.add_argument("--out", required=True, help="output directory for report.json/report.txt")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "detect-stream",
        help="read canonical CSV rows (t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z) from stdin; "
        "emit 't_end,label,score' per completed window",
    )
    p.add_argument("--model", help="model file from 'train'")
    p.add_argument("--threshold-config", help="config file from 'calibrate'")
    p.add_argument("--window-seconds", type=float, default=DEFAULT_WINDOW_SECONDS)
    p.set_defaults(func=cmd_detect_stream)

    p = sub.add_parser(
        "export-plots",
        help="CSV series for external plotting: --trial gives 't,smv_acc,smv_gyr,fi,avd' rows; "
        "--report gives 'metric,value_pct' rows; --reports gives one "
        "'detector,dataset,accuracy_pct,sensitivity_pct,specificity_pct' row per report.json",
    )
    p.add_argument("--trial", help="canonical trial CSV")
    p.add_argument("--report", help="one report.json")
    p.add_argument("--reports", help="directory searched recursively for report.json files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_plots)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load `--config FILE` or `--config=FILE` JSON defaults into the parser; a key no flag takes is a usage error."""
    argv = [part for arg in argv for part in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
    if argv.count("--config") > 1:  # in either spelling, before or after the command
        parser.error("--config was given more than once")
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        parser.error("--config needs a file argument")
    try:
        doc = read_json(argv[at + 1])
    except (OSError, DataError) as exc:  # unreadable, or not a JSON file
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(doc, dict):
        parser.error("config file must hold a JSON object")
    commands = parser._subparsers._group_actions[0].choices.values()  # noqa: SLF001
    actions = [a for p in commands for a in p._actions if a.dest in doc]  # noqa: SLF001
    if unknown := set(doc) - {a.dest for a in actions}:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    for a in actions:  # a switch takes a boolean and a text flag a string; a number is checked with the flag's value
        value, want = doc[a.dest], bool if a.nargs == 0 else str if a.type is None else object
        if not isinstance(value, want) or a.choices is not None and value not in a.choices:
            expected = f"one of {list(a.choices)}" if a.choices else f"a {want.__name__}"
            parser.error(f"config key {a.dest!r} must be {expected}, got {value!r}")
    for p in commands:
        p.set_defaults(**{a.dest: doc[a.dest] for a in p._actions if a.dest in doc})  # noqa: SLF001
    return argv[:at] + argv[at + 2 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    # checked here, not by type=, so that a --config value is checked too
    window_seconds = vars(args).get("window_seconds", DEFAULT_WINDOW_SECONDS)
    if not (is_real(window_seconds) and window_seconds > 0):
        parser.error(f"--window-seconds must be finite and positive, got {window_seconds!r}")
    seed = vars(args).get("seed", 0)
    if not (is_int(seed) and seed >= 0):
        parser.error(f"--seed must be an integer >= 0, got {seed!r}")
    try:
        return args.func(args)
    except (WristfallError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
