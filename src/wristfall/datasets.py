"""Corpus ingestion: raw-layout adapters, the canonical on-disk format, manifests.

Raw corpora ship vendor-specific text layouts, so adapters are table-driven:
the manifest configures file discovery (glob + path regex with named groups),
tokenization (delimiter, comment prefix), column mapping, and unit conversion.
Two layout modes cover the wrist corpora used here:

* "columns": every data row carries all six channels (plus an optional
  timestamp column);
* "interleaved": rows carry one sensor reading each and are tagged with a
  sensor-type column and a sensor-id (body position) column; accelerometer and
  gyroscope rows are paired by sample number after filtering to one sensor id.

All channels are normalized at ingestion: accelerometer to g, gyroscope to
deg/s, timestamps to seconds since recording start.

The canonical interchange format is one UTF-8 CSV per trial
(`t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z`, '.' decimals, '\\n' newlines, floats
printed with repr so they round-trip bit-exactly) plus an `index.jsonl` file
with one record per trial (subject, activity code, label, rate, relative
path). Rewriting the same trials produces byte-identical output.

Every corpus writer (`staged_corpus`) also stores, in ROWS_NAME, the rows that
reading each trial gives at the default window (`TrialRows`: one row per window,
its 88 features, then the peak of each threshold signal), computed by the file
worker that writes the trial. `read_index` keeps only where each trial's rows
lie in ROWS_NAME (`RowStore`). `map_trials` hashes each trial file with the
trial's index fields and the reduction's identity (`_row_key`) in the calling
process; on a match it reads just that trial's records from ROWS_NAME at their
offset and parses nothing. Only the misses go to the file workers, which parse
the file. A trial whose reduction fails or warns is not stored, so its reader
meets the same error. The trial files stay the only sample format: deleting
ROWS_NAME changes no output, only time.

`map_raw_trials` (which `ingest` and the `ingest` command parse through),
`write_canonical` and `map_trials` (which `read_canonical` and every fit and
prediction reduce trials through) spread their per-trial work over the CPUs
the process may use (`_map_files`); `taskset -c 0` runs them serially.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import pickle
import re
import shutil
import tempfile
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .core import DEFAULT_WINDOW_SECONDS, Label, Source, TrialRecording, as_rate, is_int, segment
from .errors import CanonicalFormatError, DataError, in_stage, read_json, read_json_line, reading
from .features import N_FEATURES, window_values
from .threshold import THRESHOLD_SIGNALS

ACC_UNIT_TO_G = {"g": 1.0, "m/s2": 1.0 / 9.80665, "mg": 1e-3}
GYR_UNIT_TO_DPS = {"deg/s": 1.0, "rad/s": 180.0 / math.pi}
TIME_UNIT_TO_S = {"s": 1.0, "ms": 1e-3, "us": 1e-6}

CANONICAL_HEADER = "t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z"
# Every byte of a plain decimal number, which np.loadtxt and `float` read alike.
_PLAIN_NUMBER_BYTES = b"0123456789.eE+-"
INDEX_NAME = "index.jsonl"
TRIALS_DIR = "trials"
ROWS_NAME = "rows.npy"
# One record of ROWS_NAME per window of each trial it holds, a trial's windows in order: the trial's key (`_row_key`)
# and the window's row at the default window, its 88 features, then the peak of each of THRESHOLD_SIGNALS.
_N_STORED = N_FEATURES + len(THRESHOLD_SIGNALS)
_ROWS_DTYPE = np.dtype([("key", "S64"), ("values", "<f8", (_N_STORED,))])
TRIAL_ID_CHARS = "A-Za-z0-9_.-"  # of a trial id, so that `<trial_id>.csv` is one file name in TRIALS_DIR
# The fewest files `_map_files` forks for. Reading 16 canonical trials of 340 samples took as long forked
# as serially on 2 CPUs; 32 took 12 % less and 64 took 35 % less. In-memory recordings of one short window each
# do not gain at all: `run_experiment` on 120 synthetic trials took 13-17 ms longer forked on 2 CPUs.
MIN_FORK_ITEMS = 32


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _outcomes(fn: Callable, share: Iterable):
    """(True, fn(x)) for each x of `share` in order; the first x that raises ends it with (False, exception)."""
    for x in share:
        try:
            result = fn(x)
        except Exception as exc:
            yield False, exc
            return
        yield True, result


def _spool_share(fn: Callable, share: Sequence, spool) -> NoReturn:
    """In a forked child: pickle the outcomes of `share` one by one to `spool`, then leave by os._exit.

    os._exit runs none of the cleanup inherited from the parent: the stdio buffers are never flushed
    (so nothing the parent printed is written twice), and no atexit handler or enclosing `finally` or
    `with` runs. The exit status is 0 only when every outcome is spooled.
    """
    status = 1
    try:
        for outcome in _outcomes(fn, share):
            # protocol 4, not 5: an array unpickled from protocol 5 stays a view of a bytearray, which kept
            # 0.6 MiB more alive in the parent after reading the 765-trial Erciyes corpus
            pickle.dump(outcome, spool, 4)
        spool.flush()
        status = 0
    finally:
        os._exit(status)


def _unspool(spool) -> list:
    spool.seek(0)
    outcomes = []
    while True:
        try:
            outcomes.append(pickle.load(spool))
        except EOFError:
            return outcomes


def _map_files(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items], computed on every CPU the process may use.

    With k >= 2 usable CPUs and at least MIN_FORK_ITEMS items, k - 1 forked
    children each take the share items[i::k] and spool what fn returns for
    each item, or the exception it raised, to an unlinked temporary file. The
    parent computes share 0, waits for every child and puts the results back in
    input order. As in the serial loop, the exception of the first failing item
    in input order is raised. A child that ends without spooling its whole
    share (killed, or a result that cannot be pickled) raises RuntimeError:
    no partial list is ever returned.

    Forking is safe here: the toolkit starts no thread, and the children call
    no BLAS. The parent may have (`evaluate` forks again after fitting), but
    OpenBLAS shuts its worker threads down before any fork.
    """
    k = min(_usable_cpus(), len(items))
    if k < 2 or len(items) < MIN_FORK_ITEMS:
        return [fn(x) for x in items]
    pids = []
    with contextlib.ExitStack() as stack:
        spools = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(1, k)]
        try:
            for i, spool in enumerate(spools, start=1):
                pid = os.fork()
                if pid == 0:
                    _spool_share(fn, items[i::k], spool)
                pids.append(pid)
            shares = [list(_outcomes(fn, items[::k]))]
        except BaseException:  # an interrupt, or a fork that failed: the children's work is not wanted
            import signal  # here, not at the top, so that starting the CLI imports no extra module

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        for pid, status in zip(pids, statuses):
            if status != 0:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"file worker {pid} ended without its results (exit status {code})")
        shares += map(_unspool, spools)
    # share i holds items i, i + k, ...: read round-robin, the outcomes come in input order, and as each share stops at
    # its own first failure, the first failure read is the first in input order (a share's end reads as None)
    results = []
    for ok, value in filter(None, itertools.chain.from_iterable(itertools.zip_longest(*shares))):
        if not ok:
            raise value
        results.append(value)
    return results


@dataclass(frozen=True)
class LayoutSpec:
    """Table-driven description of a raw corpus layout."""

    file_glob: str
    path_regex: str
    mode: str = "columns"  # or "interleaved"
    delimiter: str | None = None  # None = any whitespace
    comment_prefix: str = "#"
    skip_header_lines: int = 0
    time_column: int | None = None
    time_unit: str = "s"
    acc_columns: tuple[int, int, int] = (0, 1, 2)
    gyr_columns: tuple[int, int, int] = (3, 4, 5)
    acc_unit: str = "g"
    gyr_unit: str = "deg/s"
    # interleaved mode only:
    sensor_type_column: int | None = None
    acc_type_value: str = ""
    gyr_type_value: str = ""
    sensor_id_column: int | None = None
    sensor_id_value: str = ""
    sample_no_column: int | None = None
    value_columns: tuple[int, int, int] = (0, 1, 2)

    def __post_init__(self):
        for f in fields(self):  # each value against its annotation; every int is an index or count >= 0
            value = getattr(self, f.name)
            if f.type == "tuple[int, int, int]":
                ok = isinstance(value, tuple) and len(value) == 3 and all(is_int(c) and c >= 0 for c in value)
            elif value is None:
                ok = f.type.endswith("| None")
            else:
                ok = (is_int(value) and value >= 0) if f.type.startswith("int") else isinstance(value, str)
            if not ok:
                raise DataError(f"layout {f.name} must be {f.type}, got {value!r}")
        if self.delimiter == "":
            raise DataError("layout delimiter must not be empty; null splits on any whitespace")
        if self.mode not in ("columns", "interleaved"):
            raise DataError(f"unknown layout mode {self.mode!r}")
        for key in ("sensor_type_column", "sensor_id_column", "sample_no_column"):
            if self.mode == "interleaved" and getattr(self, key) is None:
                raise DataError(f"interleaved layout requires {key}")
        if self.acc_unit not in ACC_UNIT_TO_G:
            raise DataError(f"unknown accelerometer unit {self.acc_unit!r}")
        if self.gyr_unit not in GYR_UNIT_TO_DPS:
            raise DataError(f"unknown gyroscope unit {self.gyr_unit!r}")
        if self.time_unit not in TIME_UNIT_TO_S:
            raise DataError(f"unknown time unit {self.time_unit!r}")
        try:
            re.compile(self.path_regex)
        except re.error as exc:
            raise DataError(f"path_regex {self.path_regex!r} does not compile: {exc}") from None


@dataclass(frozen=True)
class DatasetManifest:
    source: Source
    root: Path
    tasks: dict[str, tuple[Label, str]]  # code -> (label, description)
    layout: LayoutSpec
    nominal_rate_hz: float
    sensor_position: str = "wrist"
    expected: dict | None = None  # participants / adl_trials / fall_trials

    def __post_init__(self):
        # frozen, so set through object; a JSON integer rate is kept as a float
        object.__setattr__(self, "nominal_rate_hz", as_rate(self.nominal_rate_hz, "nominal_rate_hz"))
        if self.expected is not None and not isinstance(self.expected, dict):
            raise DataError(f"expected must be a JSON object, got {self.expected!r}")


@dataclass
class IngestReport:
    n_trials: int = 0
    n_adl: int = 0
    n_fall: int = 0
    subjects: tuple[str, ...] = ()
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def summary(self) -> str:
        line = f"{self.n_trials} trials ({self.n_adl} ADL / {self.n_fall} fall), {len(self.subjects)} subjects"
        if self.skipped:
            line += f"; skipped {len(self.skipped)} files"
        return line


def load_manifest(path) -> DatasetManifest:
    """The manifest in `path`; a file that is not one, or a value of the wrong type, raises DataError naming it."""
    path = Path(path)
    doc = read_json(path)
    with reading(path):
        if not isinstance(doc, dict):
            raise DataError("a manifest must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(DatasetManifest)}
        if unknown:
            raise DataError(f"unknown manifest keys {sorted(unknown)}")
        lay = {key: tuple(value) if isinstance(value, list) else value for key, value in dict(doc["layout"]).items()}
        doc.update(
            source=Source(doc["source"]),
            root=path.parent / doc["root"],  # an absolute root replaces the manifest's directory
            tasks={code: (Label(entry["label"]), entry.get("description", "")) for code, entry in doc["tasks"].items()},
            layout=LayoutSpec(**lay),
        )
        return DatasetManifest(**doc)


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        **asdict(manifest),
        "source": manifest.source.value,
        "root": str(manifest.root),
        "tasks": {code: {"label": lab.value, "description": desc} for code, (lab, desc) in manifest.tasks.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _data_lines(text: str, layout: LayoutSpec) -> tuple[list[int], list[str]]:
    """The file line number and the stripped text of each data line: a line that is not blank, not a comment and past
    the layout's header lines. Lines are counted from 1, split at each '\n'."""
    numbers, lines = [], []
    kept = 0
    # split at '\n' alone: str.splitlines also breaks at '\x1c', '\x85', '\u2028' and more, which would make one
    # corrupt line two samples; read_text has already turned '\r\n' and a lone '\r' into '\n'
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or (layout.comment_prefix and line.startswith(layout.comment_prefix)):
            continue
        kept += 1
        if kept > layout.skip_header_lines:
            numbers.append(line_no)
            lines.append(line)
    return numbers, lines


def _is_plain(lines: Sequence[str], delimiter: str | None) -> bool:
    """Whether the lines hold only _PLAIN_NUMBER_BYTES and `delimiter` (spaces and tabs for None): the gate of every
    `_loadtxt` call, of raw and canonical rows alike. On such fields `np.loadtxt` and `float` accept the same text and
    give the same bits; outside them they differ (loadtxt reads '\\x1c9' as 9.0). A delimiter that is more than one
    character, whitespace or one of those bytes fails; an empty line passes, so a caller that refuses one tests it.
    """
    if delimiter is None:
        separators = b" \t"
    elif len(delimiter) == 1 and delimiter.isascii() and delimiter.isprintable() and not delimiter.isspace():
        separators = delimiter.encode("ascii")
    else:
        return False
    text = "\n".join(lines)
    plain = _PLAIN_NUMBER_BYTES + b"\n"
    return separators not in plain and text.isascii() and not text.encode("ascii").translate(None, plain + separators)


def _loadtxt(lines: Sequence[str], delimiter: str | None, columns: tuple | None, dtype=float) -> np.ndarray | None:
    """`columns` (None: all) of the lines as one np.loadtxt call reads them, or None if it refuses a line (a row
    without one of the columns, or of another length than the first, or a field such as '1e')."""
    try:
        return np.loadtxt(lines, delimiter=delimiter, comments=None, usecols=columns, dtype=dtype, ndmin=2)
    except ValueError:
        return None


def _time_axis(t_raw: np.ndarray | list[float] | None, n: int, layout: LayoutSpec, rate_hz: float) -> np.ndarray:
    """Seconds since the first sample: the raw timestamps scaled to s, or the nominal rate when there are none."""
    if t_raw is None:
        return np.arange(n) / rate_hz
    t_raw = np.asarray(t_raw, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite result is refused by TrialRecording.validate
        return (t_raw - t_raw[0]) * TIME_UNIT_TO_S[layout.time_unit]


def _parse_columns(numbers: list[int], lines: list[str], layout: LayoutSpec, rate_hz: float):
    columns = (*layout.acc_columns, *layout.gyr_columns)
    if layout.time_column is not None:
        columns += (layout.time_column,)
    values = _loadtxt(lines, layout.delimiter, columns) if _is_plain(lines, layout.delimiter) else None
    if values is None:
        needed = max(columns)
        matrix = []
        for line_no, line in zip(numbers, lines):
            row = line.split(layout.delimiter)
            if len(row) <= needed:
                raise DataError(f"line {line_no}: expected at least {needed + 1} columns, got {len(row)}")
            try:
                matrix.append([float(row[c]) for c in columns])
            except ValueError as exc:
                raise DataError(f"line {line_no}: {exc}") from None
        values = np.asarray(matrix, dtype=float).reshape(-1, len(columns))
    t_raw = values[:, 6] if layout.time_column is not None else None
    return _time_axis(t_raw, values.shape[0], layout, rate_hz), values[:, :3], values[:, 3:6]


def _last_per_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in increasing order, and the index of the last row holding each."""
    distinct, first_from_end = np.unique(keys[::-1], return_index=True)  # a stable sort: the first of equal keys
    return distinct, len(keys) - 1 - first_from_end


def _interleaved_by_loadtxt(lines: list[str], layout: LayoutSpec):
    """`_parse_interleaved`'s rows from one loadtxt of the numbers and one of the sensor id and type fields, compared
    as text, or None if the row loop must read the lines."""
    tags = (layout.sensor_id_value, layout.acc_type_value, layout.gyr_type_value)
    if not _is_plain([*lines, *tags], layout.delimiter):  # numpy compares a tag ending in '\x00' as if without it
        return None
    time = () if layout.time_column is None else (layout.time_column,)
    values = _loadtxt(lines, layout.delimiter, (layout.sample_no_column, *layout.value_columns, *time))
    # a field longer than every tag is cut to one character more than the longest, which still equals no tag
    width = max(map(len, tags)) + 1
    kinds = _loadtxt(lines, layout.delimiter, (layout.sensor_id_column, layout.sensor_type_column), f"U{width}")
    if values is None or kinds is None:
        return None
    ours = kinds[:, 0] == layout.sensor_id_value
    if not np.isfinite(values[ours, 0]).all():  # the row loop's int() of an infinite sample number raises
        return None
    acc = ours & (kinds[:, 1] == layout.acc_type_value)
    return acc, ours & (kinds[:, 1] == layout.gyr_type_value) & ~acc, values


def _interleaved_by_row(numbers: list[int], lines: list[str], layout: LayoutSpec):
    """`_parse_interleaved`'s rows, line by line: the rows of the configured sensor id, with the first bad one
    raising DataError naming its line. Tags are compared as Python strings, which keep a trailing '\\x00'."""
    acc, gyr, matrix = [], [], []
    for line_no, line in zip(numbers, lines):
        row = line.split(layout.delimiter)
        try:
            if row[layout.sensor_id_column].strip() != layout.sensor_id_value:
                continue
            kind = row[layout.sensor_type_column].strip()
            sample_no = int(float(row[layout.sample_no_column]))
            xyz = [float(row[c]) for c in layout.value_columns]
            is_acc = kind == layout.acc_type_value
            t_raw = float(row[layout.time_column]) if is_acc and layout.time_column is not None else math.nan
        except (IndexError, ValueError, OverflowError) as exc:  # OverflowError: an infinite sample number
            raise DataError(f"line {line_no}: {exc}") from None
        acc.append(is_acc)
        gyr.append(not is_acc and kind == layout.gyr_type_value)
        matrix.append([sample_no, *xyz, t_raw])
    return np.array(acc, dtype=bool), np.array(gyr, dtype=bool), np.array(matrix, dtype=float).reshape(-1, 5)


def _parse_interleaved(numbers: list[int], lines: list[str], layout: LayoutSpec, rate_hz: float):
    """Pair the accelerometer and gyroscope rows of the configured sensor id by sample number, read by loadtxt
    (`_interleaved_by_loadtxt`) or else line by line (`_interleaved_by_row`): each gives the two row masks and the rows'
    (sample number, x, y, z[, timestamp]). A sample number is truncated to an integer, of the rows of one sensor type
    with one sample number the last counts, and the pairs come out in sample number order."""
    acc, gyr, values = _interleaved_by_loadtxt(lines, layout) or _interleaved_by_row(numbers, lines, layout)
    acc_keys, acc_last = _last_per_key(np.trunc(values[acc, 0]))
    gyr_keys, gyr_last = _last_per_key(np.trunc(values[gyr, 0]))
    _, acc_at, gyr_at = np.intersect1d(acc_keys, gyr_keys, assume_unique=True, return_indices=True)
    if not len(acc_at):
        raise DataError("no paired accelerometer/gyroscope samples for the configured sensor id")
    acc_rows = values[acc][acc_last[acc_at]]
    t_raw = acc_rows[:, 4] if layout.time_column is not None else None
    return _time_axis(t_raw, len(acc_rows), layout, rate_hz), acc_rows[:, 1:4], values[gyr][gyr_last[gyr_at], 1:4]


def parse_trial_file(path, layout: LayoutSpec, rate_hz: float):
    """Return (t, acc_g, gyr_dps) arrays for one raw trial file.

    A file whose data lines are plain numbers (`_is_plain`) is parsed by one np.loadtxt call (two for an interleaved
    layout, whose sensor id and type fields are compared as text). Any other file, and any that loadtxt refuses, is
    parsed line by line, which gives the same arrays and raises DataError naming the file line of the first bad row.
    """
    text = Path(path).read_text(encoding="utf-8")
    numbers, lines = _data_lines(text, layout)
    if not lines:
        raise DataError("no data rows")
    parse = _parse_columns if layout.mode == "columns" else _parse_interleaved
    t, acc, gyr = parse(numbers, lines, layout, rate_hz)
    return t, acc * ACC_UNIT_TO_G[layout.acc_unit], gyr * GYR_UNIT_TO_DPS[layout.gyr_unit]


def _trial_id(subject: str, code: str, trial: str) -> str:
    raw = f"{subject}_{code}_{trial}" if trial else f"{subject}_{code}"
    return re.sub(f"[^{TRIAL_ID_CHARS}]", "-", raw)


def map_raw_trials(fn: Callable[[TrialRecording], object], manifest: DatasetManifest) -> tuple[list, IngestReport]:
    """Parse and check every raw trial under the manifest root, one file per call on every CPU (`_map_files`).

    Returns one `(index fields, fn(recording))` per kept trial, in path order, and the report. A file worker hands
    back only what `fn` makes of a recording, so the caller holds no samples unless `fn` returns them. Trials
    failing validation are skipped and reported with their path and reason, never silently dropped. A file whose
    trial id an earlier kept file already gave is skipped as a duplicate; any other file that cannot be read
    raises its OSError.
    """
    root = manifest.root
    if not root.is_dir():
        raise DataError(f"manifest root {root} is not a readable directory")
    pattern = re.compile(manifest.layout.path_regex)

    def load(path: Path) -> tuple[str, dict | None, str | OSError | None, object]:
        """(rel, index fields or None if the path is skipped, the reason the file is skipped or None, fn(rec))."""
        rel = path.relative_to(root).as_posix()
        match = pattern.search(rel)
        if not match:
            return rel, None, "path does not match the layout's path_regex", None
        groups = match.groupdict()
        code = groups.get("code", "")
        task = manifest.tasks.get(code)
        if task is None:
            return rel, None, f"activity code {code!r} not in task table", None
        subject = groups.get("subject", "")
        fields = dict(
            trial_id=_trial_id(subject, code, groups.get("trial", "")),
            subject_id=subject,
            activity_code=code,
            label=task[0],
            sample_rate_hz=manifest.nominal_rate_hz,
            source=manifest.source,
        )
        try:
            t, acc, gyr = parse_trial_file(path, manifest.layout, manifest.nominal_rate_hz)
            rec = TrialRecording(**fields, t=t, acc=acc, gyr=gyr)
            rec.validate()
        except (DataError, UnicodeDecodeError) as exc:
            return rel, fields, str(exc), None
        except OSError as exc:  # raised by the walk below unless the file is a duplicate, whose content is ignored
            return rel, fields, exc, None
        return rel, fields, None, fn(rec)

    report = IngestReport()
    kept: list[tuple[dict, object]] = []
    kept_ids: set[str] = set()
    for rel, fields, reason, value in _map_files(load, sorted(root.glob(manifest.layout.file_glob))):
        tid = fields["trial_id"] if fields else None
        if tid in kept_ids:
            reason = f"duplicate trial id {tid}"
        elif isinstance(reason, OSError):
            raise reason
        if reason is not None:
            report.skipped.append((rel, reason))
            continue
        kept_ids.add(tid)
        kept.append((fields, value))
    report.n_trials = len(kept)
    report.n_fall = sum(fields["label"] is Label.FALL for fields, _ in kept)
    report.n_adl = report.n_trials - report.n_fall
    report.subjects = tuple(sorted({fields["subject_id"] for fields, _ in kept}))
    return kept, report


def ingest(manifest: DatasetManifest) -> tuple[list[TrialRecording], IngestReport]:
    """The validated recordings of every raw trial under the manifest root, in path order, and the report
    (`map_raw_trials` of the identity)."""
    kept, report = map_raw_trials(lambda rec: rec, manifest)
    return [rec for _, rec in kept], report


def write_repr_csv(path, columns: np.ndarray) -> bytes:
    """Write CANONICAL_HEADER, then one line per row of the 2-D array `columns`: each value as repr of a Python float.

    The values so read back bit for bit; `tolist` gives Python floats, as numpy >= 2 writes `np.float64(...)`.
    Returns the bytes written.
    """
    rows = [CANONICAL_HEADER] + [",".join(map(repr, row)) for row in columns.tolist()]
    data = ("\n".join(rows) + "\n").encode("utf-8")
    Path(path).write_bytes(data)
    return data


def _trial_path(fields: dict) -> str:
    """The trial file of index fields `fields`, relative to its corpus: `trials/<trial_id>.csv`."""
    return f"{TRIALS_DIR}/{fields['trial_id']}.csv"


def _write_index(out_dir: Path, ordered: Sequence[dict]) -> Path:
    """Write the index of the trials whose fields (`IndexEntry.fields`, or `vars` of a recording) are `ordered`."""
    index_lines = [
        json.dumps(
            {
                "trial_id": fields["trial_id"],
                "subject_id": fields["subject_id"],
                "activity_code": fields["activity_code"],
                "label": fields["label"].value,
                "sample_rate_hz": fields["sample_rate_hz"],
                "source": fields["source"].value,
                "path": _trial_path(fields),
            },
            sort_keys=True,
        )
        for fields in ordered
    ]
    index_path = out_dir / INDEX_NAME
    index_path.write_text("\n".join(index_lines) + ("\n" if index_lines else ""), encoding="utf-8")
    return index_path


@functools.cache
def _reduction_id() -> bytes:
    """The digest of what a stored row depends on besides its trial: the package's sources, numpy's version and the
    default window."""
    import hashlib  # here, not at the top, so that a command that hashes nothing does not load OpenSSL

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name} {len(data)}\n".encode() + data)
    digest.update(f"numpy {np.__version__} window {DEFAULT_WINDOW_SECONDS!r}".encode())
    return digest.digest()


def _row_key(fields: dict, data: bytes) -> bytes:
    """The key of a trial in ROWS_NAME: the sha256 of the reduction's identity (`_reduction_id`), the trial's index
    fields and the bytes `data` of its trial file, as hex digits."""
    import hashlib  # here, not at the top, so that a command that hashes nothing does not load OpenSSL

    record = [fields["trial_id"], fields["subject_id"], fields["activity_code"], fields["label"].value]
    record += [float(fields["sample_rate_hz"]), fields["source"].value]
    digest = hashlib.sha256(_reduction_id())
    digest.update(json.dumps(record).encode("utf-8") + b"\n")
    digest.update(data)
    return digest.hexdigest().encode("ascii")


def _split_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, acc, gyr) of canonical rows (n, 7): contiguous arrays, as ingest builds them, not views of one block."""
    return values[:, 0].copy(), values[:, 1:4].copy(), values[:, 4:7].copy()


def _clean_rows(
    rec: TrialRecording, values: np.ndarray, data: bytes, checked: bool = False
) -> tuple[bytes, np.ndarray] | None:
    """(key, rows) that ROWS_NAME holds for `rec`, written as `data` from its canonical rows `values`, or None.

    The rows are those a reader of the trial file computes at the default window (`read_trial`, then `TrialRows`)
    for the 88 features and for every threshold signal: `values` as read back, checked and reduced. A trial gets
    them only if that whole reduction gives no error and no warning, so a reader of any other trial meets the error
    or warning that reading it gives. A recording already `checked` (`map_raw_trials` validates each one) is not
    checked again: float64 `values` read back as its own arrays.
    """
    if values.dtype != np.float64:  # only float64 rows are written as the repr of each value
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, acc, gyr = _split_columns(values)
            read = dataclasses.replace(rec, sample_rate_hz=float(rec.sample_rate_hz), t=t, acc=acc, gyr=gyr)
            if not checked:
                read.validate()
            windows = segment(read)
            rows = np.hstack((window_values(windows, None), window_values(windows, THRESHOLD_SIGNALS)))
            return _row_key(vars(rec), data), rows
    except Exception:  # any failure leaves the trial to the reader, whose own read raises or warns as before
        return None


@contextlib.contextmanager
def staged_corpus(out_dir):
    """Write a canonical corpus into `out_dir` through a staging directory there; yields `(stage, commit)`.

    `stage(rec, checked=False)`, which a file worker may call, writes a recording's trial file under a name no other
    call gives and reduces it to the rows ROWS_NAME holds; it returns `(path, _clean_rows(...))`. `commit(pairs)`
    moves the staged file of each `(index fields, (path, rows))` pair to `trials/<trial_id>.csv`, writes the index in
    trial id order and replaces ROWS_NAME with the rows of those trials; a file staged but not committed (a
    duplicate's) goes with the staging directory. A trial id that repeats or holds a character outside
    TRIAL_ID_CHARS raises DataError naming it before any file moves. If the block raises, `out_dir` is left as it
    was found: the staging directory goes, and `out_dir` too if this call made it (with any parent it made). Only a
    failure while `commit` replaces the files of a corpus already there leaves a mix.
    """
    out_dir = Path(out_dir)
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # innermost first
    stage_dir = None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stage_dir = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
        names = itertools.count()

        def stage(rec: TrialRecording, checked: bool = False) -> tuple[Path, tuple[bytes, np.ndarray] | None]:
            path = stage_dir / f"{os.getpid()}-{next(names)}.csv"
            values = np.column_stack((rec.t, rec.acc, rec.gyr))
            return path, _clean_rows(rec, values, write_repr_csv(path, values), checked)

        def commit(pairs: Sequence[tuple[dict, tuple]]) -> Path:
            ordered = sorted(pairs, key=lambda pair: pair[0]["trial_id"])
            ids = [fields["trial_id"] for fields, _ in ordered]
            for tid, prev in zip(ids, [None, *ids]):
                if tid == prev or not re.fullmatch(f"[{TRIAL_ID_CHARS}]*", tid):
                    fault = "repeats" if tid == prev else f"holds a character outside {TRIAL_ID_CHARS}"
                    raise DataError(f"trial id {tid!r} {fault}: each trial needs a file of its own in {TRIALS_DIR}/")
            stored = [keyed for _, (_, keyed) in ordered if keyed is not None]
            records = [(key, row) for key, rows in stored for row in rows]
            np.save(stage_dir / ROWS_NAME, np.array(records, dtype=_ROWS_DTYPE), allow_pickle=False)
            (out_dir / TRIALS_DIR).mkdir(exist_ok=True)
            for fields, (path, _) in ordered:
                os.replace(path, out_dir / _trial_path(fields))
            index_path = _write_index(out_dir, [fields for fields, _ in ordered])
            os.replace(stage_dir / ROWS_NAME, out_dir / ROWS_NAME)
            return index_path

        yield stage, commit
    except BaseException:
        if made or stage_dir:
            shutil.rmtree(made[-1] if made else stage_dir, ignore_errors=True)  # the original error is raised
        raise
    shutil.rmtree(stage_dir)


def write_canonical(trials: Sequence[TrialRecording], out_dir) -> Path:
    """Write trials as the canonical corpus, one trial file per call on every CPU; returns the index path."""
    with staged_corpus(out_dir) as (stage, commit):
        staged = _map_files(stage, trials)
        return commit([(vars(rec), s) for rec, s in zip(trials, staged)])


def parse_canonical_row(line: str, prev_t: float) -> list[float]:
    """The values of one canonical row `t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z`.

    Raises ValueError naming the reason when the row does not have 7 fields,
    holds a non-numeric or non-finite field, or its `t` is not greater than
    `prev_t` (pass -inf for the first row).
    """
    parts = line.split(",")
    if len(parts) != 7:
        raise ValueError(f"expected 7 fields, got {len(parts)}")
    try:
        row = [float(p) for p in parts]
    except ValueError:
        raise ValueError("non-numeric field") from None
    if not all(map(math.isfinite, row)):
        raise ValueError("non-finite value")
    if row[0] <= prev_t:
        raise ValueError(f"timestamps not strictly increasing: t={row[0]!r} after t={prev_t!r}")
    return row


def parse_canonical_rows(lines: Sequence[str], prev_t: float) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """The values of a block of canonical rows, as a loop of `parse_canonical_row` gives them.

    Returns `(values, bad)`: the good rows as an (n, 7) array, and one
    `(index into lines, reason)` per bad row. `prev_t` is the `t` before the
    block and advances only on good rows.

    numpy parses the block in one call (`_loadtxt`) when every line is
    non-empty and passes the plain-number gate of raw files (`_is_plain` with
    ',' as delimiter), on which `np.loadtxt` and `float()` accept the same
    fields and give the same bits. Any block that fails that test, loadtxt, the
    7-column shape, finiteness or increasing `t` is judged row by row.
    """
    values = _loadtxt(lines, ",", None) if lines and all(lines) and _is_plain(lines, ",") else None
    if (
        values is not None
        and values.shape == (len(lines), 7)
        and np.isfinite(values).all()
        and values[0, 0] > prev_t
        and (values[1:, 0] > values[:-1, 0]).all()
    ):
        return values, []
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


def read_canonical_trial(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, acc, gyr) of one canonical trial file; a bad line raises CanonicalFormatError naming it."""
    path = Path(path)
    # an undecodable byte is kept as a surrogate, which the row parser rejects with its line number
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n")
        if header != CANONICAL_HEADER:
            raise CanonicalFormatError(str(path), 1, f"bad header {header!r}")
        lines = fh.read().split("\n")
    values, bad = parse_canonical_rows(list(filter(None, lines)), -math.inf)
    if bad:
        index, reason = bad[0]
        line_nos = [line_no for line_no, line in enumerate(lines, start=2) if line]
        raise CanonicalFormatError(str(path), line_nos[index], reason)
    return _split_columns(values)


class RowStore(Mapping):
    """The trials a ROWS_NAME file holds (`_read_rows`): each trial's key maps to (first record, record count) of its
    rows, which lie `offset` bytes into the file at `path`. Stores compare as their maps."""

    def __init__(self, path: Path, offset: int, spans: dict[bytes, tuple[int, int]]):
        self.path, self.offset, self._spans = path, offset, spans

    def __getitem__(self, key: bytes) -> tuple[int, int]:
        return self._spans[key]

    def __iter__(self):
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return f"RowStore({str(self.path)!r}, <rows of {len(self)} trials>)"


class IndexEntry(NamedTuple):
    """One line of a corpus index: the trial file, the fields of its recording other than the arrays, and the store
    of its corpus (ROWS_NAME), which every entry of one `read_index` shares (`map_trials`)."""

    path: Path
    fields: dict
    stored: Mapping[bytes, tuple[int, int]] = {}

    @property
    def subject_id(self) -> str:
        return self.fields["subject_id"]

    @property
    def trial_id(self) -> str:
        return self.fields["trial_id"]

    @property
    def label(self) -> Label:
        return self.fields["label"]


def _index_entry(corpus_dir: Path, index_path: Path, line_no: int, raw: bytes) -> IndexEntry | None:
    """(trial file, recording fields) of one index line, or None for a blank one; raises CanonicalFormatError."""
    entry = read_json_line(index_path, line_no, raw)
    if entry is None:
        return None
    try:
        trial_path = corpus_dir / entry["path"]
        fields = dict(
            trial_id=entry["trial_id"],
            subject_id=entry["subject_id"],
            activity_code=entry["activity_code"],
            label=Label(entry["label"]),
            sample_rate_hz=as_rate(entry["sample_rate_hz"], "sample_rate_hz"),
            source=Source(entry["source"]),
        )
        if not all(isinstance(fields[key], str) for key in ("trial_id", "subject_id", "activity_code")):
            raise TypeError("trial_id, subject_id and activity_code must be strings")
    except KeyError as exc:
        raise CanonicalFormatError(str(index_path), line_no, f"index entry missing {exc}") from None
    except (DataError, TypeError, ValueError) as exc:  # not an object, or a value of the wrong type
        raise CanonicalFormatError(str(index_path), line_no, f"bad index entry: {exc}") from None
    return IndexEntry(trial_path, fields)


def _read_rows(path: Path) -> Mapping[bytes, tuple[int, int]]:
    """Where each trial's rows lie in a ROWS_NAME file (`RowStore`); a file that is missing, is not a `.npy` array
    of its declared size or holds another dtype holds none. Only the key column is read."""
    try:  # mapped, not read: a header that declares more records than the file holds allocates nothing
        table = np.lib.format.open_memmap(path, mode="r")
    except (OSError, ValueError, EOFError):
        return {}
    if table.dtype != _ROWS_DTYPE or table.ndim != 1:
        return {}
    spans, start = {}, 0
    for key, group in itertools.groupby(table["key"].tolist()):
        count = sum(1 for _ in group)
        spans[key] = (start, count)
        start += count
    return RowStore(path, table.offset, spans)


def read_index(corpus_dir) -> list[IndexEntry]:
    """The entries of a canonical corpus's index, in index order, each with the rows the corpus stores (ROWS_NAME).

    Every line is checked before a trial file is opened: a bad line, or one that repeats a trial_id or trial file
    (compared as normalized paths), raises CanonicalFormatError naming it.
    """
    corpus_dir = Path(corpus_dir)
    index_path = corpus_dir / INDEX_NAME
    if not index_path.is_file():
        raise DataError(f"no {INDEX_NAME} under {corpus_dir}")
    entries, seen = [], {}
    with open(index_path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if entry := _index_entry(corpus_dir, index_path, line_no, raw):
                # a trial listed twice would be read twice: fitted twice, or both fitted and scored
                for key in (f"trial_id {entry.fields['trial_id']}", f"trial file {os.path.normpath(entry.path)}"):
                    if seen.setdefault(key, line_no) != line_no:
                        raise CanonicalFormatError(str(index_path), line_no, f"{key} repeats line {seen[key]}")
                entries.append(entry)
    stored = _read_rows(corpus_dir / ROWS_NAME)
    return [entry._replace(stored=stored) for entry in entries]


def read_trial(entry: IndexEntry) -> TrialRecording:
    """The recording of one index entry, checked as `ingest` checks one (`TrialRecording.validate`).

    A bad line in its trial file raises CanonicalFormatError naming it, and a recording that fails a check, such as
    one of fewer than 2 rows or a declared rate 20 % off its rows' rate, a DataError naming the file.
    """
    t, acc, gyr = read_canonical_trial(entry.path)
    rec = TrialRecording(**entry.fields, t=t, acc=acc, gyr=gyr)
    with reading(entry.path):
        rec.validate()
    return rec


class TrialRows(NamedTuple):
    """A `map_trials` fn: the matrix (`features.window_values`, for `signals`; None: the 88 features) of the windows
    `segment` cuts from a recording at `window_seconds`, a toolkit error labelled with the pipeline `stage`."""

    signals: tuple[str, ...] | None
    window_seconds: float
    stage: str

    def __call__(self, rec: TrialRecording) -> np.ndarray:
        return in_stage(self.stage, lambda: window_values(segment(rec, self.window_seconds), self.signals))


def _stored_rows(request: TrialRows, entry: IndexEntry) -> np.ndarray | None:
    """`request` of the entry's recording from the rows its corpus stores, or None if they do not give it.

    They give it at the default window, for a trial file and index fields whose key (`_row_key`) the store holds: the
    rows of that key are the columns `request` reads of the rows `_clean_rows` computed from the same bytes. Only
    those records are read from ROWS_NAME, at their offset, and they give it only if exactly their count of records
    is read back, each holding the key: a store rewritten since `read_index`, or cut short, misses.
    """
    signals = request.signals
    if request.window_seconds != DEFAULT_WINDOW_SECONDS or not entry.stored:
        return None
    if signals is not None and not set(signals) <= set(THRESHOLD_SIGNALS):
        return None
    store = entry.stored
    try:
        key = _row_key(entry.fields, entry.path.read_bytes())
        if key not in store:
            return None
        first, count = store[key]
        records = np.fromfile(store.path, _ROWS_DTYPE, count, offset=store.offset + first * _ROWS_DTYPE.itemsize)
    except OSError:  # a trial file or store that cannot be read misses; the file worker's read raises as before
        return None
    if len(records) != count or not (records["key"] == key).all():
        return None
    columns = range(N_FEATURES) if signals is None else [N_FEATURES + THRESHOLD_SIGNALS.index(s) for s in signals]
    return records["values"][:, list(columns)]


def map_trials(fn: Callable[[TrialRecording], object], trials: Sequence[TrialRecording | IndexEntry]) -> list:
    """fn of each trial's recording, in order, on every CPU (`_map_files`); of several failures, the first is raised.

    `trials` are recordings or `read_index` entries, an entry read (`read_trial`) by the file worker that hands back
    only what `fn` makes of it, so a caller that reduces a file to a few numbers never holds its samples. For a
    `TrialRows` fn, this process first answers every entry whose rows its corpus stores (`_stored_rows`): the file
    is read and hashed but not parsed, and the rows are those reading it would give. Only the other trials go to
    the file workers, so a read that the store answers whole forks nothing. A hit cannot fail, so the first failing
    miss is raised.
    """
    hits = [
        _stored_rows(fn, trial) if isinstance(fn, TrialRows) and isinstance(trial, IndexEntry) else None
        for trial in trials
    ]

    def reduce(trial):
        return fn(read_trial(trial) if isinstance(trial, IndexEntry) else trial)

    misses = iter(_map_files(reduce, [trial for trial, rows in zip(trials, hits) if rows is None]))
    return [next(misses) if rows is None else rows for rows in hits]


def read_canonical(corpus_dir) -> list[TrialRecording]:
    """The trials of a canonical corpus: `read_index`, then every trial file through `map_trials`."""
    return map_trials(lambda rec: rec, read_index(corpus_dir))
