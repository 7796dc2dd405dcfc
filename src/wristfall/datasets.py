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

`map_raw_trials` (which `ingest` and the `ingest` command parse through),
`write_canonical` and `map_trials` (which `read_canonical` and every fit and
prediction reduce trials through) spread their per-trial work over the CPUs
the process may use (`_map_files`); `taskset -c 0` runs them serially.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import pickle
import re
import shutil
import tempfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

from .core import Label, Source, TrialRecording, as_rate, is_int
from .errors import CanonicalFormatError, DataError, read_json, read_json_line, reading

ACC_UNIT_TO_G = {"g": 1.0, "m/s2": 1.0 / 9.80665, "mg": 1e-3}
GYR_UNIT_TO_DPS = {"deg/s": 1.0, "rad/s": 180.0 / math.pi}
TIME_UNIT_TO_S = {"s": 1.0, "ms": 1e-3, "us": 1e-6}

CANONICAL_HEADER = "t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z"
# Every byte that `repr` writes for a finite float, plus the row and field separators.
_REPR_FLOAT_BYTES = b"0123456789.e+-,\n"
INDEX_NAME = "index.jsonl"
TRIALS_DIR = "trials"
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
    results: list = [None] * len(items)
    first_error = None
    for i, outcomes in enumerate(shares):
        for j, (ok, value) in enumerate(outcomes):
            index = i + j * k
            if ok:
                results[index] = value
            elif first_error is None or index < first_error[0]:
                first_error = (index, value)
    if first_error is not None:
        raise first_error[1]
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

    def label_for(self, code: str) -> Label | None:
        entry = self.tasks.get(code)
        return entry[0] if entry else None


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


def _data_rows(text: str, layout: LayoutSpec) -> list[list[str]]:
    rows = []
    kept = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or (layout.comment_prefix and line.startswith(layout.comment_prefix)):
            continue
        kept += 1
        if kept <= layout.skip_header_lines:
            continue
        rows.append(line.split(layout.delimiter))
    return rows


def _time_axis(t_raw: np.ndarray | list[float] | None, n: int, layout: LayoutSpec, rate_hz: float) -> np.ndarray:
    """Seconds since the first sample: the raw timestamps scaled to s, or the nominal rate when there are none."""
    if t_raw is None:
        return np.arange(n) / rate_hz
    t_raw = np.asarray(t_raw, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite result is refused by TrialRecording.validate
        return (t_raw - t_raw[0]) * TIME_UNIT_TO_S[layout.time_unit]


def _parse_columns(rows: list[list[str]], layout: LayoutSpec, rate_hz: float):
    columns = (*layout.acc_columns, *layout.gyr_columns)
    if layout.time_column is not None:
        columns += (layout.time_column,)
    needed = max(columns)
    matrix = []
    for i, row in enumerate(rows, start=1):
        if len(row) <= needed:
            raise DataError(f"row {i}: expected at least {needed + 1} columns, got {len(row)}")
        try:
            matrix.append([float(row[c]) for c in columns])
        except ValueError as exc:
            raise DataError(f"row {i}: {exc}") from None
    values = np.asarray(matrix, dtype=float).reshape(-1, len(columns))
    t_raw = values[:, 6] if layout.time_column is not None else None
    return _time_axis(t_raw, values.shape[0], layout, rate_hz), values[:, :3], values[:, 3:6]


def _parse_interleaved(rows: list[list[str]], layout: LayoutSpec, rate_hz: float):
    acc_rows: dict[int, tuple[float, list[float]]] = {}
    gyr_rows: dict[int, list[float]] = {}
    for i, row in enumerate(rows, start=1):
        try:
            if row[layout.sensor_id_column].strip() != layout.sensor_id_value:
                continue
            kind = row[layout.sensor_type_column].strip()
            sample_no = int(float(row[layout.sample_no_column]))
            xyz = [float(row[c]) for c in layout.value_columns]
            if kind == layout.acc_type_value:
                t_raw = float(row[layout.time_column]) if layout.time_column is not None else math.nan
                acc_rows[sample_no] = (t_raw, xyz)
            elif kind == layout.gyr_type_value:
                gyr_rows[sample_no] = xyz
        except (IndexError, ValueError, OverflowError) as exc:  # OverflowError: an infinite sample number
            raise DataError(f"row {i}: {exc}") from None
    common = sorted(acc_rows.keys() & gyr_rows.keys())
    if not common:
        raise DataError("no paired accelerometer/gyroscope samples for the configured sensor id")
    acc = np.array([acc_rows[k][1] for k in common])
    gyr = np.array([gyr_rows[k] for k in common])
    t_raw = [acc_rows[k][0] for k in common] if layout.time_column is not None else None
    return _time_axis(t_raw, len(common), layout, rate_hz), acc, gyr


def parse_trial_file(path, layout: LayoutSpec, rate_hz: float):
    """Return (t, acc_g, gyr_dps) arrays for one raw trial file."""
    text = Path(path).read_text(encoding="utf-8")
    rows = _data_rows(text, layout)
    if not rows:
        raise DataError("no data rows")
    if layout.mode == "columns":
        t, acc, gyr = _parse_columns(rows, layout, rate_hz)
    else:
        t, acc, gyr = _parse_interleaved(rows, layout, rate_hz)
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
        label = manifest.label_for(code)
        if label is None:
            return rel, None, f"activity code {code!r} not in task table", None
        subject = groups.get("subject", "")
        fields = dict(
            trial_id=_trial_id(subject, code, groups.get("trial", "")),
            subject_id=subject,
            activity_code=code,
            label=label,
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


def write_repr_csv(path, header: str, columns: np.ndarray) -> None:
    """Write `header`, then one line per row of the 2-D array `columns`: each value as repr of a Python float.

    The values so read back bit for bit; `tolist` gives Python floats, as numpy >= 2 writes `np.float64(...)`.
    """
    rows = [header] + [",".join(map(repr, row)) for row in columns.tolist()]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


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
                "path": f"{TRIALS_DIR}/{fields['trial_id']}.csv",
            },
            sort_keys=True,
        )
        for fields in ordered
    ]
    index_path = out_dir / INDEX_NAME
    index_path.write_text("\n".join(index_lines) + ("\n" if index_lines else ""), encoding="utf-8")
    return index_path


@contextlib.contextmanager
def staged_corpus(out_dir):
    """Write a canonical corpus into `out_dir` through a staging directory there; yields `(stage, commit)`.

    `stage(rec)`, which a file worker may call, writes a recording's trial file under a name no other call gives
    and returns its path. `commit(pairs)` moves the staged file of each `(index fields, path)` pair to
    `trials/<trial_id>.csv` and writes the index in trial id order; a file staged but not committed (a
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

        def stage(rec: TrialRecording) -> Path:
            path = stage_dir / f"{os.getpid()}-{next(names)}.csv"
            write_repr_csv(path, CANONICAL_HEADER, np.column_stack((rec.t, rec.acc, rec.gyr)))
            return path

        def commit(pairs: Sequence[tuple[dict, Path]]) -> Path:
            ordered = sorted(pairs, key=lambda pair: pair[0]["trial_id"])
            ids = [fields["trial_id"] for fields, _ in ordered]
            for tid, prev in zip(ids, [None, *ids]):
                if tid == prev or not re.fullmatch(f"[{TRIAL_ID_CHARS}]*", tid):
                    fault = "repeats" if tid == prev else f"holds a character outside {TRIAL_ID_CHARS}"
                    raise DataError(f"trial id {tid!r} {fault}: each trial needs a file of its own in {TRIALS_DIR}/")
            (out_dir / TRIALS_DIR).mkdir(exist_ok=True)
            for fields, path in ordered:
                os.replace(path, out_dir / TRIALS_DIR / f"{fields['trial_id']}.csv")
            return _write_index(out_dir, [fields for fields, _ in ordered])

        yield stage, commit
    except BaseException:
        if made or stage_dir:
            shutil.rmtree(made[-1] if made else stage_dir, ignore_errors=True)  # the original error is raised
        raise
    shutil.rmtree(stage_dir)


def write_canonical(trials: Sequence[TrialRecording], out_dir) -> Path:
    """Write trials as the canonical corpus, one trial file per call on every CPU; returns the index path."""
    with staged_corpus(out_dir) as (stage, commit):
        paths = _map_files(stage, trials)
        return commit([(vars(rec), path) for rec, path in zip(trials, paths)])


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

    numpy parses the block in one call when every line is non-empty and holds
    only the bytes `repr` writes for finite floats: on those, `np.loadtxt` and
    `float()` accept the same fields and give the same bits (outside them they
    differ: loadtxt reads '\\x1c9' as 9.0). Any block that fails that test, the
    7-column shape, finiteness or increasing `t` is judged row by row.
    """
    text = "\n".join(lines)
    if lines and all(lines) and text.isascii() and not text.encode("ascii").translate(None, _REPR_FLOAT_BYTES):
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            pass
        else:
            if (
                values.shape == (len(lines), 7)
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
    # contiguous channel arrays, as ingest builds them, not views of one block
    return values[:, 0].copy(), values[:, 1:4].copy(), values[:, 4:7].copy()


class IndexEntry(NamedTuple):
    """One line of a corpus index: the trial file, and the fields of its recording other than the arrays."""

    path: Path
    fields: dict

    @property
    def subject_id(self) -> str:
        return self.fields["subject_id"]


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


def read_index(corpus_dir) -> list[IndexEntry]:
    """The entries of a canonical corpus's index, in index order.

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
    return entries


def read_trial(entry: IndexEntry) -> TrialRecording:
    """The recording of one index entry, checked as `ingest` checks one (`TrialRecording.validate`).

    A bad line in its trial file raises CanonicalFormatError naming it, and a recording that fails a check, such as
    one of fewer than 2 rows or a declared rate 20 % off its rows' rate, a DataError naming the file.
    """
    trial_path, fields = entry
    t, acc, gyr = read_canonical_trial(trial_path)
    rec = TrialRecording(**fields, t=t, acc=acc, gyr=gyr)
    with reading(trial_path):
        rec.validate()
    return rec


def map_trials(fn: Callable[[TrialRecording], object], trials: Sequence[TrialRecording | IndexEntry]) -> list:
    """fn of each trial's recording, in order, on every CPU (`_map_files`); of several failures, the first is raised.

    `trials` are recordings or `read_index` entries, an entry read (`read_trial`) by the file worker that hands back
    only what `fn` makes of it, so a caller that reduces a file to a few numbers never holds its samples.
    """
    return _map_files(lambda trial: fn(read_trial(trial) if isinstance(trial, IndexEntry) else trial), trials)


def read_canonical(corpus_dir) -> list[TrialRecording]:
    """The trials of a canonical corpus: `read_index`, then every trial file through `map_trials`."""
    return map_trials(lambda rec: rec, read_index(corpus_dir))
