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

Ingest, `write_canonical` and `read_canonical` spread their per-file work over
the CPUs the process may use (`_map_files`); `taskset -c 0` runs them serially.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pickle
import re
import tempfile
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

from .core import Label, Source, TrialRecording, as_rate, is_int
from .errors import (
    CanonicalFormatError,
    DataError,
    InvalidRecording,
    ManifestRootMissing,
)

ACC_UNIT_TO_G = {"g": 1.0, "m/s2": 1.0 / 9.80665, "mg": 1e-3}
GYR_UNIT_TO_DPS = {"deg/s": 1.0, "rad/s": 180.0 / math.pi}
TIME_UNIT_TO_S = {"s": 1.0, "ms": 1e-3, "us": 1e-6}

CANONICAL_HEADER = "t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z"
# Every byte that `repr` writes for a finite float, plus the row and field separators.
_REPR_FLOAT_BYTES = b"0123456789.e+-,\n"
INDEX_NAME = "index.jsonl"
TRIALS_DIR = "trials"
# The fewest files `_map_files` forks for. Reading 16 canonical trials of 340 samples took as long forked
# as serially on 2 CPUs; 32 took 12 % less and 64 took 35 % less.
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
    no BLAS (OpenBLAS shuts its worker threads down before any fork anyway).
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: not a JSON manifest: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: a manifest must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(DatasetManifest)}
    if unknown:
        raise DataError(f"{path}: unknown manifest keys {sorted(unknown)}")
    for f in fields(DatasetManifest):
        if f.default is MISSING and f.name not in doc:
            raise DataError(f"{path}: manifest missing {f.name!r}")
    try:
        lay = {key: tuple(value) if isinstance(value, list) else value for key, value in dict(doc["layout"]).items()}
        unknown = set(lay) - {f.name for f in fields(LayoutSpec)}
        if unknown:
            raise DataError(f"unknown layout keys {sorted(unknown)}")
        doc.update(
            source=Source(doc["source"]),
            root=path.parent / doc["root"],  # an absolute root replaces the manifest's directory
            tasks={code: (Label(entry["label"]), entry.get("description", "")) for code, entry in doc["tasks"].items()},
            layout=LayoutSpec(**lay),
        )
        return DatasetManifest(**doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # a value of the wrong type
        raise DataError(f"{path}: malformed manifest: {exc!r}") from None


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
    for key in ("sensor_type_column", "sensor_id_column", "sample_no_column"):
        if getattr(layout, key) is None:
            raise DataError(f"interleaved layout requires {key}")
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
        except (IndexError, ValueError) as exc:
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
    return re.sub(r"[^A-Za-z0-9_.-]", "-", raw)


def ingest(manifest: DatasetManifest) -> tuple[list[TrialRecording], IngestReport]:
    """Parse every raw trial under the manifest root.

    Trials failing validation are skipped and reported with their path and
    reason, never silently dropped. A file whose trial id an earlier file
    already gave is skipped as a duplicate, unless every earlier one was itself
    skipped.
    """
    root = manifest.root
    if not root.is_dir():
        raise ManifestRootMissing(f"manifest root {root} is not a readable directory")

    def load(candidate) -> TrialRecording | str:
        """The validated recording of one raw file, or the reason it is skipped."""
        path, tid, subject, code, label = candidate
        try:
            t, acc, gyr = parse_trial_file(path, manifest.layout, manifest.nominal_rate_hz)
            rec = TrialRecording(
                trial_id=tid,
                subject_id=subject,
                activity_code=code,
                label=label,
                sample_rate_hz=manifest.nominal_rate_hz,
                t=t,
                acc=acc,
                gyr=gyr,
                source=manifest.source,
            )
            rec.validate()
        except (DataError, InvalidRecording) as exc:
            return str(exc)
        return rec

    pattern = re.compile(manifest.layout.path_regex)
    files: list[tuple[str, str | tuple]] = []  # (rel, skip reason or load candidate), in path order
    for path in sorted(root.glob(manifest.layout.file_glob)):
        rel = path.relative_to(root).as_posix()
        match = pattern.search(rel)
        if not match:
            files.append((rel, "path does not match the layout's path_regex"))
            continue
        groups = match.groupdict()
        subject = groups.get("subject", "")
        code = groups.get("code", "")
        trial_no = groups.get("trial", "")
        label = manifest.label_for(code)
        if label is None:
            files.append((rel, f"activity code {code!r} not in task table"))
            continue
        files.append((rel, (path, _trial_id(subject, code, trial_no), subject, code, label)))

    # the first file of each trial id is loaded on every CPU; a later one only if all before it are skipped
    firsts: dict[str, tuple] = {}
    for _, candidate in files:
        if not isinstance(candidate, str):
            firsts.setdefault(candidate[1], candidate)
    loaded = dict(zip(firsts.values(), _map_files(load, list(firsts.values()))))

    report = IngestReport()
    trials: list[TrialRecording] = []
    subjects: set[str] = set()
    seen_ids: set[str] = set()
    for rel, candidate in files:
        if isinstance(candidate, str):
            report.skipped.append((rel, candidate))
            continue
        tid = candidate[1]
        if tid in seen_ids:
            report.skipped.append((rel, f"duplicate trial id {tid}"))
            continue
        rec = loaded[candidate] if candidate in loaded else load(candidate)
        if isinstance(rec, str):
            report.skipped.append((rel, rec))
            continue
        seen_ids.add(tid)
        trials.append(rec)
        subjects.add(rec.subject_id)
        if rec.label is Label.FALL:
            report.n_fall += 1
        else:
            report.n_adl += 1

    report.n_trials = len(trials)
    report.subjects = tuple(sorted(subjects))
    return trials, report


def _write_trial(out_dir: Path, rec: TrialRecording) -> None:
    rows = [CANONICAL_HEADER]
    rows += [",".join(map(repr, row)) for row in np.column_stack((rec.t, rec.acc, rec.gyr)).tolist()]
    (out_dir / TRIALS_DIR / f"{rec.trial_id}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_canonical(trials: Sequence[TrialRecording], out_dir) -> Path:
    """Write trials as the canonical corpus; returns the index path."""
    out_dir = Path(out_dir)
    (out_dir / TRIALS_DIR).mkdir(parents=True, exist_ok=True)
    ordered = sorted(trials, key=lambda r: r.trial_id)
    _map_files(lambda rec: _write_trial(out_dir, rec), ordered)
    index_lines = [
        json.dumps(
            {
                "trial_id": rec.trial_id,
                "subject_id": rec.subject_id,
                "activity_code": rec.activity_code,
                "label": rec.label.value,
                "sample_rate_hz": rec.sample_rate_hz,
                "source": rec.source.value,
                "path": f"{TRIALS_DIR}/{rec.trial_id}.csv",
            },
            sort_keys=True,
        )
        for rec in ordered
    ]
    index_path = out_dir / INDEX_NAME
    index_path.write_text("\n".join(index_lines) + ("\n" if index_lines else ""), encoding="utf-8")
    return index_path


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
                and (np.diff(values[:, 0]) > 0).all()
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


def _index_entry(corpus_dir: Path, index_path: Path, line_no: int, raw: bytes) -> tuple[Path, dict] | None:
    """(trial file, recording fields) of one index line, or None for a blank one; raises CanonicalFormatError."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise CanonicalFormatError(str(index_path), line_no, f"not UTF-8: {exc}") from None
    if not line:
        return None
    try:
        entry = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CanonicalFormatError(str(index_path), line_no, f"bad JSON: {exc}") from None
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
    return trial_path, fields


def read_canonical(corpus_dir) -> list[TrialRecording]:
    """The trials of a canonical corpus; a bad index entry or trial file raises CanonicalFormatError naming its line.

    The trial files are read on every CPU (`_map_files`). Of several bad lines, the first in index order is
    reported: a bad index line is raised only once the trial files listed before it have been read.
    """
    corpus_dir = Path(corpus_dir)
    index_path = corpus_dir / INDEX_NAME
    if not index_path.is_file():
        raise ManifestRootMissing(f"no {INDEX_NAME} under {corpus_dir}")
    entries, index_error = [], None
    with open(index_path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                entry = _index_entry(corpus_dir, index_path, line_no, raw)
            except CanonicalFormatError as exc:
                index_error = exc
                break
            if entry is not None:
                entries.append(entry)
    arrays = _map_files(read_canonical_trial, [trial_path for trial_path, _ in entries])
    if index_error is not None:
        raise index_error
    return [TrialRecording(**fields, t=t, acc=acc, gyr=gyr) for (_, fields), (t, acc, gyr) in zip(entries, arrays)]
