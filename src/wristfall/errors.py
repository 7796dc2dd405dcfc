"""Exception types shared across the toolkit; `reading`, which turns a fault in a file's content into one; and the
JSON readers every file the toolkit decodes goes through."""

import contextlib
import copyreg
import json
from pathlib import Path


class WristfallError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # rebuilt from args and attributes without calling __init__, whose parameters differ per subclass,
        # so that every toolkit error survives pickling (as a forked corpus reader sends it back)
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DataError(WristfallError):
    """Bad input data (recordings, corpora, config files)."""


class EmptyRecording(DataError):
    def __init__(self, trial_id: str):
        super().__init__(f"recording {trial_id!r} has no samples")
        self.trial_id = trial_id


class InvalidRecording(DataError):
    def __init__(self, trial_id: str, reason: str):
        super().__init__(f"recording {trial_id!r} invalid: {reason}")
        self.trial_id = trial_id
        self.reason = reason


class NonFiniteSignal(DataError, ValueError):
    """A signal holds inf or nan, e.g. a derived signal that overflowed on huge but finite input."""


class CanonicalFormatError(DataError):
    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class ExperimentStageError(WristfallError):
    """Wraps a toolkit error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextlib.contextmanager
def reading(path):
    """Re-raise a fault in the content of the file at `path` as one DataError whose message starts with the path.

    A fault is a DataError raised while decoding, a missing key, or a value that does not decode or has the wrong
    type or size (UnicodeDecodeError and json's errors are ValueErrors). An OSError passes: it names the path.
    """
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except (DataError, AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None


def read_json(path):
    """The JSON value in the UTF-8 file at `path`; a file that does not decode raises DataError naming the path.

    Besides bytes that are not UTF-8 and text that is not JSON, that covers nesting too deep for the decoder
    (RecursionError) and an integer past Python's digit limit (a ValueError). An OSError passes: it names the path.
    """
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: {exc}") from None


def read_json_line(path, line_no: int, raw: bytes):
    """The JSON value of `raw`, line `line_no` of the file at `path`, or None for a blank line.

    A line that does not decode, for any of the reasons of `read_json`, raises CanonicalFormatError naming the line.
    """
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise CanonicalFormatError(str(path), line_no, f"not UTF-8: {exc}") from None
    try:
        return json.loads(line) if line else None
    except (ValueError, RecursionError) as exc:
        raise CanonicalFormatError(str(path), line_no, f"bad JSON: {exc}") from None
