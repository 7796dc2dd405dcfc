"""Exception types shared across the toolkit."""


class WristfallError(Exception):
    """Base class for all toolkit errors."""


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


class SignalTooShort(DataError):
    pass


class NonFiniteSignal(DataError, ValueError):
    """A signal holds inf or nan, e.g. a derived signal that overflowed on huge but finite input."""


class NoSignalsEnabled(DataError):
    pass


class SingleClassDevSet(DataError):
    pass


class SingleClassTrainingSet(DataError):
    pass


class IncompleteFeatureVector(DataError):
    pass


class ManifestRootMissing(DataError):
    pass


class CanonicalFormatError(DataError):
    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class TooFewSubjects(DataError):
    pass


class ExperimentStageError(WristfallError):
    """Wraps a toolkit error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
