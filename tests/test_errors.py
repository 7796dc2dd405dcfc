import pickle

import pytest

from wristfall import errors

ERROR_TYPES = sorted(
    (obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, BaseException)),
    key=lambda cls: cls.__name__,
)
# constructor arguments of the classes whose __init__ takes more than a message
ARGS = {
    errors.EmptyRecording: ("S01_F01_1",),
    errors.InvalidRecording: ("S01_F01_1", "fewer than 2 samples"),
    errors.CanonicalFormatError: ("corpus/trials/S01_F01_1.csv", 7, "non-numeric field"),
    errors.ExperimentStageError: ("training", errors.CanonicalFormatError("corpus/index.jsonl", 3, "bad JSON")),
}


def described(exc):
    """Type, message, args and attributes of an exception; an attribute that is an exception is described too."""
    attrs = {k: described(v) if isinstance(v, BaseException) else v for k, v in vars(exc).items()}
    return type(exc), str(exc), exc.args, attrs


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_type_message_and_attributes(cls, protocol):
    """A forked corpus reader sends an item's error back pickled; it must arrive as it was raised."""
    exc = cls(*ARGS.get(cls, ("some message",)))
    back = pickle.loads(pickle.dumps(exc, protocol))
    assert described(back) == described(exc)
    assert isinstance(back, errors.WristfallError) == isinstance(exc, errors.WristfallError)
