import pickle

import pytest

from seymour.errors import DigraphError, DigonPair

# every subclass, so a new error type cannot skip the round trip
ERROR_TYPES = sorted(DigraphError.__subclasses__(), key=lambda cls: cls.__name__)


@pytest.mark.parametrize("line", [None, 7])
@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_errors_round_trip_through_pickle(cls, line):
    values = tuple(range(len(cls.fields), 0, -1))  # descending, so DigonPair reorders
    error = cls(*values, line=line)
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is cls
    assert str(clone) == str(error)
    assert clone.args == error.args
    assert vars(clone) == vars(error)
    assert {name: getattr(error, name) for name in cls.fields} == dict(
        zip(cls.fields, error.args)
    )


def test_args_are_the_data_and_line_is_a_suffix():
    error = DigonPair(5, 2, line=4)
    assert error.args == (2, 5)
    assert (error.u, error.v, error.line) == (2, 5, 4)
    assert str(error) == "digon: both (2,5) and (5,2) present (line 4)"
