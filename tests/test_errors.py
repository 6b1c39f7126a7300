"""Errors cross a process boundary intact."""
import pickle

import pytest

from fabflow import errors

# constructor arguments of each leaf whose __init__ takes its own fields;
# every other leaf takes its message
FIELDS = {
    errors.ValidationErrors: (["metaheuristic_params.aco: weights out of range", "seed -2 is negative"],),
    errors.InfeasibleDemand: (30000, 20000),
    errors.UnstableStation: ("T", 1.25),
    errors.ZeroVehicles: ("T",),
    errors.MissingDistance: ("P1", "L2"),
}


def leaf_classes(cls=errors.FabflowError):
    subs = cls.__subclasses__()
    if not subs:
        return [cls]
    return [leaf for sub in subs for leaf in leaf_classes(sub)]


LEAVES = sorted(leaf_classes(), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", LEAVES, ids=lambda c: c.__name__)
def test_leaf_error_survives_pickling(cls):
    exc = cls(*FIELDS.get(cls, ("the input is malformed",)))
    got = pickle.loads(pickle.dumps(exc))
    assert type(got) is cls
    assert got.code == exc.code
    assert str(got) == str(exc)
    assert got.args == exc.args
    assert vars(got) == vars(exc)
