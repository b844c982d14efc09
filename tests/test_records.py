"""Result records are named tuples and TrustPair a slotted class: immutable, compared by value."""

import copy
import dataclasses
import json
import math
import pickle

import pytest

from helpers import run_cli
from trustpath import (
    DEFAULT_CONSTANTS,
    HopResult,
    ModelConstants,
    PathEvaluation,
    RankedPath,
    RouteResult,
    RouteStep,
    SimReport,
    TrustPair,
    TrustValueError,
    Verdict,
    make_pair,
)

HOP = HopResult(0.7, 0.3, Verdict.ACCEPTABLE)
STEP = RouteStep("S", "D", TrustPair(0.8, 0.2), HOP)

# Each record type, its field values in declaration order, and one field set to another value.
RECORDS = [
    (HopResult, {"trust": 0.7, "untrust": 0.3, "verdict": Verdict.ACCEPTABLE}, ("trust", 0.6)),
    (
        PathEvaluation,
        {"path": ("S", "D"), "hops": (HOP,), "mode": "trust"},
        ("mode", "untrust"),
    ),
    (
        RankedPath,
        {
            "path": ("S", "1", "D"),
            "mean_trust": 0.85,
            "mean_untrust": 0.15,
            "trust_class": "VH",
            "rank": 1,
        },
        ("rank", 2),
    ),
    (
        RouteStep,
        {"src": "S", "dst": "D", "edge": TrustPair(0.8, 0.2), "hop": HOP},
        ("edge", TrustPair(0.9, 0.1)),
    ),
    (RouteResult, {"path": ("S", "D"), "steps": (STEP,), "reached": True}, ("reached", False)),
    (
        SimReport,
        {
            "packets_sent": 3,
            "delivered": 2,
            "dropped": 1,
            "route_usage": {("S", "D"): 2},
            "drop_points": {"S": 1},
        },
        ("dropped", 0),
    ),
    (
        ModelConstants,
        {
            "theta_min": 0.61,
            "theta_max": 0.92,
            "theta_ind": 0.43,
            "upsilon_min": 0.34,
            "upsilon_max": 0.15,
            "upsilon_ind": 0.26,
        },
        ("theta_ind", 0.5),
    ),
]


@pytest.mark.parametrize(
    "record_type,values,changed", RECORDS, ids=[kind.__name__ for kind, _, _ in RECORDS]
)
def test_record_is_an_immutable_named_tuple_equal_by_value(record_type, values, changed):
    record = record_type(**values)
    assert record_type._fields == tuple(values)
    assert tuple(record) == tuple(values.values())  # it unpacks in field order
    twin = record_type(*values.values())
    assert twin == record and twin is not record
    assert record != record._replace(**dict([changed]))
    shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(record) == f"{record_type.__name__}({shown})"
    for name in values:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance __dict__
    if any(isinstance(value, dict) for value in values.values()):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert {record: "found"}[twin] == "found"


def test_record_properties():
    assert PathEvaluation(("S", "D"), (HOP,), "trust").confidential
    blocked = HopResult(0.3, 0.7, Verdict.NOT_ACCEPTABLE)
    assert not PathEvaluation(("S", "D"), (HOP, blocked), "trust").confidential
    assert RouteResult(("S", "D"), (STEP,), True).stuck_node is None
    assert RouteResult(("S", "a"), (), False).stuck_node == "a"


_BUILDS = {
    "positional": lambda entry: ModelConstants(0.51, 1.0, entry),
    "keyword": lambda entry: ModelConstants(theta_ind=entry),
    "_make": lambda entry: ModelConstants._make([0.51, 1.0, entry, 0.49, 0.0, 0.5]),
    "_replace": lambda entry: DEFAULT_CONSTANTS._replace(theta_ind=entry),
    # copy.replace is new in Python 3.13; before it, this repeats _replace.
    "copy.replace": lambda entry: getattr(copy, "replace", ModelConstants._replace)(
        DEFAULT_CONSTANTS, theta_ind=entry
    ),
}


@pytest.mark.parametrize("build", _BUILDS.values(), ids=list(_BUILDS))
def test_every_way_to_build_constants_checks_the_entries(build):
    with pytest.raises(TrustValueError, match=r"^theta_ind 2\.0 outside \[0, 1\]$"):
        build(2.0)
    with pytest.raises(TrustValueError, match=r"^theta_ind 'x' is not a number$"):
        build("x")
    with pytest.raises(TrustValueError, match=r"^theta_ind -inf outside \[0, 1\]$"):
        build(-(10**400))
    built = build(-0.0)
    assert type(built) is ModelConstants
    assert math.copysign(1.0, built.theta_ind) == 1.0
    assert build(1) == DEFAULT_CONSTANTS._replace(theta_ind=1.0)


def test_constants_make_takes_exactly_six_entries():
    with pytest.raises(TypeError, match="^Expected 6 arguments, got 5$"):
        ModelConstants._make([0.5] * 5)
    with pytest.raises(TypeError):
        ModelConstants(*[0.5] * 7)
    with pytest.raises(TypeError):
        ModelConstants(theta=0.5)


def test_constants_copy_and_pickle_keep_the_type():
    constants = ModelConstants(0.61, 0.92, 0.43, 0.34, 0.15, 0.26)
    copies = (copy.copy(constants), copy.deepcopy(constants), pickle.loads(pickle.dumps(constants)))
    for twin in copies:
        assert twin == constants and type(twin) is ModelConstants


def test_constants_fields_are_the_json_constants_keys(demo_file, capsys):
    code, out, _ = run_cli(capsys, "rank", "-t", demo_file, "--top", "1", "--format", "json")
    assert code == 0
    constants = json.loads(out)["inputs"]["constants"]
    assert list(constants) == list(ModelConstants._fields)
    assert constants == DEFAULT_CONSTANTS._asdict()


def test_pair_repr_refusals_and_copies():
    pair = TrustPair(0.9, 0.1)
    assert repr(pair) == "TrustPair(trust=0.9, untrust=0.1)"
    assert repr(make_pair("0.25")) == "TrustPair(trust=0.25, untrust=0.75)"
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'trust'$"):
        del pair.trust
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        pair.extra = 1
    assert (pair.trust, pair.untrust) == (0.9, 0.1)
    assert pair != (0.9, 0.1) and pair != HopResult(0.9, 0.1, Verdict.ACCEPTABLE)
    for twin in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
        assert twin == pair and type(twin) is TrustPair
