"""Trust pair construction, the linguistic scale, and display truncation."""

import dataclasses
import math
from decimal import ROUND_DOWN, Context, Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trustpath import (
    FULL_TRUST,
    ModelConstants,
    TopologyParseError,
    TrustClass,
    TrustPair,
    TrustValueError,
    classify,
    display_round,
    make_pair,
    parse_topology,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_make_pair_explicit_components():
    assert make_pair(1, 0) == TrustPair(1.0, 0.0)
    assert make_pair(0.95, 0.05) == TrustPair(0.95, 0.05)
    assert make_pair(0, 1) == TrustPair(0.0, 1.0)


def test_make_pair_fills_omitted_untrust():
    assert make_pair(0.5) == TrustPair(0.5, 0.5)
    pair = make_pair(0.8)
    assert pair.untrust == pytest.approx(0.2, abs=1e-15)
    assert pair.trust + pair.untrust == pytest.approx(1.0, abs=1e-15)


@given(trust=unit)
def test_make_pair_components_sum_to_one(trust):
    pair = make_pair(trust)
    assert pair.trust + pair.untrust == pytest.approx(1.0, abs=1e-15)


def _bits(pair):
    return type(pair), pair.trust.hex(), pair.untrust.hex()


# "1e-400" underflows to 0.0; float() also reads a sign without digits before the point
# and Unicode digits, as in "٠.٥" (0.5 in Arabic-Indic digits).
_TOKENS = ["0", "1", "-0", ".5", "1e-400", "+.5", "٠.٥"]


@given(trust=unit | st.integers(0, 1) | unit.map(repr) | st.sampled_from(_TOKENS))
@example(trust=-0.0)
@example(trust="-0.0")
@example(trust=5e-324)
@example(trust="1e-400")
@example(trust="+.5")
@example(trust="٠.٥")
def test_one_value_make_pair_is_bit_identical_to_checked_construction(trust):
    # make_pair(t) builds its pair without re-running TrustPair's checks
    pair, checked = make_pair(trust), TrustPair(float(trust), 1.0 - float(trust))
    assert _bits(pair) == _bits(checked)
    assert pair == checked and hash(pair) == hash(checked)


@pytest.mark.parametrize(
    "token, message",
    [
        ("nan", "line 5: trust component nan outside [0, 1]"),
        ("-0.1", "line 5: trust component -0.1 outside [0, 1]"),
        ("abc", "line 5: trust component 'abc' is not a number"),
        ("1e400", "line 5: trust component inf outside [0, 1]"),
        ("-inf", "line 5: trust component -inf outside [0, 1]"),
        ("1_0", "line 5: trust component 10.0 outside [0, 1]"),
    ],
)
def test_one_value_edge_errors_keep_their_text(token, message):
    with pytest.raises(TopologyParseError) as excinfo:
        parse_topology(f"node S\nnode D\nsource S\ndest D\nedge S D {token}\n")
    assert str(excinfo.value) == message
    assert excinfo.value.line == 5


def test_make_pair_strict_complementarity():
    with pytest.raises(TrustValueError):
        make_pair(0.9, 0.2)
    relaxed = make_pair(0.9, 0.2, strict=False)
    assert (relaxed.trust, relaxed.untrust) == (0.9, 0.2)
    # deviations inside the tolerance are accepted
    make_pair(0.9, 0.1 + 1e-10)


def test_make_pair_range_errors():
    for bad in (-0.1, 1.5):
        with pytest.raises(TrustValueError):
            make_pair(bad)
    with pytest.raises(TrustValueError):
        make_pair(0.5, 1.5, strict=False)
    with pytest.raises(TrustValueError):
        TrustPair(float("nan"), 0.5)


def test_non_numbers_are_named():
    with pytest.raises(TrustValueError, match=r"^trust component 'x' is not a number$"):
        TrustPair("x", 0.5)
    with pytest.raises(TrustValueError, match=r"^theta_min 'x' is not a number$"):
        ModelConstants(theta_min="x")
    # make_pair derives an omitted untrust only after trust passes the same rule
    with pytest.raises(TrustValueError, match=r"^trust component 'x' is not a number$"):
        make_pair("x")
    with pytest.raises(TrustValueError, match=r"^trust component None is not a number$"):
        make_pair(None)


def test_ints_beyond_float_range_are_out_of_range():
    # an int too large for a float is out of range, not a bare OverflowError
    huge = 10**400
    with pytest.raises(TrustValueError, match=r"^trust component inf outside \[0, 1\]$"):
        make_pair(huge)
    with pytest.raises(TrustValueError, match=r"^untrust component -inf outside \[0, 1\]$"):
        TrustPair(0, -huge)
    with pytest.raises(TrustValueError, match=r"^untrust component inf outside \[0, 1\]$"):
        TrustPair(0, huge)
    with pytest.raises(TrustValueError, match=r"^trust value inf outside \[0, 1\]$"):
        classify(huge)
    with pytest.raises(TrustValueError, match=r"^theta_min inf outside \[0, 1\]$"):
        ModelConstants(theta_min=huge)
    with pytest.raises(TrustValueError, match=r"^cannot display non-finite value inf$"):
        display_round(huge, 2)
    with pytest.raises(TrustValueError, match=r"^cannot display negative value -inf$"):
        display_round(-huge, 2)


def test_full_trust_extreme():
    assert (FULL_TRUST.trust, FULL_TRUST.untrust) == (1.0, 0.0)
    assert make_pair(1.0, 0.0) == FULL_TRUST


def test_pair_is_slotted_frozen_hashable_and_equal_by_value():
    pair = TrustPair(0.9, 0.1)
    assert not hasattr(pair, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.trust = 0.5
    assert (pair.trust, pair.untrust) == (0.9, 0.1)
    twin = TrustPair(0.9, 0.1)
    assert twin == pair and twin is not pair
    assert hash(twin) == hash(pair)
    assert {pair: "edge"}[twin] == "edge"
    assert len({pair, twin, TrustPair(0.1, 0.9)}) == 2
    assert pair != TrustPair(0.1, 0.9)


def test_classify_scale_values():
    assert classify(1.0) is TrustClass.VERY_HIGH
    assert classify(0.8125) is TrustClass.HIGH
    assert classify(0.5) is TrustClass.INDIFFERENT
    assert classify(0.31) is TrustClass.LOW
    assert classify(0.0) is TrustClass.VERY_LOW


def test_classify_band_anchors():
    assert classify(0.85) is TrustClass.VERY_HIGH
    assert classify(0.8499) is TrustClass.HIGH
    assert classify(0.70) is TrustClass.HIGH
    assert classify(0.6999) is TrustClass.INDIFFERENT
    assert classify(0.50) is TrustClass.INDIFFERENT
    assert classify(0.4999) is TrustClass.LOW
    assert classify(0.30) is TrustClass.LOW
    assert classify(0.2999) is TrustClass.VERY_LOW


def test_classify_rejects_out_of_range():
    for bad in (-0.01, 1.01):
        with pytest.raises(TrustValueError):
            classify(bad)


def test_classify_names_its_value():
    with pytest.raises(TrustValueError, match=r"^trust value 'x' is not a number$"):
        classify("x")
    with pytest.raises(TrustValueError, match=r"^trust value 2\.0 outside \[0, 1\]$"):
        classify(2)


@given(a=unit, b=unit)
def test_classify_is_monotone(a, b):
    low, high = sorted((a, b))
    assert classify(low) <= classify(high)


def test_class_order_and_codes():
    ordered = [
        TrustClass.VERY_LOW,
        TrustClass.LOW,
        TrustClass.INDIFFERENT,
        TrustClass.HIGH,
        TrustClass.VERY_HIGH,
    ]
    assert sorted(TrustClass) == ordered
    assert [label.code for label in ordered] == ["VL", "L", "I", "H", "VH"]


def test_display_round_truncates():
    assert display_round(0.825, 2) == "0.82"
    assert display_round(0.8125, 2) == "0.81"
    assert display_round(0.175, 2) == "0.17"
    assert display_round(0.1875, 2) == "0.18"
    assert display_round(0.0245, 3) == "0.024"
    assert display_round(1.0, 2) == "1.00"
    assert display_round(0.17, 2) == "0.17"


def test_display_round_zero_decimals():
    assert display_round(0.999, 0) == "0"
    assert display_round(1.0, 0) == "1"


def test_display_round_renders_every_finite_value():
    assert display_round(1e26, 2) == "100000000000000000000000000.00"
    largest = display_round(1.7976931348623157e308, 12)
    assert largest.startswith("17976931348623157") and largest.endswith("." + "0" * 12)
    assert len(largest) == 309 + 1 + 12
    assert display_round(0.0, 12) == "0." + "0" * 12  # not "0E-12"
    for decimals in range(13):  # negative zero carries no sign into the text
        assert display_round(-0.0, decimals) == display_round(0.0, decimals)
    assert display_round(5e-324, 7) == "0.0000000"
    for bad in (float("inf"), float("nan")):
        with pytest.raises(TrustValueError):
            display_round(bad, 2)


def test_display_round_rejects_bad_input():
    with pytest.raises(TrustValueError):
        display_round(-0.5, 2)
    with pytest.raises(TrustValueError, match=r"^cannot display non-finite value nan$"):
        display_round(math.nan, 2)
    with pytest.raises(TrustValueError, match=r"^cannot display 'x': not a number$"):
        display_round("x", 2)
    with pytest.raises(TrustValueError, match=r"^cannot display None: not a number$"):
        display_round(None, 2)
    for decimals in (-1, 13, 10**6):
        message = rf"^decimals must be in \[0, 12\], got {decimals}$"
        with pytest.raises(TrustValueError, match=message):
            display_round(0.5, decimals)
    for decimals, shown in ((2.5, r"2\.5"), ("2", "'2'"), (None, "None")):
        with pytest.raises(TrustValueError, match=rf"^decimals must be an int, got {shown}$"):
            display_round(0.5, decimals)


@given(
    value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    decimals=st.integers(min_value=0, max_value=12),
)
@example(value=0.0, decimals=12)
@example(value=1.0, decimals=12)
@example(value=5e-324, decimals=12)
@example(value=1e-5, decimals=3)
@example(value=0.999999999999999, decimals=12)
def test_display_round_parses_back_at_or_below(value, decimals):
    text = display_round(value, decimals)
    shown = float(text)
    assert shown <= value
    assert value - shown < 10.0 ** (-decimals) + 1e-15
    # The width rule that a table writer may rely on: a value in [0, 1] takes a fixed width.
    assert len(text) == (decimals + 2 if decimals else 1)


@given(
    value=st.one_of(unit, st.floats(min_value=0.0, allow_infinity=False)),
    decimals=st.integers(min_value=0, max_value=12),
)
@example(value=0.0, decimals=12)
@example(value=5e-324, decimals=12)
@example(value=1.7976931348623157e308, decimals=12)
@example(value=1e16, decimals=0)
@example(value=9999999999999998.0, decimals=3)
@example(value=0.17, decimals=2)
@example(value=0.825, decimals=2)
def test_display_round_is_decimal_truncation(value, decimals):
    # The rule spelled out with Decimal: quantize the shortest repr, rounding down,
    # in a context wide enough for 309 integer digits plus 12 fraction digits.
    quantum = Decimal(1).scaleb(-decimals)
    shown = Decimal(repr(value)).quantize(quantum, ROUND_DOWN, Context(prec=321))
    assert display_round(value, decimals) == f"{shown:f}"


def test_constants_defaults_and_validation():
    constants = ModelConstants()
    assert (constants.theta_min, constants.theta_max, constants.theta_ind) == (0.51, 1.0, 0.5)
    assert (constants.upsilon_min, constants.upsilon_max, constants.upsilon_ind) == (
        0.49,
        0.0,
        0.5,
    )
    with pytest.raises(TrustValueError):
        ModelConstants(theta_min=1.2)
    with pytest.raises(TrustValueError):
        ModelConstants(upsilon_ind=-0.1)


def test_negative_zero_is_stored_as_zero():
    pair = TrustPair(-0.0, 1.0)
    assert math.copysign(1.0, pair.trust) == 1.0
    constants = ModelConstants(theta_min=-0.0, upsilon_max=-0.0)
    assert math.copysign(1.0, constants.theta_min) == 1.0
    assert math.copysign(1.0, constants.upsilon_max) == 1.0
