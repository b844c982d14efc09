"""Trust value primitives: pairs, the linguistic scale, and display truncation."""

import math
from dataclasses import dataclass, fields
from decimal import ROUND_DOWN, Context, Decimal
from enum import IntEnum

#: Allowed deviation of trust + untrust from 1 when both components are given.
COMPLEMENT_TOL = 1e-9


class TrustValueError(ValueError):
    """A trust value, pair, or constant violates its domain constraints."""


def _unit(value, label: str) -> float:
    """value as a float in [0, 1], -0.0 as 0.0; errors name it as `label value`."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise TrustValueError(f"{label} {value!r} is not a number") from None
    if not 0.0 <= number <= 1.0:
        raise TrustValueError(f"{label} {number!r} outside [0, 1]")
    return number + 0.0  # -0.0 + 0.0 is 0.0


class TrustClass(IntEnum):
    """Linguistic trust labels, ordered from least to most trusted."""

    VERY_LOW = 1
    LOW = 2
    INDIFFERENT = 3
    HIGH = 4
    VERY_HIGH = 5

    @property
    def code(self) -> str:
        """Short display code: VL, L, I, H or VH."""
        return _CLASS_CODES[self]

    def __str__(self) -> str:
        return self.code


_CLASS_CODES = {
    TrustClass.VERY_LOW: "VL",
    TrustClass.LOW: "L",
    TrustClass.INDIFFERENT: "I",
    TrustClass.HIGH: "H",
    TrustClass.VERY_HIGH: "VH",
}

# Lower anchor of each label band; a value belongs to the label with the
# greatest anchor at or below it.
_CLASS_ANCHORS = (
    (0.85, TrustClass.VERY_HIGH),
    (0.70, TrustClass.HIGH),
    (0.50, TrustClass.INDIFFERENT),
    (0.30, TrustClass.LOW),
    (0.00, TrustClass.VERY_LOW),
)


@dataclass(frozen=True, slots=True)
class TrustPair:
    """A (trust, untrust) value pair with each component in [0, 1]; -0.0 is stored as 0.0.

    Direct construction checks only the component ranges, which permits
    deliberately non-complementary pairs; use :func:`make_pair` to also
    enforce that the components sum to one.
    """

    trust: float
    untrust: float

    def __post_init__(self):
        # Literal labels: parsing builds a pair per edge, so no per-field loop or f-string.
        object.__setattr__(self, "trust", _unit(self.trust, "trust component"))
        object.__setattr__(self, "untrust", _unit(self.untrust, "untrust component"))

    def complement(self) -> "TrustPair":
        """The pair with trust and untrust swapped."""
        return TrustPair(self.untrust, self.trust)

    def is_complementary(self) -> bool:
        """Whether trust + untrust equals one within COMPLEMENT_TOL."""
        return abs(self.trust + self.untrust - 1.0) <= COMPLEMENT_TOL


#: Full trust, the state every evaluation starts from at the source node.
FULL_TRUST = TrustPair(1.0, 0.0)


def make_pair(
    trust: float,
    untrust: float | None = None,
    *,
    strict: bool = True,
) -> TrustPair:
    """Build a validated pair; an omitted untrust defaults to 1 - trust.

    With strict=True (the default) an explicitly given untrust must
    complement trust to within COMPLEMENT_TOL; strict=False skips that
    check but still range-checks both components.
    """
    if untrust is None:
        return TrustPair(trust, 1.0 - float(trust))
    pair = TrustPair(trust, untrust)
    if strict and not pair.is_complementary():
        raise TrustValueError(
            f"trust {pair.trust!r} and untrust {pair.untrust!r} do not sum to 1 "
            f"(tolerance {COMPLEMENT_TOL:g}); pass strict=False to allow this"
        )
    return pair


def classify(trust: float) -> TrustClass:
    """Map a numeric trust value in [0, 1] onto the five-label scale.

    Band anchors are 0.85, 0.70, 0.50, 0.30 and 0.00; the label is the
    one with the greatest anchor at or below the value, so e.g. 0.85
    is VERY_HIGH and 0.8499 is HIGH.
    """
    value = _unit(trust, "trust value")
    for anchor, label in _CLASS_ANCHORS:
        if value >= anchor:
            return label
    raise AssertionError("unreachable: the 0.0 anchor matches every valid value")


#: Wide enough to quantize the largest float, 1.8e308, to 12 decimals:
#: 309 integer digits plus 12 fraction digits.
_DISPLAY = Context(prec=321)


def display_round(value: float, decimals: int) -> str:
    """Format a non-negative value truncated (never rounded up) at `decimals` places.

    Truncation operates on the shortest decimal form of the float, so the
    double closest to 0.17 renders as "0.17" rather than "0.16", while
    genuine extra digits are dropped: 0.825 at two decimals is "0.82".
    Every finite value renders, however large.
    """
    if decimals < 0:
        raise TrustValueError(f"decimals must be >= 0, got {decimals!r}")
    value = float(value)
    if value < 0.0:
        raise TrustValueError(f"cannot display negative value {value!r}")
    if not math.isfinite(value):
        raise TrustValueError(f"cannot display non-finite value {value!r}")
    quantum = Decimal(1).scaleb(-decimals)
    shown = Decimal(repr(value)).quantize(quantum, rounding=ROUND_DOWN, context=_DISPLAY)
    return f"{shown:f}"  # plain notation: str() would print a tiny value as "0E-12"


@dataclass(frozen=True)
class ModelConstants:
    """Fixed entries of the per-hop trust and untrust test matrices.

    The theta values fill the trust-test matrix and the upsilon values
    the untrust-test matrix; the defaults are the model's reference
    operating point. All entries must lie in [0, 1]; -0.0 is stored as 0.0.
    """

    theta_min: float = 0.51
    theta_max: float = 1.00
    theta_ind: float = 0.50
    upsilon_min: float = 0.49
    upsilon_max: float = 0.00
    upsilon_ind: float = 0.50

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, _unit(getattr(self, field.name), field.name))


#: The reference operating point used when no constants are passed.
DEFAULT_CONSTANTS = ModelConstants()
