"""Trust value primitives: pairs, the linguistic scale, and display truncation."""

import math
from bisect import bisect_right
from typing import NamedTuple

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
    except OverflowError:  # an int beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not 0.0 <= number <= 1.0:
        raise TrustValueError(f"{label} {number!r} outside [0, 1]")
    return number + 0.0  # -0.0 + 0.0 is 0.0


#: The linguistic scale's codes, ascending: very low, low, indifferent, high, very high.
TRUST_CLASSES = ("VL", "L", "I", "H", "VH")
# A value takes the class whose band anchor is the greatest at or below it.
_ANCHORS = (0.00, 0.30, 0.50, 0.70, 0.85)


class TrustPair:
    """A (trust, untrust) value pair with each component in [0, 1]; -0.0 is stored as 0.0.

    Direct construction checks only the component ranges, which permits
    deliberately non-complementary pairs; use :func:`make_pair` to also
    enforce that the components sum to one. It is a slotted class, not a
    named tuple: the path-mean and hop-test loops read its fields, and on
    Python 3.11 and 3.12 a slot read is faster than a named tuple's.
    """

    __slots__ = ("trust", "untrust")

    def __init__(self, trust: float, untrust: float):
        # Literal labels: parsing builds a pair per edge, so no per-field loop or f-string.
        _set_trust(self, _unit(trust, "trust component"))
        _set_untrust(self, _unit(untrust, "untrust component"))

    def __setattr__(self, name, *value):  # also __delattr__, which passes no value
        from dataclasses import FrozenInstanceError  # here, not at start-up: only a misuse needs it

        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.trust, self.untrust) == (other.trust, other.untrust)

    def __hash__(self):
        return hash((self.trust, self.untrust))

    def __repr__(self):
        return f"{type(self).__name__}(trust={self.trust!r}, untrust={self.untrust!r})"

    def __reduce__(self):  # copy and pickle rebuild a pair through __init__
        return type(self), (self.trust, self.untrust)


# The slots' own setters, which bypass the pair's refusing __setattr__.
_set_trust, _set_untrust = TrustPair.trust.__set__, TrustPair.untrust.__set__

#: Full trust, the state every evaluation starts from at the source node.
FULL_TRUST = TrustPair(1.0, 0.0)


def make_pair(
    trust: float | str,
    untrust: float | str | None = None,
    *,
    strict: bool = True,
) -> TrustPair:
    """Build a validated pair; an omitted untrust defaults to 1 - trust.

    With strict=True (the default) an explicitly given untrust must
    complement trust to within COMPLEMENT_TOL; strict=False skips that
    check but still range-checks both components.
    """
    if untrust is None:
        # _unit checks trust once: 1.0 - trust is then in [0, 1] and never -0.0, so
        # the pair is built without __init__ checking both again.
        number = _unit(trust, "trust component")
        pair = object.__new__(TrustPair)
        _set_trust(pair, number)
        _set_untrust(pair, 1.0 - number)
        return pair
    pair = TrustPair(trust, untrust)
    if strict and abs(pair.trust + pair.untrust - 1.0) > COMPLEMENT_TOL:
        raise TrustValueError(
            f"trust {pair.trust!r} and untrust {pair.untrust!r} do not sum to 1 "
            f"(tolerance {COMPLEMENT_TOL:g}); pass strict=False (--no-strict) to allow this"
        )
    return pair


def classify(trust: float) -> str:
    """Map a numeric trust value in [0, 1] onto the five-label scale, as its code.

    Band anchors are 0.85, 0.70, 0.50, 0.30 and 0.00; the label is the
    one with the greatest anchor at or below the value, so e.g. 0.85
    is "VH" and 0.8499 is "H".
    """
    return TRUST_CLASSES[bisect_right(_ANCHORS, _unit(trust, "trust value")) - 1]


#: The most decimal places display_round renders.
MAX_DECIMALS = 12


def display_round(value: float, decimals: int) -> str:
    """Format a non-negative value truncated (never rounded up) at `decimals` places.

    Truncation operates on the shortest decimal form of the float, so the
    double closest to 0.17 renders as "0.17" rather than "0.16", while
    genuine extra digits are dropped: 0.825 at two decimals is "0.82".
    Every finite value renders, however large.
    """
    if not isinstance(decimals, int):
        raise TrustValueError(f"decimals must be an int, got {decimals!r}")
    if not 0 <= decimals <= MAX_DECIMALS:
        raise TrustValueError(f"decimals must be in [0, {MAX_DECIMALS}], got {decimals}")
    try:
        value = float(value) + 0.0  # -0.0 + 0.0 is 0.0, so no "-0.00"
    except OverflowError:  # an int beyond the float range
        value = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise TrustValueError(f"cannot display {value!r}: not a number") from None
    if not 0.0 <= value < math.inf:
        problem = "negative" if value < 0.0 else "non-finite"
        raise TrustValueError(f"cannot display {problem} value {value!r}")
    digits = repr(value)
    if "e" in digits:  # 1e+16, 5e-324: Decimal writes the same value in plain notation
        from decimal import Decimal  # here, not at start-up: few values take this branch

        digits = f"{Decimal(digits):f}"
    whole, _, fraction = digits.partition(".")
    return whole + "." + (fraction + "0" * MAX_DECIMALS)[:decimals] if decimals else whole


class _ConstantEntries(NamedTuple):
    theta_min: float = 0.51
    theta_max: float = 1.00
    theta_ind: float = 0.50
    upsilon_min: float = 0.49
    upsilon_max: float = 0.00
    upsilon_ind: float = 0.50


class ModelConstants(_ConstantEntries):
    """Fixed entries of the per-hop trust and untrust test matrices.

    The theta values fill the trust-test matrix and the upsilon values
    the untrust-test matrix; the defaults are the model's reference
    operating point. All entries must lie in [0, 1], however the tuple is
    built (_make and _replace included); -0.0 is stored as 0.0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return cls._make(_ConstantEntries(*args, **kwargs))  # arity, keywords and defaults

    @classmethod
    def _make(cls, iterable):  # exactly six entries; _replace builds through _make too
        return tuple.__new__(cls, map(_unit, _ConstantEntries._make(iterable), cls._fields))


#: The reference operating point used when no constants are passed.
DEFAULT_CONSTANTS = ModelConstants()
