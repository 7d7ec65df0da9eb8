"""Number handling: exact rationals, guarded comparisons, parsing and serialization.

Every quantity in this package is either exact (int/Fraction) or floating point.
Comparison helpers take an ``exact`` flag: exact mode compares literally, float
mode demands (or grants) a small relative margin so that ties broken by roundoff
are not reported as strict violations.
"""
from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Union

import mpmath

from .errors import ParamError

__all__ = [
    "Num",
    "DEFAULT_MARGIN",
    "DEFAULT_DIGIT_CAP",
    "EXTENDED_DPS",
    "is_exact",
    "to_fraction",
    "to_mpf",
    "format_number",
    "frac_digits",
    "exceeds_digit_cap",
    "strictly_less",
    "less_equal",
    "close_to",
]

Num = Union[int, float, Fraction]

DEFAULT_MARGIN = 1e-14
DEFAULT_DIGIT_CAP = 4096
EXTENDED_DPS = 50

_BITS_PER_DIGIT = 3.321928094887362


def is_exact(x) -> bool:
    """True for ints and Fractions (bool excluded)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def to_fraction(value) -> Fraction:
    """Parse a rational from int/Fraction/float/str ("3/4", "0.25", "1e-3") or [num, den]."""
    if isinstance(value, bool):
        raise ParamError(f"cannot interpret {value!r} as a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParamError(f"{value!r} is not a finite number")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            try:
                return Fraction(Decimal(value))
            except (InvalidOperation, ValueError, OverflowError) as exc:
                # OverflowError: "Infinity"; ValueError: "NaN"
                raise ParamError(f"cannot parse {value!r} as a finite rational") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        num, den = value
        if isinstance(num, int) and isinstance(den, int) and den != 0:
            return Fraction(num, den)
        raise ParamError(f"rational pair must be two ints with nonzero denominator: {value!r}")
    raise ParamError(f"cannot interpret {value!r} as a rational number")


def to_mpf(x) -> mpmath.mpf:
    """Convert to mpmath float at the current working precision."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def format_number(x):
    """JSON-ready form: Fractions become "num/den" strings, everything else a plain number."""
    if x is None:
        return None
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, float)):
        return x
    return float(x)


def frac_digits(x: Fraction) -> int:
    """Rough decimal-digit size of a Fraction (max of numerator/denominator)."""
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(bits / _BITS_PER_DIGIT) + 1


def exceeds_digit_cap(x, cap: int = DEFAULT_DIGIT_CAP) -> bool:
    return isinstance(x, Fraction) and frac_digits(x) > cap


def _scale(a, b) -> float:
    return max(1.0, abs(float(a)), abs(float(b)))


def strictly_less(a, b, exact: bool, margin: float = DEFAULT_MARGIN) -> bool:
    """a < b; in float mode the gap must clear a relative margin."""
    if exact:
        return a < b
    return float(a) < float(b) - margin * _scale(a, b)


def less_equal(a, b, exact: bool, margin: float = DEFAULT_MARGIN) -> bool:
    """a <= b; in float mode overshoot within the relative margin is forgiven."""
    if exact:
        return a <= b
    return float(a) <= float(b) + margin * _scale(a, b)


def close_to(a, b, exact: bool, tol: float = DEFAULT_MARGIN) -> bool:
    """Equality (exact) or agreement within a relative tolerance (float)."""
    if exact:
        return a == b
    return abs(float(a) - float(b)) <= tol * _scale(a, b)
