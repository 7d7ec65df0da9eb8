"""Number handling: exact rationals, exact values, parsing and serialization.

Every quantity in this package is exact (int/Fraction), a double, or an mpmath
float. Every criterion decides with a plain comparison on exact values:
``exact_value`` gives the rational value a double or an mpf already has, so a
float input is judged on exactly the numbers it holds and an overshoot, however
small, is a violation.
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
    "DEFAULT_DIGIT_CAP",
    "EXTENDED_DPS",
    "is_exact",
    "exact_value",
    "to_fraction",
    "coprime_fraction",
    "to_mpf",
    "format_number",
    "pair_digits",
    "exceeds_digit_cap",
]

Num = Union[int, float, Fraction]

DEFAULT_DIGIT_CAP = 4096
EXTENDED_DPS = 50

_BITS_PER_DIGIT = 3.321928094887362


def is_exact(x) -> bool:
    """True for ints and Fractions (bool excluded)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def exact_value(x):
    """The exact rational value of x: ints and Fractions as they are, a double
    or an mpf as the Fraction of its binary value (ParamError if not finite)."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, mpmath.mpf):
        man, exp = _man_exp(x)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    if not math.isfinite(x):
        raise ParamError(f"{x!r} is not a finite number")
    return Fraction(x)


def _man_exp(x: mpmath.mpf) -> tuple[int, int]:
    """(man, exp) with x = man*2**exp exactly, man carrying the sign, which
    mpmath's own ``man_exp`` drops; ParamError if x is not finite."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:  # mpmath's special values: +-inf and nan
        raise ParamError(f"{x} is not a finite number")
    return (-man if sign else man), exp


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


# coprime_fraction(p, q): the Fraction p/q of coprime ints p and q > 0, built
# without the gcd that Fraction(p, q) runs. On two 4000-digit ints that gcd
# costs more than the arithmetic that made them coprime.
if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 and later
    coprime_fraction = Fraction._from_coprime_ints
else:  # Python 3.10 and 3.11 spell it as a keyword of the constructor
    def coprime_fraction(p: int, q: int) -> Fraction:
        return Fraction(p, q, _normalize=False)


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


def pair_digits(p: int, q: int) -> int:
    """Rough decimal-digit size of p/q (max of numerator/denominator)."""
    bits = max(p.bit_length(), q.bit_length())
    return int(bits / _BITS_PER_DIGIT) + 1


def exceeds_digit_cap(x, cap: int = DEFAULT_DIGIT_CAP) -> bool:
    return isinstance(x, Fraction) and pair_digits(x.numerator, x.denominator) > cap
