"""Number handling: exact rationals, exact values, parsing and serialization.

Every quantity in this package is exact (int/Fraction), a double, or a
``decimal.Decimal`` of extended precision. Every criterion decides with a
plain comparison on exact values: ``exact_value`` gives the rational value a
double or a Decimal already has, so a float input is judged on exactly the
numbers it holds and an overshoot, however small, is a violation.
"""
from __future__ import annotations

import math
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    InvalidOperation,
    getcontext,
)
from fractions import Fraction
from typing import Union

from .errors import ParamError

__all__ = [
    "Num",
    "DEFAULT_DIGIT_CAP",
    "EXTENDED_DPS",
    "EXTENDED",
    "decimal_context",
    "is_exact",
    "exact_value",
    "to_fraction",
    "coprime_fraction",
    "to_decimal",
    "format_number",
    "pair_digits",
    "exceeds_digit_cap",
]

Num = Union[int, float, Fraction]

DEFAULT_DIGIT_CAP = 4096
EXTENDED_DPS = 50

_BITS_PER_DIGIT = 3.321928094887362


def decimal_context(prec: int) -> Context:
    """The decimal context of ``prec`` significant digits that every Decimal
    of the package is computed in: round-half-even, widest exponent range."""
    return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX)


# the extended precision of the ratios g_n past a digit-cap fallback
EXTENDED = decimal_context(EXTENDED_DPS)


def is_exact(x) -> bool:
    """True for ints and Fractions (bool excluded)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def exact_value(x):
    """The exact rational value of x: ints and Fractions as they are, a double
    or a Decimal as the Fraction of the value it holds (ParamError if not
    finite)."""
    if isinstance(x, (int, Fraction)):
        return x
    if not (x.is_finite() if isinstance(x, Decimal) else math.isfinite(x)):
        raise ParamError(f"{x!r} is not a finite number")
    return Fraction(x)


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


def to_decimal(x, ctx: Context | None = None) -> Decimal:
    """``x`` as a Decimal: an int, a double or a Decimal exactly, and a
    Fraction p/q rounded once to ``ctx`` (the current context by default),
    to the Decimal that ``ctx.divide(Decimal(p), Decimal(q))`` gives.

    A p/q of more than twice ctx.prec digits is first reduced to the integer
    quotient Q of p*10**k by q with at least prec + 2 digits, and a sticky
    last digit 1 when the remainder is not zero, so that Q*10**-(k+1) rounds
    as p/q does: converting two long ints to Decimals and dividing them
    would cost far more.
    """
    if not isinstance(x, Fraction):
        return Decimal(x)
    ctx = ctx or getcontext()
    p, q = x.numerator, x.denominator
    if pair_digits(p, q) <= 2 * ctx.prec:
        return ctx.divide(Decimal(p), Decimal(q))
    m = abs(p)
    # pair_digits over-counts by at most one digit, so Q has >= prec + 2 digits
    k = ctx.prec + 3 + pair_digits(q, 1) - pair_digits(m, 1)
    Q, R = divmod(m * 10 ** k, q) if k >= 0 else divmod(m, q * 10 ** -k)
    Q = 10 * Q + (R != 0)
    return Decimal(Q if p > 0 else -Q).scaleb(-k - 1, ctx)


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


def exceeds_digit_cap(x, cap: int) -> bool:
    return isinstance(x, Fraction) and pair_digits(x.numerator, x.denominator) > cap
