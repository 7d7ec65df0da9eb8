"""Number handling: exact rationals, exact values, parsing and serialization.

Every quantity in this package is exact (int/Fraction), a double, or a
``decimal.Decimal`` of extended precision. Every criterion decides with a
plain comparison on exact values: ``exact_value`` gives the rational value a
double or a Decimal already has, so a float input is judged on exactly the
numbers it holds and an overshoot, however small, is a violation.
"""
from __future__ import annotations

import math
import re
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
    "quotient_decimal",
    "number_text",
    "format_number",
    "pair_digits",
    "digit_cap_bits",
    "exceeds_digit_cap",
]

Num = Union[int, float, Fraction]

DEFAULT_DIGIT_CAP = 4096
EXTENDED_DPS = 50

_BITS_PER_DIGIT = 3.321928094887362
# a "p/q" string, as Fraction(str) reads it
_RATIO = re.compile(r"\s*([-+]?\d+(?:_\d+)*)/(\d+(?:_\d+)*)\s*")


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
    """Parse a rational from int/Fraction/float/str ("3/4", "0.25", "1e-3") or [num, den].

    A string whose ints are past the interpreter's limit on str-to-int
    digits, which Fraction(str) raises ValueError at, is read through
    Decimal, which has no such limit: each side of a "p/q" string as
    int(Decimal(side)), any other string as Fraction(Decimal(value))."""
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
            ratio = _RATIO.fullmatch(value)
            try:
                if ratio:
                    return Fraction(*(int(Decimal(side)) for side in ratio.groups()))
                return Fraction(Decimal(value))
            except (InvalidOperation, ValueError, OverflowError, ZeroDivisionError) as exc:
                # OverflowError: "Infinity"; ValueError: "NaN"; ZeroDivisionError: "p/0"
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
    by ``quotient_decimal``."""
    if not isinstance(x, Fraction):
        return Decimal(x)
    return quotient_decimal(x.numerator, x.denominator, ctx or getcontext())


def quotient_decimal(p: int, q: int, ctx: Context) -> Decimal:
    """p/q, for ints p and q > 0, rounded once to ``ctx``: the Decimal that
    ``ctx.divide(Decimal(p), Decimal(q))`` gives.

    A p/q of more than twice ctx.prec digits is first reduced to the integer
    quotient Q of p*10**k by q with at least prec + 2 digits, and a sticky
    last digit 1 when the remainder is not zero, so that Q*10**-(k+1) rounds
    as p/q does: converting two long ints to Decimals and dividing them
    would cost far more.
    """
    if pair_digits(p, q) <= 2 * ctx.prec:
        return ctx.divide(Decimal(p), Decimal(q))
    m = abs(p)
    # pair_digits over-counts by at most one digit, so Q has >= prec + 2 digits
    k = ctx.prec + 3 + pair_digits(q, 1) - pair_digits(m, 1)
    Q, R = divmod(m * 10 ** k, q) if k >= 0 else divmod(m, q * 10 ** -k)
    Q = 10 * Q + (R != 0)
    return Decimal(Q if p > 0 else -Q).scaleb(-k - 1, ctx)


def number_text(x) -> str:
    """str(x), also for an int or a Fraction whose ints are past the
    interpreter's limit on int-to-str digits (Python 3.10.7 and later), which
    the package leaves as it is: Decimal(i) reads an int's binary digits."""
    try:
        return str(x)
    except ValueError:  # past the limit
        p, q = x.numerator, x.denominator
        return str(Decimal(p)) if q == 1 else f"{Decimal(p)}/{Decimal(q)}"


def format_number(x):
    """JSON-ready form: Fractions become "num/den" strings, everything else a plain number."""
    if x is None:
        return None
    if isinstance(x, Fraction):
        return f"{number_text(x.numerator)}/{number_text(x.denominator)}"
    if isinstance(x, (int, float)):
        return x
    return float(x)


def pair_digits(p: int, q: int) -> int:
    """Rough decimal-digit size of p/q (max of numerator/denominator)."""
    bits = max(p.bit_length(), q.bit_length())
    return int(bits / _BITS_PER_DIGIT) + 1


def digit_cap_bits(cap: int) -> int:
    """The least bit length b such that pair_digits(p, q) > cap when the
    longer of p and q has b bits. pair_digits reads only that length and
    grows with it, so max(p.bit_length(), q.bit_length()) >= b decides
    pair_digits(p, q) > cap without a float division."""
    def passes(bits: int) -> bool:
        return pair_digits(1 << (bits - 1), 1) > cap
    bits = max(1, int(cap * _BITS_PER_DIGIT))
    while bits > 1 and passes(bits - 1):
        bits -= 1
    while not passes(bits):
        bits += 1
    return bits


def exceeds_digit_cap(x, cap: int) -> bool:
    return isinstance(x, Fraction) and pair_digits(x.numerator, x.denominator) > cap
