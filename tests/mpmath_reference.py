"""Reference confirmation pass in mpmath arithmetic.

This is the confirmation of near-zero scan minima as it stood before the
standard library's ``decimal`` took it over (``turan._confirm``): the same
recurrence kernel on mpfs under ``mpmath.workdps(EXTENDED_DPS)``.
test_turan.py requires the package to agree with it verdict for verdict and
value for value, up to a small fraction of the rounding bound. Only tests
import this module.
"""
from decimal import Decimal
from fractions import Fraction

import mpmath

from turandet.arith import EXTENDED_DPS
from turandet.recurrence import _dets, _rows


def _mpf(v) -> mpmath.mpf:
    """``v`` as an mpf rounded once to the working precision: a Fraction or
    a Decimal as its exact numerator over its denominator."""
    if isinstance(v, (Fraction, Decimal)):
        q = Fraction(v)
        return mpmath.mpf(q.numerator) / q.denominator
    return mpmath.mpf(v)


def exact(x: mpmath.mpf) -> Fraction:
    """The exact value of a finite mpf, sign included (mpmath's own
    ``man_exp`` drops the sign)."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def confirm(al_src, ga_src, pending: dict, sigma_src=None) -> dict:
    """{n: Delta_n(x)} as mpfs at EXTENDED_DPS digits; see turan._confirm."""
    hi = max(max(degrees) for degrees in pending.values()) + 1
    confirmed = {}
    with mpmath.workdps(EXTENDED_DPS):
        al = [_mpf(v) for v in al_src[:hi]]
        ga = [_mpf(v) for v in ga_src[:hi]]
        sigma = None if sigma_src is None else [_mpf(v) for v in sigma_src[:hi + 1]]
        for x, degrees in pending.items():
            rows = _rows(al, ga, mpmath.mpf(x), max(degrees) + 1, mpmath.mpf(1))
            if sigma is not None:
                rows = (r * s for r, s in zip(rows, sigma))
            confirmed.update(_dets(rows, degrees))
    return confirmed
