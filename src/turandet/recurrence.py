"""Three-term recurrences for symmetric orthogonal polynomials on [-1, 1].

The recurrence is x*p_n(x) = gamma_n*p_{n+1}(x) + alpha_n*p_{n-1}(x) with
p_{-1} = 0, p_0 = 1 and alpha_0 = 0, so p_1(x) = x/gamma_0. A family is just
the pair of coefficient callables plus an exactness flag; evaluation,
value-at-1 ratios, normalization, associated shifts, scalings and the
orthonormal form all derive from that.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .arith import (
    DEFAULT_DIGIT_CAP,
    EXTENDED,
    Num,
    coprime_fraction,
    decimal_context,
    digit_cap_bits,
    exact_value,
    exceeds_digit_cap,
    is_exact,
    number_text,
    quotient_decimal,
    to_decimal,
)
from .errors import NonpositiveRatio, ParamError, TableRangeError

__all__ = [
    "CoefficientFamily",
    "RatioSequence",
    "NormalizedFamily",
    "ScalingSequence",
    "SandwichRow",
    "coefficients",
    "float_view",
    "eval_polys",
    "ratios_at_one",
    "normalize",
    "associated_family",
    "scaled_polys",
    "orthonormal_offdiag",
    "ratio_sandwich",
]


@dataclass(frozen=True)
class CoefficientFamily:
    """Recurrence coefficients (alpha_n, gamma_n) defining one polynomial family.

    ``alpha`` and ``gamma`` must be pure callables on n >= 0 with alpha(0) = 0
    and gamma(0) > 0. ``exact`` marks families whose coefficients are ints or
    Fractions, enabling the rational arithmetic paths.

    An exact callable may carry its integer form as an attribute ``linear``:
    four ints (a1, a0, b1, b0) >= 0 with b1*n + b0 > 0 and value
    (a1*n + a0)/(b1*n + b0) at every n >= 0. The step table reads it column
    by column (``_coprime_columns``) and builds no Fraction, and ``orthonormal_offdiag``
    reads it in int64 chunks when both callables carry one.
    ``functools.wraps`` copies the attribute, so a wrapper of such a callable
    keeps it, and a read through the form does not call the wrapper.
    """

    name: str
    alpha: Callable[[int], Num]
    gamma: Callable[[int], Num]
    exact: bool = True
    params: Mapping[str, object] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.alpha(0) != 0:
            raise ParamError(f"{self.name}: alpha_0 must be 0 (got {number_text(self.alpha(0))})")
        if not self.gamma(0) > 0:
            raise ParamError(f"{self.name}: gamma_0 must be positive "
                             f"(got {number_text(self.gamma(0))})")


def float_view(family) -> CoefficientFamily:
    """Same coefficients coerced to float; exact mode disabled."""
    a, g = family.alpha, family.gamma
    return CoefficientFamily(
        name=family.name,
        alpha=lambda n, _a=a: float(_a(n)),
        gamma=lambda n, _g=g: float(_g(n)),
        exact=False,
        params=dict(family.params),
        meta=dict(family.meta),
    )


def _table(values: Sequence[Num]) -> Callable[[int], Num]:
    """Callable n -> values[n]; an index outside the table raises TableRangeError."""
    vals = tuple(values)

    def at(n: int):
        if not 0 <= n < len(vals):
            raise TableRangeError(n, len(vals))
        return vals[n]

    return at


def coefficients(family, hi: int):
    """(alpha_0..alpha_hi, gamma_0..gamma_hi) as parallel lists."""
    if hi < 0:
        raise ParamError("index bound must be >= 0")
    ns = range(hi + 1)
    return [family.alpha(n) for n in ns], [family.gamma(n) for n in ns]


def _coprime_reader(coeff) -> Callable[[int], tuple[int, int]]:
    """n -> (p, q): the exact value of coeff(n) as coprime ints with q > 0,
    through the ``as_integer_ratio`` of its values, which is in lowest terms
    for Fractions, doubles and Decimals, and an integer as (v, 1). A value
    that is not finite is a ParamError."""
    def read(n: int):
        v = coeff(n)
        if isinstance(v, numbers.Integral):  # numpy's ints have no as_integer_ratio
            return int(v), 1
        try:
            return v.as_integer_ratio()
        except (OverflowError, ValueError):  # inf; nan
            raise ParamError(f"{v!r} is not a finite number") from None
    return read


def _coprime_columns(coeff, size: int) -> tuple[list[int], list[int]]:
    """The exact values of coeff(0)..coeff(size - 1) as two columns of
    coprime ints, numerators p and denominators q > 0.

    A callable that carries its integer form ``linear`` = (a1, a0, b1, b0)
    is read column by column, with no call and no Fraction: a1*n + a0 and
    b1*n + b0 over every n, then each pair over its gcd. Any other is read
    one value at a time (``_coprime_reader``)."""
    ns = range(size)
    linear = getattr(coeff, "linear", None)
    if linear is None:
        p, q = zip(*map(_coprime_reader(coeff), ns))
        return list(p), list(q)
    a1, a0, b1, b0 = linear
    p = [a1 * n + a0 for n in ns]
    q = [b1 * n + b0 for n in ns]
    g = list(map(math.gcd, p, q))
    return list(map(operator.floordiv, p, g)), list(map(operator.floordiv, q, g))


def _int_table(ps: Sequence[int], qs: Sequence[int]) -> Callable[[int], Fraction]:
    """Callable n -> ps[n]/qs[n] for coprime ps[n] and qs[n] > 0; an index
    outside the lists raises TableRangeError."""
    size = len(ps)

    def at(n: int):
        if not 0 <= n < size:
            raise TableRangeError(n, size)
        return coprime_fraction(ps[n], qs[n])

    return at


class _StepTable:
    """The exact coefficient table of a family for steps 0..N, and its steps.

    Reads alpha_0..alpha_{N+1} and gamma_0..gamma_{N+1} once, as columns of
    the coprime ints alpha_n = ap[n]/aq[n] and gamma_n = gp[n]/gq[n] of
    their exact values (``_coprime_columns``: a ``linear`` form column by
    column). It duck-types CoefficientFamily over them: ``alpha``/``gamma``
    build the Fraction of an index on read, an int read as a Fraction, so
    that the witnesses and values formed from an int table are exact too. A
    checker or ratio pass handed a step table reuses it, and the exact ratio
    passes read its int columns. Every criterion decides by integer
    cross-multiplication on the ints and, for n <= N,

        u_n = alpha_{n+1} - alpha_n                   = un[n]/ud[n]
        v_n = gamma_n - gamma_{n+1}                   = vn[n]/vd[n]
        w_n = alpha_{n+1}*gamma_n - alpha_n*gamma_{n+1} = wn[n]/wd[n]

    with positive, unreduced denominators: with alpha_n = p0/q0, alpha_{n+1}
    = p1/q1, gamma_n = r0/s0 and gamma_{n+1} = r1/s1,

        un = p1*q0 - p0*q1,  ud = q0*q1,  vn = r0*s1 - r1*s0,  vd = s0*s1,
        wn = (p1*q0)*(r0*s1) - (p0*q1)*(r1*s0),  wd = ud*vd.

    ``steps`` holds them as the six columns un, ud, vn, vd, wn, wd, built on
    first use from the four int columns, each product over whole columns:
    numerators and denominators in parallel lists take half the memory of a
    list of pairs. Fractions are built only for what a caller keeps: one
    per value, from these ints (``*_value``), with no Fraction arithmetic in
    a loop.
    """

    exact = True

    def __init__(self, family, N: int):
        self.N = N
        self.name, self.params, self.meta = family.name, family.params, family.meta
        size = max(N + 1, 0) + 1
        self.ap, self.aq = _coprime_columns(family.alpha, size)
        self.gp, self.gq = _coprime_columns(family.gamma, size)
        self.alpha = _int_table(self.ap, self.aq)
        self.gamma = _int_table(self.gp, self.gq)

    @functools.cached_property
    def steps(self):
        mul, sub = operator.mul, operator.sub
        ap, aq, gp, gq = self.ap, self.aq, self.gp, self.gq
        p1q0, p0q1 = list(map(mul, ap[1:], aq)), list(map(mul, ap, aq[1:]))
        r0s1, r1s0 = list(map(mul, gp, gq[1:])), list(map(mul, gp[1:], gq))
        ud, vd = list(map(mul, aq, aq[1:])), list(map(mul, gq, gq[1:]))
        return [list(map(sub, p1q0, p0q1)), ud, list(map(sub, r0s1, r1s0)), vd,
                list(map(sub, map(mul, p1q0, r0s1), map(mul, p0q1, r1s0))),
                list(map(mul, ud, vd))]

    def extended(self, n: int) -> tuple[Decimal, Decimal]:
        """alpha_n and gamma_n rounded once to EXTENDED Decimals from the ints:
        to_decimal of alpha(n) and gamma(n), without their Fractions."""
        return EXTENDED.divide(self.ap[n], self.aq[n]), EXTENDED.divide(self.gp[n], self.gq[n])

    def u_value(self, n: int) -> Fraction:
        un, ud, *_ = self.steps
        return Fraction(un[n], ud[n])

    def v_value(self, n: int) -> Fraction:
        _, _, vn, vd, _, _ = self.steps
        return Fraction(vn[n], vd[n])

    def w_value(self, n: int) -> Fraction:
        *_, wn, wd = self.steps
        return Fraction(wn[n], wd[n])

    @functools.cached_property
    def lambdas(self):
        """The step ratios lambda_n = v_n/u_n = L[n]/D[n] and their valid
        flags, as three columns over the steps: L = vn*ud, D = un*vd, so that
        D = 0 where u_n = 0, and valid[n] is whether u_n > 0, v_n > 0 and
        lambda_n <= 1. The ``lambda`` rows, the lambda route and the y-route
        all read these, formed once per table."""
        mul, gt, zeros = operator.mul, operator.gt, itertools.repeat(0)
        un, ud, vn, vd, _, _ = self.steps
        L, D = list(map(mul, vn, ud)), list(map(mul, un, vd))
        valid = list(map(operator.and_, map(operator.and_, map(gt, un, zeros), map(gt, vn, zeros)),
                         map(operator.le, L, D)))
        return L, D, valid

    def lam_value(self, n: int) -> Fraction:
        """lambda_n = L/D (ZeroDivisionError where u_n = 0)."""
        L, D, _ = self.lambdas
        return Fraction(L[n], D[n])


def _step_table(family, N: int) -> _StepTable:
    """The step table of ``family`` for steps 0..N; a step table for at least
    those steps is returned as it is."""
    if isinstance(family, _StepTable) and family.N >= N:
        return family
    return _StepTable(family, N)


def _rows(al, ga, x, hi: int, one=1, start=None):
    """Yield the rows p_n(x) of x*p_n = gamma_n*p_{n+1} + alpha_n*p_{n-1}, n <= hi.

    ``al``, ``ga``, ``x`` and ``one`` share one number domain: Fractions,
    floats, a float64 vector x, or Decimals used under the caller's decimal
    context. Only two rows are held. The stream starts at p_0 = one,
    p_1 = x/gamma_0; ``start = (k, p_{k-1}, p_k)`` resumes it and yields
    p_{k+1} onward.

    Each new row is finished in place before it is yielded: x*p_n, then
    minus alpha_n*p_{n-1}, then over gamma_n, the operations and order of
    (x*p_n - alpha_n*p_{n-1})/gamma_n. A vector row thus costs two
    temporaries per step, scalars only rebind, and a yielded row is never
    touched again.
    """
    if start is None:
        yield one
        if hi < 1:
            return
        k, p_prev, p = 1, one, x / ga[0]
        yield p
    else:
        k, p_prev, p = start
    for n in range(k, hi):
        q = x * p
        q -= al[n] * p_prev
        q /= ga[n]
        p_prev, p = p, q
        yield p


# Fewer blocks than this are not jumped: the rows are stepped forward, which
# costs fewer than 4*K steps and keeps the forward rounding at small n (the
# Chebyshev U determinants stay 1 within 1e-14 at n = 100, where two blocks
# of 40 steps miss it at 1.1e-14).
_MIN_BLOCKS = 4


def _block_size(hi: int) -> int:
    """The K steps of one block of ``_jump`` toward row hi: about 4*sqrt(hi).

    A jump over m rows makes K block steps on arrays of 2*(m/K) rows, m/K
    folds and up to K single steps after it: the same arithmetic for any K
    and O(sqrt(m)) numpy calls for K near sqrt(m). At m = 10^4 and 10^5 on
    147 abscissas the sweep took the same time, within 10%, for K from
    2*sqrt(m) to 8*sqrt(m).
    """
    return max(1, round(4 * math.sqrt(hi)))


def _jump(al, ga, x, hi: int, start):
    """(m, p_{m-1}, p_m) from start = (k, p_{k-1}, p_k), for the last row
    m = k + B*K <= hi of whole blocks of K = _block_size(hi) steps, or the
    start itself when B < _MIN_BLOCKS.

    ``al`` and ``ga`` are float64 arrays and ``x``, p_{k-1}, p_k float64
    vectors. All B blocks step at once: the block from row s = k + b*K
    carries the two solutions started from (p_{s-1}, p_s) = (0, 1) and
    (1, 0), the associated polynomials, as one (2, B, len(x)) array through
    K steps of the step of ``_rows``. Then p_{s+j} = p_s*u_j + p_{s-1}*v_j
    folds each block's 2x2 map into (p_{s-1}, p_s) in order. Every
    operation negates exactly under x -> -x, so the rows stay odd or even in
    x bit for bit, as those of ``_rows`` do.
    """
    k, p_prev, p = start
    K = _block_size(hi)
    B = (hi - k) // K
    if B < _MIN_BLOCKS:
        return start
    # coefficients of step j of every block: al[k + b*K + j] at [j, b, 0]
    al_b, ga_b = (np.reshape(c[k:k + B * K], (B, K)).T[:, :, None] for c in (al, ga))
    u_prev, u = np.zeros((2, B, len(x))), np.zeros((2, B, len(x)))
    u_prev[1] = u[0] = 1.0
    for a, g in zip(al_b, ga_b):
        q = x * u
        q -= a * u_prev
        q /= g
        u_prev, u = u, q
    for b in range(B):
        p_prev, p = p * u_prev[0, b] + p_prev * u_prev[1, b], p * u[0, b] + p_prev * u[1, b]
    return k + B * K, p_prev, p


def _dets(rows, degrees=None, first=1):
    """(n, Delta_n) from the rows p_{first-1}, p_first, ...: every n >= first,
    or only ``degrees``.

    Delta_n is p_n*p_n, then minus p_{n-1}*p_{n+1} in place: the operations
    of p_n*p_n - p_{n-1}*p_{n+1}, one temporary fewer for a vector row.
    """
    rows = iter(rows)
    p_prev, p = next(rows), next(rows)
    for n, p_next in enumerate(rows, start=first):
        if degrees is None or n in degrees:
            d = p * p
            d -= p_prev * p_next
            yield n, d
        p_prev, p = p, p_next


def _require_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int; ParamError naming ``name`` unless it is an
    integer (numbers.Integral, such as numpy's, but not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParamError(f"{name} must be an int >= {least} (got {value!r})")
    return int(value)


def eval_polys(family, n_max: int, x, dps: int | None = None) -> list:
    """Evaluate p_0(x)..p_{n_max}(x) by the forward recurrence.

    Arithmetic mode: exact Fractions when the family is exact and x, which
    must be finite, is an int/Fraction; Decimals at ``dps`` significant
    digits, an int >= 1, when given (``arith.decimal_context``); doubles
    otherwise. Exact runs that blow past DEFAULT_DIGIT_CAP decimal digits per
    value fall back to EXTENDED_DPS-digit Decimals for the remaining indices.
    """
    n_max = _require_count("n_max", n_max, 0)
    if dps is not None:
        _require_count("dps", dps)
    if not (is_exact(x) or (x.is_finite() if isinstance(x, Decimal) else math.isfinite(x))):
        raise ParamError(f"x must be a finite number (got {x!r})")
    al, ga = coefficients(family, max(n_max - 1, 0))
    if dps is not None:
        conv, scope = to_decimal, localcontext(decimal_context(dps))
    else:
        conv = Fraction if family.exact and is_exact(x) else float
        scope = contextlib.nullcontext()
    with scope:
        p: list = []
        for v in _rows([conv(c) for c in al], [conv(c) for c in ga], conv(x), n_max, conv(1)):
            if exceeds_digit_cap(v, DEFAULT_DIGIT_CAP):
                break
            p.append(v)
        else:
            return p
    # rational blow-up guard: finish in extended precision
    with localcontext(EXTENDED):
        p = [to_decimal(u) for u in (*p, v)]
        k = len(p) - 1
        p.extend(_rows([to_decimal(c) for c in al], [to_decimal(c) for c in ga], to_decimal(x),
                       n_max, start=(k, p[k - 1], p[k])))
    return p


@dataclass(frozen=True)
class RatioSequence:
    """Values g_n = p_{n+1}(1)/p_n(1); exact=False after a digit-cap fallback."""

    values: tuple
    exact: bool

    def poly_at_one(self, n: int):
        """p_n(1) as the cumulative product g_0*...*g_{n-1}; past a digit-cap
        fallback, multiplied at the EXTENDED_DPS digits that the ratios carry."""
        if n > len(self.values):
            raise ParamError(f"need {n} ratios, have {len(self.values)}")
        if self.exact:
            return math.prod(self.values[:n], start=Fraction(1))
        with localcontext(EXTENDED):
            return math.prod(self.values[:n], start=Decimal(1))


def _quotient(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    """(p/q)/(r/s) = (p*s)/(q*r) in lowest terms, for coprime p, q and
    coprime r, s with q, s > 0: through gcd(p, r) and gcd(q, s), each
    division by a gcd of 1 skipped; the denominator may be negative."""
    g = math.gcd(p, r)
    if g != 1:
        p, r = p // g, r // g
    g = math.gcd(q, s)
    if g != 1:
        q, s = q // g, s // g
    return p * s, q * r


class _ExactRatios:
    """The exact g_0, g_1, ... of a step table, formed in order as far as
    they are asked for and the table reaches, and kept in ``values`` as
    coprime int pairs (P, Q), Q > 0: up to the digit cap by ``up_to_cap``,
    and with no cap on other reads. No Fraction is built in the pass;
    ``ratio`` builds the one of an index on read.

    With alpha_n = a/b and gamma_n = c/d the table's coprime ints and
    g_{n-1} = P/Q, alpha_tilde_n = alpha_n/g_{n-1} = A/B in lowest terms
    through gcd(a, P) and gcd(b, Q), and g_n = (1 - A/B)/gamma_n = (B - A)*d/(B*c)
    in lowest terms through gcd(B - A, c) and gcd(B, d) (``_quotient``):
    each gcd pairs a coefficient's small int with a big one, and no gcd of
    two big ints is run. alpha_0 is read as 0 and g_{-1} as 1, so g_0 =
    1/gamma_0.

    With ``keep_tilde`` the pass also keeps each alpha_tilde_n = (A, B) that
    it forms, in ``tilde``: the normalized coefficients of a scan are these
    pairs. The other passes keep only the ratios.
    """

    def __init__(self, table: _StepTable, keep_tilde: bool = False):
        self._ap, self._aq, self._gp, self._gq = table.ap, table.aq, table.gp, table.gq
        self.values: list[tuple[int, int]] = []
        self.tilde: list[tuple[int, int]] | None = [] if keep_tilde else None

    def _tilde(self, n: int) -> tuple[int, int]:
        """alpha_tilde_n as coprime (A, B), B > 0, from g_{n-1} when it is formed."""
        if not n:
            return 0, 1
        return _quotient(self._ap[n], self._aq[n], *self.values[n - 1])

    def _extend(self, N: int, cap_bits: int | None = None) -> bool:
        """Form the ratios up to g_{N-1}, in one loop, or up to the first
        whose longer int has ``cap_bits`` bits or more when that is given;
        whether it stopped there. Forming them raises NonpositiveRatio at
        the first g_n <= 0 and ParamError at a gamma_n = 0, which g_n would
        divide by."""
        values, tilde = self.values, self.tilde
        ap, aq, gp, gq = self._ap, self._aq, self._gp, self._gq
        P, Q = values[-1] if values else (1, 1)
        for n in range(len(values), N):
            A, B = _quotient(ap[n], aq[n], P, Q) if n else (0, 1)
            if tilde is not None:
                tilde.append((A, B))
            c = gp[n]
            if c == 0:
                raise ParamError(f"gamma_{n} must be nonzero: g_{n} divides by it")
            P, Q = _quotient(B - A, B, c, gq[n])
            if Q < 0:
                P, Q = -P, -Q
            if not P > 0:
                raise NonpositiveRatio(n, coprime_fraction(P, Q))
            values.append((P, Q))
            if cap_bits is not None and (P.bit_length() >= cap_bits
                                         or Q.bit_length() >= cap_bits):
                return True
        return False

    def ratio(self, n: int) -> Fraction:
        """g_n, forming the ratios up to it."""
        self._extend(n + 1)
        return coprime_fraction(*self.values[n])

    def alpha_tilde(self, n: int) -> Fraction:
        """alpha_tilde_n = alpha_n/g_{n-1}."""
        self._extend(n)
        return coprime_fraction(*self._tilde(n))

    def fractions(self) -> list[Fraction]:
        """The ratios formed so far, as Fractions."""
        return list(itertools.starmap(coprime_fraction, self.values))

    def up_to_cap(self, N: int) -> bool:
        """Form g_0.. up to g_{N-1}, or up to the first g_n past
        DEFAULT_DIGIT_CAP digits, read when it runs; whether it stopped
        there. The cap is tested on bit lengths (``arith.digit_cap_bits``),
        which decides what pair_digits(P, Q) > DEFAULT_DIGIT_CAP decides."""
        return self._extend(N, digit_cap_bits(DEFAULT_DIGIT_CAP))

    def fall_back(self) -> list[Decimal]:
        """The digit-cap fallback: the ratios formed so far, each rounded once
        to an EXTENDED Decimal, for the Decimal tail (``_ratio_tail``) to
        continue. Once they are rounded, every exact ratio but the last, the
        only one that forming later ratios reads, is freed, and so are the
        kept alpha_tilde_n, so that the long ints are not held through the
        tail."""
        values = self.values
        rounded = [quotient_decimal(P, Q, EXTENDED) for P, Q in values]
        values[:-1] = [None] * (len(values) - 1)
        self.tilde = None
        return rounded


def _normal_quotient(p: int, q: int) -> float:
    """p/q by int true division, or NaN where its nearest double is not normal."""
    try:
        r = p / q
    except OverflowError:
        return math.nan
    return r if abs(r) >= sys.float_info.min else math.nan


def _float_quotients(ps, qs):
    """The doubles below and above the double nearest each p/q (int true
    division), or NaN for both where that one is not normal (overflow,
    subnormal or zero): the column is read whole unless it holds such a p/q."""
    try:
        r = list(map(operator.truediv, ps, qs))
    except OverflowError:
        r = [0.0]  # some p/q is past the doubles: read the column one at a time
    if min(map(abs, r), default=1.0) < sys.float_info.min:
        r = list(map(_normal_quotient, ps, qs))
    return (list(map(math.nextafter, r, itertools.repeat(-math.inf))),
            list(map(math.nextafter, r, itertools.repeat(math.inf))))


def _div_down(x: float, y: float) -> float:
    return math.nextafter(x / y, -math.inf)


def _div_up(x: float, y: float) -> float:
    return math.nextafter(x / y, math.inf)


def _ratio_bounds(table, N: int, exact: _ExactRatios, start: int = 0):
    """Yield bounds on alpha_tilde_n and on g_n for n = start..N, as doubles
    (a_lo, a_hi, g_lo, g_hi); g_N is not formed, and its pair is (None, None).

    The pass reads the ints ap, aq, gp, gq of the step table ``table``
    (indices 0..N) and builds no Fraction. It bounds each alpha_n = a/b and
    gamma_n = c/d by ``_float_quotients``, reads alpha_0 as 0, starts from
    g_{start-1}, 1 at start 0 and else the exact pair in ``exact.values``,
    and carries alpha_tilde_n = alpha_n/g_{n-1} and g_n = (1 -
    alpha_tilde_n)/gamma_n as [lo, hi]. Only the last bounds are held, and a
    step is formed only when the consumer asks for it.

    Where the lower bound of g_n is not positive, or is NaN, g_n is formed
    exactly by ``exact``, which raises NonpositiveRatio where g_n <= 0 and
    ParamError at a zero gamma_n, and the pass goes on from the doubles next
    to that value.

    Soundness. Each alpha_n = a/b and gamma_n = c/d of the table's ints is
    read by int true division, which rounds the exact quotient to the
    nearest double r. A value that rounds to r lies within half the gap on
    either side of r, so it lies between the double below r and the one
    above it (math.nextafter toward -inf and +inf), which are its bounds.
    Each operation of the pass is rounded to nearest in the same way and its
    result then moved one double down for a lower bound and up for an upper
    one, so the exact result of the operation on its operands lies between
    the two; an overflow to inf leaves the lower bound at the largest
    double, still below the exact result. Each operation reads the ends of
    its operands' bounds that the exact signs of a and c call for, so by
    induction on n the exact g_n and alpha_tilde_n lie within their bounds.
    The signs hold because every quotient that is bounded is a normal
    double: its two neighbours have its sign. Any other, a zero gamma_n
    among them, has NaN bounds, as has each result formed from them until
    g_n restarts. A NaN bound decides nothing: every comparison is false.
    """
    if start:
        (lo,), (hi,) = _float_quotients(*([v] for v in exact.values[start - 1]))
    else:
        lo = hi = 1.0
    first = max(start, 1)
    a_col = table.ap[first:N + 1]
    alphas = zip(a_col, *_float_quotients(a_col, table.aq[first:N + 1]))
    if not start:
        alphas = itertools.chain([(0, 0.0, 0.0)], alphas)
    c_col = table.gp[start:N]
    gammas = zip(c_col, *_float_quotients(c_col, table.gq[start:N]))
    for n, (a, a_lo, a_hi) in enumerate(alphas, start):
        if a >= 0:
            t_lo, t_hi = _div_down(a_lo, hi), _div_up(a_hi, lo)
        else:
            t_lo, t_hi = _div_down(a_lo, lo), _div_up(a_hi, hi)
        if n == N:
            yield t_lo, t_hi, None, None
            return
        c, c_lo, c_hi = next(gammas)
        # 1 - alpha_tilde_n
        e_lo, e_hi = math.nextafter(1.0 - t_hi, -math.inf), math.nextafter(1.0 - t_lo, math.inf)
        if c > 0:
            lo, hi = _div_down(e_lo, c_hi), _div_up(e_hi, c_lo)
        else:
            lo, hi = _div_down(e_hi, c_lo), _div_up(e_lo, c_hi)
        if not lo > 0:
            exact._extend(n + 1)
            (lo,), (hi,) = _float_quotients(*([v] for v in exact.values[n]))
        yield t_lo, t_hi, lo, hi


def _ratio_tail(table: _StepTable, values: list, N: int):
    """Continue the Decimal ratios ``values`` = g_0..g_{k-1} of a digit-cap
    fallback (``_ExactRatios.fall_back``) to g_{N-1}, appending each to
    ``values``, in the EXTENDED context, on the coefficients of the step
    table ``table`` rounded once from its ints (``_StepTable.extended``).
    Yields the alpha_tilde_n = alpha_n/g_{n-1} and gamma_tilde_n =
    gamma_n*g_n of n = k..N-1 that it forms on the way, the values of
    NormalizedFamily over these ratios; a step runs only when the consumer
    asks for it."""
    div, sub, mul = EXTENDED.divide, EXTENDED.subtract, EXTENDED.multiply
    g = values[-1]
    for n in range(len(values), N):
        a, c = table.extended(n)
        if c == 0:
            raise ParamError(f"gamma_{n} must be nonzero: g_{n} divides by it")
        t = div(a, g)
        g = div(sub(1, t), c)
        if not g > 0:
            raise NonpositiveRatio(n, g)
        values.append(g)
        yield t, mul(c, g)


def ratios_at_one(family, N: int) -> RatioSequence:
    """g_0..g_{N-1} where g_0 = 1/gamma_0 and g_n = (1 - alpha_n/g_{n-1})/gamma_n.

    Raises NonpositiveRatio as soon as some g_n <= 0 (normalization at 1 is
    then impossible past that index), and ParamError at a gamma_n = 0, which
    g_n would divide by. The coefficients 0..N-1 are read first, as the
    exact values in the ints of a step table, so that a short table raises
    TableRangeError before any ratio; a family of doubles is read on the
    exact values of its doubles. The ratios are Fractions, formed on those
    ints (``_ExactRatios``), until an exact g_n past DEFAULT_DIGIT_CAP
    digits switches the whole run to Decimals in the EXTENDED context
    (``_ExactRatios.fall_back``), and the result is flagged inexact. These
    are the g_n that ratio_sandwich prints.
    """
    N = _require_count("N", N)
    table = _step_table(family, N - 2)  # indices 0..N-1
    exact = _ExactRatios(table)
    if not exact.up_to_cap(N):
        return RatioSequence(tuple(exact.fractions()), True)
    values = exact.fall_back()
    for _ in _ratio_tail(table, values, N):  # appends g_n to values
        pass
    return RatioSequence(tuple(values), False)


class NormalizedFamily:
    """View of a family rescaled so every polynomial equals 1 at x = 1.

    alpha_tilde(n) = alpha_n/g_{n-1} and gamma_tilde(n) = gamma_n*g_n, which
    makes alpha_tilde + gamma_tilde = 1 identically. Built from the ratios
    g_0..g_{N-1}, it defines alpha_tilde for n <= N and gamma_tilde for n < N;
    reading past them raises TableRangeError. Each value is formed on read,
    from the exact value of the coefficient (a double read as the rational
    it holds): a Fraction over Fraction ratios, with alpha_tilde_0 the exact
    0. Past a digit-cap fallback the ratios are Decimals, and each
    coefficient is rounded once to EXTENDED, as ``_StepTable.extended``
    rounds it, so alpha_tilde(n) is the Decimal alpha_n/g_{n-1} that the
    ratio pass formed.

    ``ratios`` is the RatioSequence of ``base``; check_szw_normalized reads
    neither it nor a coefficient, and decides from ``base``. ``exact`` is
    that of both, so a view of a family of doubles evaluates in doubles.

    Duck-types CoefficientFamily (.alpha/.gamma/.exact/...), so every
    evaluation helper in this module accepts it directly.
    """

    def __init__(self, base: CoefficientFamily, ratios: RatioSequence):
        self.base = base
        self.name = f"{base.name}:normalized"
        self.params: Mapping[str, object] = base.params
        self.meta: Mapping[str, object] = {}
        self.ratio = _table(ratios.values)
        self.exact = bool(ratios.exact and base.exact)

    def alpha_tilde(self, n: int):
        if n == 0:
            return exact_value(self.base.alpha(0))
        g = self.ratio(n - 1)
        a = exact_value(self.base.alpha(n))
        if isinstance(g, Decimal):
            return EXTENDED.divide(to_decimal(a, EXTENDED), g)
        return a / g

    def gamma_tilde(self, n: int):
        g = self.ratio(n)
        c = exact_value(self.base.gamma(n))
        if isinstance(g, Decimal):
            return EXTENDED.multiply(to_decimal(c, EXTENDED), g)
        return c * g

    # CoefficientFamily duck-type
    alpha = alpha_tilde
    gamma = gamma_tilde


def normalize(family, N: int) -> NormalizedFamily:
    """Normalized view of ``family`` over ratios_at_one; validates
    g_0..g_{N-1} stay positive."""
    if isinstance(family, NormalizedFamily):
        return family
    return NormalizedFamily(family, ratios_at_one(family, N))


def _normalized_coefficients(family, hi: int) -> tuple[list, list]:
    """The values of coefficients(normalize(family, hi + 1), hi), from one
    read of the coefficients 0..hi. grid_scan and turan_det normalize
    through it.

    The family is read as the ints of its step table, the exact values of
    its coefficients, doubles included, and its exact ratio pass keeps the
    alpha_tilde_n = A/B that it forms (``keep_tilde``), and gamma_tilde_n =
    gamma_n*g_n = (B - A)/B, both in lowest terms and B > 0. Below the digit
    cap the two lists hold these int pairs, (A, B) and (B - A, B), and no
    Fraction: each pair is the value of that coefficient. When the pass
    stops at its digit cap after g_{k-1}, the lists hold alpha_tilde_0 =
    the Fraction 0 and Decimals: the values below k formed from the Decimal
    ratios as NormalizedFamily forms them, and the rest the ones that the
    Decimal tail forms (``_ratio_tail``).
    """
    table = _step_table(family, hi - 1)
    exact = _ExactRatios(table, keep_tilde=True)
    if not exact.up_to_cap(hi + 1):
        al = exact.tilde
        return al, [(B - A, B) for A, B in al]
    ratios = exact.fall_back()
    al, ga = [table.alpha(0)], []
    for n, g in enumerate(ratios):
        a, c = table.extended(n)
        if n:
            al.append(EXTENDED.divide(a, ratios[n - 1]))
        ga.append(EXTENDED.multiply(c, g))
    for a, g in _ratio_tail(table, ratios, hi + 1):
        al.append(a)
        ga.append(g)
    return al, ga


def associated_family(family: CoefficientFamily, k: int) -> CoefficientFamily:
    """Shift both coefficient sequences by k (alpha_0 pinned back to 0)."""
    k = _require_count("k", k, 0)
    a, g, zero = family.alpha, family.gamma, family.alpha(0)
    if k == 0:
        return CoefficientFamily(name=family.name, alpha=a, gamma=g, exact=family.exact,
                                 params=family.params, meta=family.meta)
    return CoefficientFamily(
        name=f"{family.name}:assoc{k}",
        alpha=lambda n, _a=a, _k=k, _z=zero: _z if n == 0 else _a(n + _k),
        gamma=lambda n, _g=g, _k=k: _g(n + _k),
        exact=family.exact,
        params={**dict(family.params), "assoc_shift": k},
    )


@dataclass(frozen=True)
class ScalingSequence:
    """Positive weights sigma_n applied on top of normalized polynomials."""

    sigma: Callable[[int], Num]

    @classmethod
    def from_values(cls, values: Sequence[Num]) -> "ScalingSequence":
        return cls(_table(values))

    def __call__(self, n: int):
        return self.sigma(n)

    def log_concave_up_to(self, n_max: int) -> bool:
        """Whether sigma_n^2 >= sigma_{n-1}*sigma_{n+1} for 1 <= n <= n_max,
        decided on the exact values of sigma_0..sigma_{n_max+1}."""
        vals = [exact_value(self.sigma(n)) for n in range(n_max + 2)]
        if any(not v > 0 for v in vals):
            raise ParamError("scaling values must be positive")
        return all(vals[n - 1] * vals[n + 1] <= vals[n] * vals[n]
                   for n in range(1, n_max + 1))


def _sigma_callable(sigma) -> Callable[[int], Num]:
    if callable(sigma):
        return sigma
    return ScalingSequence.from_values(sigma)


def scaled_polys(family, sigma, n_max: int, x, dps: int | None = None) -> list:
    """[sigma_n * p_n(x)] for the normalized-at-1 recurrence values."""
    s = _sigma_callable(sigma)
    p = eval_polys(family, n_max, x, dps=dps)
    # a Decimal p_n carries dps digits, or EXTENDED_DPS past a digit-cap fallback
    ctx = EXTENDED if dps is None else decimal_context(dps)
    return [ctx.multiply(to_decimal(s(n), ctx), p_n) if isinstance(p_n, Decimal) else s(n) * p_n
            for n, p_n in enumerate(p)]


# ints of magnitude below this are exact doubles
_EXACT_INT = 2 ** 53
# indices per int64 chunk of the linear-form off-diagonals
_OFFDIAG_CHUNK = 4096


def _linear_offdiag(a_lin, g_lin, N: int):
    """The off-diagonals a_1..a_N from the linear forms of alpha and gamma
    (see CoefficientFamily), or None when a factor or a product of a pair
    at k = N, the largest of each, reaches 2^53.

    Below 2^53 the int64 products of each chunk are exact, and so are their
    doubles; float64 division and np.sqrt round correctly, so every a_k is
    the double math.sqrt(alpha_k*gamma_{k-1}) of the per-index loop.
    """
    (a1, a0, b1, b0), (c1, c0, d1, d0) = a_lin, g_lin
    ends = (a1 * N + a0, c1 * (N - 1) + c0), (b1 * N + b0, d1 * (N - 1) + d0)
    if min(*a_lin, *g_lin) < 0 or max(max(f, g, f * g) for f, g in ends) >= _EXACT_INT:
        return None
    out = np.empty(N)
    for lo in range(1, N + 1, _OFFDIAG_CHUNK):
        k = np.arange(lo, min(lo + _OFFDIAG_CHUNK, N + 1), dtype=np.int64)
        num = (a1 * k + a0) * (c1 * (k - 1) + c0)
        den = (b1 * k + b0) * (d1 * (k - 1) + d0)
        bad = np.flatnonzero(num <= 0)
        if bad.size:
            i = bad[0]
            raise ParamError(f"alpha_{k[i]}*gamma_{k[i] - 1} must be positive "
                             f"(got {Fraction(int(num[i]), int(den[i]))})")
        out[k - 1] = np.sqrt(num / den)
    return out


def orthonormal_offdiag(family, N: int) -> np.ndarray:
    """Jacobi-matrix off-diagonals a_k = sqrt(alpha_k*gamma_{k-1}), k = 1..N, in a float64 array.

    An exact family whose callables both carry a ``linear`` form (see
    CoefficientFamily) is computed from it over int64 chunks while its
    products stay below 2^53; any other family from the product of its
    values, one index at a time. An exact family gives the same doubles on
    both paths: math.sqrt reads a Fraction through Fraction.__float__, the
    correctly rounded int/int division.
    """
    N = _require_count("N", N)
    alpha, gamma = family.alpha, family.gamma
    a_lin, g_lin = getattr(alpha, "linear", None), getattr(gamma, "linear", None)
    if family.exact and a_lin is not None and g_lin is not None:
        linear = _linear_offdiag(a_lin, g_lin, N)
        if linear is not None:
            return linear
    out = np.empty(N)
    for k in range(1, N + 1):
        v = alpha(k) * gamma(k - 1)
        if not v > 0:
            raise ParamError(f"alpha_{k}*gamma_{k - 1} must be positive (got {number_text(v)})")
        out[k - 1] = math.sqrt(v)
    return out


@dataclass(frozen=True)
class SandwichRow:
    """One row of the two-sided ratio bound 1 <= g_n <= bound_n."""

    n: int
    g: Num
    upper: Num  # +inf when gamma_n - gamma_{n+1} <= 0 (bound undefined)
    lower_ok: bool
    upper_ok: bool
    gamma_step_decreasing: bool


def ratio_sandwich(family, N: int) -> list[SandwichRow]:
    """Check 1 <= g_n <= (alpha_{n+1}*gamma_n - alpha_n*gamma_{n+1})/(gamma_n - gamma_{n+1}).

    The printed g_n are the ratios of the step table's exact values (50-digit
    Decimals past a digit-cap fallback), those of ratios_at_one, for a
    family of doubles too. The printed bound is the one Fraction w_n/v_n of
    the ints.
    Each bound is decided on the exact g_n, by cross-multiplying ints, up to
    the g_k where the exact pass stops at its digit cap (``_ExactRatios``).
    Past it, the rows are decided on the float bounds that ``_ratio_bounds``
    carries from the exact g_{k-1}, against the doubles next to w_n/v_n
    (``_float_quotients``). A row that those bounds leave open, as a NaN
    bound does, is decided on the exact g_n of the uncapped pass. So a
    printed 50-digit g_n, or the double nearest it, may read 1 in a row
    whose exact g_n < 1 fails lower_ok. The upper bound needs gamma_n >
    gamma_{n+1}; rows where that fails carry upper = +inf, upper_ok = True
    and gamma_step_decreasing = False so the hypothesis breach stays visible.
    """
    N = _require_count("N", N)
    table = _step_table(family, N - 1)
    _, _, vns, vds, wns, wds = table.steps
    mul = operator.mul
    # w_n/v_n = W[n]/V[n], with V[n] > 0 where v_n > 0
    W, V = list(map(mul, wns[:N], vds)), list(map(mul, wds[:N], vns))
    steps = [vn > 0 for vn in vns[:N]]
    exact = _ExactRatios(table)
    fallback = exact.up_to_cap(N)
    decided = list(map(_exact_row, exact.values, W, V, steps))  # the rows below the cap
    if fallback:
        printed = exact.fall_back()
        for _ in _ratio_tail(table, printed, N):  # appends g_n to printed
            pass
        decided += _sandwich_tail(table, exact, W, V, steps)
    else:
        printed = exact.fractions()
    return [SandwichRow(n=n, g=g, upper=Fraction(w, v) if step else math.inf,
                        lower_ok=lower_ok, upper_ok=upper_ok, gamma_step_decreasing=step)
            for n, (g, w, v, step, (lower_ok, upper_ok))
            in enumerate(zip(printed, W, V, steps, decided))]


def _sandwich_tail(table, exact: _ExactRatios, W: list, V: list, steps: list):
    """(lower_ok, upper_ok) of the rows k..N-1 of ratio_sandwich, N =
    len(W), past the digit cap where ``exact`` stopped after g_{k-1}: on
    the float bounds of g_n from there against the doubles next to W/V, and
    on the exact g_n where those do not separate, a NaN bound among them."""
    k = len(exact.values)
    _, _, lo, hi = zip(*_ratio_bounds(table, len(W), exact, start=k))
    # a row without the upper bound reads W/V as 1/1
    w_lo, w_hi = _float_quotients([w if s else 1 for w, s in zip(W[k:], steps[k:])],
                                  [v if s else 1 for v, s in zip(V[k:], steps[k:])])
    rows = [(True if g_lo >= 1 else False if g_hi < 1 else None,
             True if not s or g_hi <= u_lo else False if g_lo > u_hi else None)
            for g_lo, g_hi, u_lo, u_hi, s in zip(lo, hi, w_lo, w_hi, steps[k:])]
    left = [k + i for i, row in enumerate(rows) if None in row]
    if left:
        exact._extend(left[-1] + 1)
        for n in left:
            rows[n - k] = _exact_row(exact.values[n], W[n], V[n], steps[n])
    return rows


def _exact_row(g: tuple[int, int], w: int, v: int, step: bool) -> tuple[bool, bool]:
    """(lower_ok, upper_ok) of a ratio_sandwich row on the exact g_n = P/Q:
    1 <= g_n, and g_n <= w/v where the row has its upper bound (v > 0)."""
    P, Q = g
    return Q <= P, not step or P * v <= w * Q
