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
import math
import numbers
import operator
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .arith import (
    DEFAULT_DIGIT_CAP,
    EXTENDED,
    EXTENDED_DPS,
    Num,
    coprime_fraction,
    decimal_context,
    exact_value,
    exceeds_digit_cap,
    is_exact,
    pair_digits,
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
    (a1*n + a0)/(b1*n + b0) at every n >= 0. The step table reads it
    (``_coprime_reader``) and builds no Fraction, and ``orthonormal_offdiag``
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
            raise ParamError(f"{self.name}: alpha_0 must be 0 (got {self.alpha(0)})")
        if not self.gamma(0) > 0:
            raise ParamError(f"{self.name}: gamma_0 must be positive (got {self.gamma(0)})")


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
    """n -> (p, q): the exact value of coeff(n) as coprime ints with q > 0.

    A callable that carries its integer form ``linear`` = (a1, a0, b1, b0) is
    read through it, as (a1*n + a0, b1*n + b0) over one gcd of two small ints
    and with no Fraction; any other through the ``as_integer_ratio`` of its
    values, which is in lowest terms for Fractions, doubles and Decimals, and
    an integer as (v, 1). A value that is not finite is a ParamError."""
    linear = getattr(coeff, "linear", None)
    if linear is None:
        def read(n: int):
            v = coeff(n)
            if isinstance(v, numbers.Integral):  # numpy's ints have no as_integer_ratio
                return int(v), 1
            try:
                return v.as_integer_ratio()
            except (OverflowError, ValueError):  # inf; nan
                raise ParamError(f"{v!r} is not a finite number") from None
    else:
        a1, a0, b1, b0 = linear

        def read(n: int):
            p, q = a1 * n + a0, b1 * n + b0
            g = math.gcd(p, q)
            return p // g, q // g
    return read


def _int_table(ps: Sequence[int], qs: Sequence[int]) -> Callable[[int], Fraction]:
    """Callable n -> ps[n]/qs[n] for coprime ps[n] and qs[n] > 0; an index
    outside the lists raises TableRangeError."""
    size = len(ps)

    def at(n: int):
        if not 0 <= n < size:
            raise TableRangeError(n, size)
        return coprime_fraction(ps[n], qs[n])

    return at


def _materialize(family, hi: int) -> CoefficientFamily:
    """``family`` over finite tables of its coefficients 0..hi, read once.

    A negative hi reads index 0 only, so the caller's own bound check reports it.
    """
    al, ga = coefficients(family, max(hi, 0))
    return CoefficientFamily(name=family.name, alpha=_table(al), gamma=_table(ga),
                             exact=family.exact, params=family.params, meta=family.meta)


class _StepTable:
    """The exact coefficient table of a family for steps 0..N, and its steps.

    Reads alpha_0..alpha_{N+1} and gamma_0..gamma_{N+1} once, as the coprime
    ints alpha_n = ap[n]/aq[n] and gamma_n = gp[n]/gq[n] of their exact
    values (``_coprime_reader``: one small gcd per index of a ``linear``
    form). It duck-types CoefficientFamily over them: ``alpha``/``gamma``
    build the Fraction of an index on read, an int read as a Fraction, so
    that the witnesses and values formed from an int table are exact too. A
    checker or ratio pass handed a step table reuses it, and the exact ratio
    passes read its int lists. Every criterion decides by integer
    cross-multiplication on the ints and, for n <= N,

        u_n = alpha_{n+1} - alpha_n                   = un[n]/ud[n]
        v_n = gamma_n - gamma_{n+1}                   = vn[n]/vd[n]
        w_n = alpha_{n+1}*gamma_n - alpha_n*gamma_{n+1} = wn[n]/wd[n]

    with positive, unreduced denominators. ``step(n)`` forms the six ints
    of one step, and ``steps`` holds them as the six lists un, ud, vn, vd,
    wn, wd, built on first use: numerators and denominators in parallel
    lists take half the memory of a list of pairs. Fractions are
    built only for what is printed or kept: one per value, from these ints
    (``*_value``), with no Fraction arithmetic in a loop.
    """

    exact = True

    def __init__(self, family, N: int):
        self.N = N
        self.name, self.params, self.meta = family.name, family.params, family.meta
        indices = range(max(N + 1, 0) + 1)
        self.ap, self.aq = map(list, zip(*map(_coprime_reader(family.alpha), indices)))
        self.gp, self.gq = map(list, zip(*map(_coprime_reader(family.gamma), indices)))
        self.alpha = _int_table(self.ap, self.aq)
        self.gamma = _int_table(self.gp, self.gq)

    def step(self, n: int) -> tuple[int, int, int, int, int, int]:
        """un, ud, vn, vd, wn, wd of step n."""
        ap, aq, gp, gq = self.ap, self.aq, self.gp, self.gq
        p0, q0, p1, q1 = ap[n], aq[n], ap[n + 1], aq[n + 1]
        r0, s0, r1, s1 = gp[n], gq[n], gp[n + 1], gq[n + 1]
        return (p1 * q0 - p0 * q1, q0 * q1, r0 * s1 - r1 * s0, s0 * s1,
                p1 * r0 * q0 * s1 - p0 * r1 * q1 * s0, q0 * q1 * s0 * s1)

    @functools.cached_property
    def steps(self):
        un, ud, vn, vd, wn, wd = lists = [], [], [], [], [], []
        for a, b, c, d, e, f in map(self.step, range(self.N + 1)):
            un.append(a)
            ud.append(b)
            vn.append(c)
            vd.append(d)
            wn.append(e)
            wd.append(f)
        return lists

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

    def lam_value(self, n: int) -> Fraction:
        """lambda_n = v_n/u_n = L/D with L = vn*ud and D = un*vd
        (ZeroDivisionError where u_n = 0)."""
        un, ud, vn, vd, _, _ = self.steps
        return Fraction(vn[n] * ud[n], un[n] * vd[n])


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
        fallback = self.values and isinstance(self.values[0], Decimal)
        with localcontext(EXTENDED):  # only the Decimals of a fallback use it
            return math.prod(self.values[:n], start=Decimal(1) if fallback else 1.0)


class _ExactRatios:
    """The exact g_0, g_1, ... of a step table as Fractions, formed in order as
    far as they are asked for and the table reaches, and kept in ``values``:
    up to the digit cap by ``up_to_cap``, and with no cap on other reads.

    g_{n-1} = P/Q is carried as coprime ints. With alpha_n = a/b and gamma_n =
    c/d the table's coprime ints, alpha_tilde_n = alpha_n/g_{n-1} = A/B
    in lowest terms through gcd(a, P) and gcd(b, Q), and g_n = (1 - A/B)/gamma_n
    = (B - A)*d/(B*c) in lowest terms through gcd(B - A, c) and gcd(d, B):
    each gcd pairs a coefficient's small int with a big one. Each g_n becomes
    one Fraction, without the gcd of two big ints that Fraction(P, Q) runs.
    alpha_0 is read as 0 and g_{-1} as 1, so g_0 = 1/gamma_0.
    """

    def __init__(self, table: _StepTable):
        self._ap, self._aq, self._gp, self._gq = table.ap, table.aq, table.gp, table.gq
        self.values: list[Fraction] = []

    def _tilde(self, n: int) -> tuple[int, int]:
        """alpha_tilde_n as coprime (A, B), from g_{n-1} when it is formed."""
        if not n:
            return 0, 1
        a, b, g = self._ap[n], self._aq[n], self.values[n - 1]
        P, Q = g.numerator, g.denominator
        g1, g2 = math.gcd(a, P), math.gcd(b, Q)
        return (a // g1) * (Q // g2), (b // g2) * (P // g1)

    def _extend(self, N: int, digit_cap: int | None = None) -> bool:
        """Form the ratios up to g_{N-1}, in one loop, or up to the first
        past ``digit_cap`` digits when one is given; whether it stopped
        there. Forming them raises NonpositiveRatio at the first g_n <= 0
        and ParamError at a gamma_n = 0, which g_n would divide by."""
        values, gp, gq = self.values, self._gp, self._gq
        for n in range(len(values), N):
            A, B = self._tilde(n)
            c, d = gp[n], gq[n]
            if c == 0:
                raise ParamError(f"gamma_{n} must be nonzero: g_{n} divides by it")
            E = B - A
            h1, h2 = math.gcd(E, c), math.gcd(d, B)
            P, Q = (E // h1) * (d // h2), (B // h2) * (c // h1)
            if Q < 0:
                P, Q = -P, -Q
            g = coprime_fraction(P, Q)
            if not P > 0:
                raise NonpositiveRatio(n, g)
            values.append(g)
            if digit_cap is not None and pair_digits(P, Q) > digit_cap:
                return True
        return False

    def ratio(self, n: int) -> Fraction:
        """g_n, forming the ratios up to it."""
        self._extend(n + 1)
        return self.values[n]

    def alpha_tilde(self, n: int) -> Fraction:
        """alpha_tilde_n = alpha_n/g_{n-1}."""
        self._extend(n)
        return coprime_fraction(*self._tilde(n))

    def up_to_cap(self, N: int) -> bool:
        """Form g_0.. up to g_{N-1}, or up to the first g_n past
        DEFAULT_DIGIT_CAP digits, read when it runs; whether it stopped there."""
        return self._extend(N, DEFAULT_DIGIT_CAP)

    def fall_back(self) -> list[Decimal]:
        """The digit-cap fallback: the ratios formed so far, each rounded once
        to an EXTENDED Decimal, for the Decimal tail (``_ratio_tail``) to
        continue. Once they are rounded, every exact ratio but the last, the
        only one that forming later ratios reads, is freed, so that the long
        Fractions are not held through the tail."""
        values = self.values
        rounded = [to_decimal(g, EXTENDED) for g in values]
        values[:-1] = [None] * (len(values) - 1)
        return rounded


# outward rounding of the ratio bounds, at EXTENDED_DPS digits
_FLOOR, _CEILING = (Context(prec=EXTENDED_DPS, rounding=rounding, Emin=MIN_EMIN, Emax=MAX_EMAX)
                    for rounding in (ROUND_FLOOR, ROUND_CEILING))
_ONE = Decimal(1)


def _ratio_bounds(table, N: int, exact: _ExactRatios, start: int = 0):
    """Yield bounds on alpha_tilde_n and on g_n for n = start..N, as
    (a_lo, a_hi, g_lo, g_hi) Decimals; g_N is not formed, and its pair is
    (None, None).

    The pass reads the ints ap, aq, gp, gq of the step table ``table``
    (indices 0..N) and builds no Fraction. It starts from g_{start-1}, 1 at
    start 0 and else the exact value in ``exact.values``, and carries
    alpha_tilde_n = a/(b*g_{n-1}) and g_n = (1 - alpha_tilde_n)*d/c, for
    alpha_n = a/b and gamma_n = c/d, as [lo, hi]. Every lower bound is
    rounded down (_FLOOR) and every upper bound up (_CEILING), and each
    operand is the end of its bound that the signs of a and c call for, so
    the exact values lie in their bounds for either sign of alpha_n and
    gamma_n. Only the last bounds are held, and a step is formed only when
    the consumer asks for it.

    A gamma_n = 0 is the ParamError of ratios_at_one. Where the lower bound
    of g_n is not positive, g_n is formed exactly by ``exact``, which raises
    NonpositiveRatio where g_n <= 0, and the pass goes on from that value.
    """
    ap, aq, gp, gq = table.ap, table.aq, table.gp, table.gq
    fdiv, fmul, fsub = _FLOOR.divide, _FLOOR.multiply, _FLOOR.subtract
    cdiv, cmul, csub = _CEILING.divide, _CEILING.multiply, _CEILING.subtract
    if start:
        g = exact.values[start - 1]
        lo, hi = fdiv(g.numerator, g.denominator), cdiv(g.numerator, g.denominator)
    else:
        lo = hi = _ONE
    for n in range(start, N + 1):
        a, b = (ap[n], aq[n]) if n else (0, 1)
        if a >= 0:
            t_lo, t_hi = fdiv(a, cmul(hi, b)), cdiv(a, fmul(lo, b))
        else:
            t_lo, t_hi = fdiv(a, fmul(lo, b)), cdiv(a, cmul(hi, b))
        if n == N:
            yield t_lo, t_hi, None, None
            return
        c, d = gp[n], gq[n]
        e_lo, e_hi = fsub(_ONE, t_hi), csub(_ONE, t_lo)  # 1 - alpha_tilde_n
        if c > 0:
            lo, hi = fdiv(fmul(e_lo, d), c), cdiv(cmul(e_hi, d), c)
        elif c < 0:
            lo, hi = fdiv(cmul(e_hi, d), c), cdiv(fmul(e_lo, d), c)
        else:
            raise ParamError(f"gamma_{n} must be nonzero: g_{n} divides by it")
        if not lo > 0:
            g = exact.ratio(n)
            lo, hi = fdiv(g.numerator, g.denominator), cdiv(g.numerator, g.denominator)
        yield t_lo, t_hi, lo, hi


def _le(x_lo, x_hi, y_lo, y_hi, exact: Callable[[], bool]) -> bool:
    """Whether x <= y, for x in [x_lo, x_hi] and y in [y_lo, y_hi]: decided on
    the bounds where they separate, and else by ``exact()``, the comparison of
    the exact values."""
    if x_hi <= y_lo:
        return True
    if x_lo > y_hi:
        return False
    return exact()


def _ratio_tail(family, values: list, N: int):
    """Continue the ratios ``values`` = g_0..g_{k-1} to g_{N-1}, appending each
    to ``values``, from g_{-1} = 1 when there are none, in their own
    arithmetic: Decimals in the EXTENDED context, on the coefficients of the
    step table ``family`` rounded once from its ints (``_StepTable.extended``),
    or the family's own numbers. Yields the alpha_tilde_n = alpha_n/g_{n-1}
    and gamma_tilde_n = gamma_n*g_n of n = k..N-1 that it forms on the way,
    the values of NormalizedFamily over these ratios; a step runs only when
    the consumer asks for it."""
    if values and isinstance(values[-1], Decimal):
        div, sub, mul = EXTENDED.divide, EXTENDED.subtract, EXTENDED.multiply
        read = family.extended
    else:
        div, sub, mul = operator.truediv, operator.sub, operator.mul
        read = lambda n: (family.alpha(n), family.gamma(n))  # noqa: E731
    g = values[-1] if values else 1
    for n in range(len(values), N):
        a, c = read(n)
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
    g_n would divide by. The coefficients 0..N-1 are read into a table first,
    so that a short table raises TableRangeError before any ratio. The
    ratios of an exact family are Fractions, for int coefficients too, formed
    on the ints of its step table (``_ExactRatios``), until an exact g_n past
    DEFAULT_DIGIT_CAP digits switches the whole run to Decimals in the
    EXTENDED context (``_ExactRatios.fall_back``), and the result is flagged
    inexact. Any other family runs in its own arithmetic.
    """
    N = _require_count("N", N)
    if family.exact:
        family = _step_table(family, N - 2)  # indices 0..N-1
        exact = _ExactRatios(family)
        if not exact.up_to_cap(N):
            return RatioSequence(tuple(exact.values), True)
        values = exact.fall_back()
    else:
        family, values = _materialize(family, N - 1), []
    for _ in _ratio_tail(family, values, N):  # appends g_n to values
        pass
    return RatioSequence(tuple(values), False)


class NormalizedFamily:
    """View of a family rescaled so every polynomial equals 1 at x = 1.

    alpha_tilde(n) = alpha_n/g_{n-1} and gamma_tilde(n) = gamma_n*g_n, which
    makes alpha_tilde + gamma_tilde = 1 identically. Built from the ratios
    g_0..g_{N-1}, it defines alpha_tilde for n <= N and gamma_tilde for n < N;
    reading past them raises TableRangeError. Each value is formed on read.
    Past a digit-cap fallback the ratios are Decimals, and the values are
    formed in the EXTENDED context from the operands of the ratio pass, so
    alpha_tilde(n) is the Decimal alpha_n/g_{n-1} that the pass formed.

    ``ratios`` is the RatioSequence of ``base``, or a function of no
    arguments that returns it, called when a coefficient or ``exact`` is
    first read: check_szw_normalized reads neither, and decides from
    ``base``.

    Duck-types CoefficientFamily (.alpha/.gamma/.exact/...), so every
    evaluation helper in this module accepts it directly.
    """

    def __init__(self, base: CoefficientFamily,
                 ratios: RatioSequence | Callable[[], RatioSequence]):
        self.base = base
        self._ratios = ratios
        self.name = f"{base.name}:normalized"
        self.params: Mapping[str, object] = base.params
        self.meta: Mapping[str, object] = {}

    @functools.cached_property
    def _sequence(self) -> RatioSequence:
        return self._ratios() if callable(self._ratios) else self._ratios

    @functools.cached_property
    def ratio(self) -> Callable[[int], Num]:
        return _table(self._sequence.values)

    @property
    def exact(self) -> bool:
        return bool(self._sequence.exact and self.base.exact)

    def alpha_tilde(self, n: int):
        if n == 0:
            return self.base.alpha(0)
        g = self.ratio(n - 1)
        if isinstance(g, Decimal):
            return EXTENDED.divide(to_decimal(self.base.alpha(n), EXTENDED), g)
        return self.base.alpha(n) / g

    def gamma_tilde(self, n: int):
        g = self.ratio(n)
        if isinstance(g, Decimal):
            return EXTENDED.multiply(to_decimal(self.base.gamma(n), EXTENDED), g)
        return self.base.gamma(n) * g

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
    """The lists of coefficients(normalize(family, hi + 1), hi), from one read
    of the coefficients 0..hi: the same values of the same types, except
    alpha_tilde_0 = 0, which is the Fraction 0 for an exact family and
    alpha_0/1 for any other. grid_scan and turan_det normalize through it.

    An exact family is read as the ints of its step table, and its exact
    ratio pass gives alpha_tilde_n = A/B (``_ExactRatios._tilde``) and
    gamma_tilde_n = gamma_n*g_n = (B - A)/B, both in lowest terms. When the
    pass stops at its digit cap after g_{k-1}, the values below k are formed
    from the Decimal ratios as NormalizedFamily forms them, and the rest are
    the ones that the Decimal tail forms (``_ratio_tail``). Any other family
    is read into a table first, so that a short one raises TableRangeError
    before any ratio, and that tail forms all its values.
    """
    if not family.exact:
        table, ratios, al, ga = _materialize(family, hi), [], [], []
    else:
        table = _step_table(family, hi - 1)
        exact = _ExactRatios(table)
        if not exact.up_to_cap(hi + 1):
            tildes = [exact._tilde(n) for n in range(hi + 1)]
            return ([coprime_fraction(A, B) for A, B in tildes],
                    [coprime_fraction(B - A, B) for A, B in tildes])
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
            raise ParamError(f"alpha_{k}*gamma_{k - 1} must be positive (got {v})")
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

    The printed g_n are the values of ratios_at_one, and the printed bound
    is the one Fraction wn*vd/(wd*vn) = w_n/v_n of the step table's ints.
    Each bound is decided on the exact g_n, by cross-multiplying ints, up to
    the g_k where the exact pass stops at its digit cap (``_ExactRatios``).
    Past it, the rows are decided on the bounds that ``_ratio_bounds``
    carries from that exact g_k, against w_n/v_n rounded outward, and a row
    that the bounds leave undecided on the exact g_n of the uncapped pass.
    So a printed 50-digit g_n, or the double nearest it, may read 1 in a row
    whose exact g_n < 1 fails lower_ok. The upper bound needs gamma_n >
    gamma_{n+1}; rows where that fails carry upper = +inf, upper_ok = True
    and gamma_step_decreasing = False so the hypothesis breach stays visible.
    """
    N = _require_count("N", N)
    table = _step_table(family, N - 1)
    exact = _ExactRatios(table)
    fallback = exact.up_to_cap(N)
    k = len(exact.values)
    decided = []  # (lower_ok, upper_ok) of the rows n < k, on the exact g_n
    for n, g in enumerate(exact.values):
        _, _, vn, vd, wn, wd = table.step(n)
        decided.append((g.denominator <= g.numerator,
                        vn <= 0 or g.numerator * wd * vn <= wn * vd * g.denominator))
    printed = exact.values
    if fallback:
        printed = exact.fall_back()
        for _ in _ratio_tail(table, printed, N):  # appends g_n to printed
            pass
        bounds = _ratio_bounds(table, N, exact, start=k)
    rows = []
    for n in range(N):
        _, _, vn, vd, wn, wd = table.step(n)
        W, V = wn * vd, wd * vn  # w_n/v_n = W/V
        if n < k:
            lower_ok, upper_ok = decided[n]
        else:
            _, _, lo, hi = next(bounds)
            lower_ok = _le(1, 1, lo, hi, lambda: 1 <= exact.ratio(n))
            upper_ok = vn <= 0 or _le(lo, hi, _FLOOR.divide(W, V), _CEILING.divide(W, V),
                                      lambda: exact.ratio(n) <= Fraction(W, V))
        rows.append(SandwichRow(
            n=n, g=printed[n], upper=Fraction(W, V) if vn > 0 else math.inf,
            lower_ok=lower_ok,
            upper_ok=upper_ok,
            gamma_step_decreasing=vn > 0,
        ))
    return rows
