"""Three-term recurrences for symmetric orthogonal polynomials on [-1, 1].

The recurrence is x*p_n(x) = gamma_n*p_{n+1}(x) + alpha_n*p_{n-1}(x) with
p_{-1} = 0, p_0 = 1 and alpha_0 = 0, so p_1(x) = x/gamma_0. A family is just
the pair of coefficient callables plus an exactness flag; evaluation,
value-at-1 ratios, normalization, associated shifts, scalings and the
orthonormal form all derive from that.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
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

    An exact callable may carry its integer form as an attribute ``pair``:
    n -> (num, den), two ints with den > 0 and num/den equal to its value at
    n, not necessarily reduced. The step table and the exact ratio pass read
    it (``_coprime_reader``) and build no Fraction. An exact callable may
    also carry ``linear = (a, b, c, d)``, four ints >= 0 with value
    (a*n + b)/(c*n + d) at n, which ``orthonormal_offdiag`` reads when both
    callables carry one, with or without a ``pair``; a callable that carries
    both has pair(n) == (a*n + b, c*n + d). ``functools.wraps`` copies the
    attributes, so a wrapper of such a callable keeps them.
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

    A callable that carries its integer form ``pair`` is read through it,
    with one gcd of two small ints and no Fraction; any other through
    exact_value of its values."""
    pair = getattr(coeff, "pair", None)
    if pair is None:
        def read(n: int):
            x = exact_value(coeff(n))
            return x.numerator, x.denominator
    else:
        def read(n: int):
            p, q = pair(n)
            g = math.gcd(p, q)
            return p // g, q // g
    return read


def _int_table(ps: Sequence[int], qs: Sequence[int]) -> Callable[[int], Fraction]:
    """Callable n -> ps[n]/qs[n] for coprime ps[n] and qs[n] > 0, carrying the
    integer form ``pair``; an index outside the lists raises TableRangeError."""
    size = len(ps)

    def pair(n: int):
        if not 0 <= n < size:
            raise TableRangeError(n, size)
        return ps[n], qs[n]

    def at(n: int):
        return coprime_fraction(*pair(n))

    at.pair = pair
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
    values (``_coprime_reader``: one small gcd per ``pair`` read). It
    duck-types CoefficientFamily over them: ``alpha``/``gamma`` build the
    Fraction of an index on read, an int read as a Fraction, so that the
    witnesses and values formed from an int table are exact too, and carry
    the ints as ``pair``. A checker handed a step table reuses it. Every
    criterion decides by integer cross-multiplication on the ints and, for
    n <= N,

        u_n = alpha_{n+1} - alpha_n                   = un[n]/ud[n]
        v_n = gamma_n - gamma_{n+1}                   = vn[n]/vd[n]
        w_n = alpha_{n+1}*gamma_n - alpha_n*gamma_{n+1} = wn[n]/wd[n]

    with positive, unreduced denominators. ``steps`` holds the six lists
    un, ud, vn, vd, wn, wd, built on first use: numerators and denominators
    in parallel lists take half the memory of a list of pairs. Fractions are
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

    @functools.cached_property
    def steps(self):
        ap, aq, gp, gq = self.ap, self.aq, self.gp, self.gq
        un, ud, vn, vd, wn, wd = [], [], [], [], [], []
        for n in range(self.N + 1):
            p0, q0, p1, q1 = ap[n], aq[n], ap[n + 1], aq[n + 1]
            r0, s0, r1, s1 = gp[n], gq[n], gp[n + 1], gq[n + 1]
            un.append(p1 * q0 - p0 * q1)
            ud.append(q0 * q1)
            vn.append(r0 * s1 - r1 * s0)
            vd.append(s0 * s1)
            wn.append(p1 * r0 * q0 * s1 - p0 * r1 * q1 * s0)
            wd.append(q0 * q1 * s0 * s1)
        return un, ud, vn, vd, wn, wd

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
    """The step table of ``family`` for steps 0..N; a step table for exactly
    those steps is returned as it is."""
    if isinstance(family, _StepTable) and family.N == N:
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


def _abs_classes(xs):
    """(first, cls) for a float64 grid: ``first`` holds the index of the
    first abscissa of each value of |x|, in grid order, and xs[i] falls in
    the class of xs[first[cls[i]]].

    The rows of ``_rows`` and ``_jump`` are odd or even in x bit for bit,
    so Delta_n(-x) == Delta_n(x), and one abscissa per class gives every
    value of a row of Delta_n.
    """
    _, first, inverse = np.unique(np.abs(xs), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


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


def eval_polys(family, n_max: int, x, dps: int | None = None,
               digit_cap: int = DEFAULT_DIGIT_CAP) -> list:
    """Evaluate p_0(x)..p_{n_max}(x) by the forward recurrence.

    Arithmetic mode: exact Fractions when the family is exact and x is an
    int/Fraction; Decimals at ``dps`` significant digits, an int >= 1, when
    given (``arith.decimal_context``); doubles otherwise. Exact runs that
    blow past ``digit_cap`` decimal digits per value fall back to
    EXTENDED_DPS-digit Decimals for the remaining indices.
    """
    if n_max < 0:
        raise ParamError("n_max must be >= 0")
    if dps is not None and (isinstance(dps, bool) or not isinstance(dps, int) or dps < 1):
        raise ParamError(f"dps must be an int >= 1 (got {dps!r})")
    al, ga = coefficients(family, max(n_max - 1, 0))
    if dps is not None:
        conv, scope = to_decimal, localcontext(decimal_context(dps))
    else:
        conv = Fraction if family.exact and is_exact(x) else float
        scope = contextlib.nullcontext()
    with scope:
        p: list = []
        for v in _rows([conv(c) for c in al], [conv(c) for c in ga], conv(x), n_max, conv(1)):
            if exceeds_digit_cap(v, digit_cap):
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


def _exact_ratios(family, N: int, digit_cap: int):
    """The exact g_0.. of an exact family as Fractions, up to g_{N-1} or up to
    the first g_n past ``digit_cap`` digits, and whether it stopped there.

    g_{n-1} = P/Q is carried as coprime ints. With alpha_n = a/b and gamma_n =
    c/d coprime (``_coprime_reader``), alpha_tilde_n = alpha_n/g_{n-1} = A/B
    in lowest terms through gcd(a, P) and gcd(b, Q), and g_n = (1 - A/B)/gamma_n
    = (B - A)*d/(B*c) in lowest terms through gcd(B - A, c) and gcd(d, B):
    each gcd pairs a coefficient's small int with a big one. Each g_n becomes
    one Fraction, without the gcd of two big ints that Fraction(P, Q) runs.
    """
    alpha, gamma = _coprime_reader(family.alpha), _coprime_reader(family.gamma)
    values = []
    P, Q = 1, 1  # g_{-1}; with alpha_0 = 0 the step below gives g_0 = 1/gamma_0
    for n in range(N):
        (a, b), (c, d) = alpha(n) if n else (0, 1), gamma(n)
        if c == 0:
            raise ParamError(f"gamma_{n} must be nonzero: g_{n} divides by it")
        g1, g2 = math.gcd(a, P), math.gcd(b, Q)
        A, B = (a // g1) * (Q // g2), (b // g2) * (P // g1)
        E = B - A
        h1, h2 = math.gcd(E, c), math.gcd(d, B)
        P, Q = (E // h1) * (d // h2), (B // h2) * (c // h1)
        if Q < 0:
            P, Q = -P, -Q
        g = coprime_fraction(P, Q)
        if not P > 0:
            raise NonpositiveRatio(n, g)
        values.append(g)
        if pair_digits(P, Q) > digit_cap:
            return values, True
    return values, False


def ratios_at_one(family, N: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> RatioSequence:
    """g_0..g_{N-1} where g_0 = 1/gamma_0 and g_n = (1 - alpha_n/g_{n-1})/gamma_n.

    Raises NonpositiveRatio as soon as some g_n <= 0 (normalization at 1 is
    then impossible past that index), and ParamError at a gamma_n = 0, which
    g_n would divide by. The ratios of an exact family are Fractions, for int
    coefficients too, formed on ints (``_exact_ratios``), until an exact g_n
    past ``digit_cap`` digits switches the whole run to Decimals in the
    EXTENDED context, and the result is flagged inexact. Any other family
    runs in its own arithmetic.
    """
    if N < 1:
        raise ParamError("N must be >= 1")
    if family.exact:
        values, fallback = _exact_ratios(family, N, digit_cap)
        if not fallback:
            return RatioSequence(tuple(values), True)
        values = [to_decimal(v, EXTENDED) for v in values]
    else:
        g = 1 / family.gamma(0)
        if not g > 0:
            raise NonpositiveRatio(0, g)
        values, fallback = [g], False
    g = values[-1]
    with localcontext(EXTENDED):  # only the Decimals of a fallback use it
        for n in range(len(values), N):
            a, c = family.alpha(n), family.gamma(n)
            if c == 0:
                raise ParamError(f"gamma_{n} must be nonzero: g_{n} divides by it")
            if fallback:
                a, c = to_decimal(a), to_decimal(c)
            g = (1 - a / g) / c  # a/g is alpha_tilde_n
            if not g > 0:
                raise NonpositiveRatio(n, g)
            values.append(g)
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

    Duck-types CoefficientFamily (.alpha/.gamma/.exact/...), so every
    evaluation helper in this module accepts it directly.
    """

    def __init__(self, base: CoefficientFamily, ratios: RatioSequence):
        self.base = base
        self.ratio = _table(ratios.values)
        self.exact = bool(ratios.exact and base.exact)
        self.name = f"{base.name}:normalized"
        self.params: Mapping[str, object] = base.params
        self.meta: Mapping[str, object] = {}

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
    """Normalized view of ``family`` over ratios_at_one at the default digit
    cap; validates g_0..g_{N-1} stay positive."""
    if isinstance(family, NormalizedFamily):
        return family
    return NormalizedFamily(family, ratios_at_one(family, N, DEFAULT_DIGIT_CAP))


def associated_family(family: CoefficientFamily, k: int) -> CoefficientFamily:
    """Shift both coefficient sequences by k (alpha_0 pinned back to 0)."""
    if k < 0:
        raise ParamError("association shift must be >= 0")
    if k == 0:
        return dataclasses.replace(family)
    a, g, zero = family.alpha, family.gamma, family.alpha(0)
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
    out: list[float] = []
    for lo in range(1, N + 1, _OFFDIAG_CHUNK):
        k = np.arange(lo, min(lo + _OFFDIAG_CHUNK, N + 1), dtype=np.int64)
        num = (a1 * k + a0) * (c1 * (k - 1) + c0)
        den = (b1 * k + b0) * (d1 * (k - 1) + d0)
        bad = np.flatnonzero(num <= 0)
        if bad.size:
            i = bad[0]
            raise ParamError(f"alpha_{k[i]}*gamma_{k[i] - 1} must be positive "
                             f"(got {Fraction(int(num[i]), int(den[i]))})")
        out += np.sqrt(num / den).tolist()
    return out


def orthonormal_offdiag(family, N: int) -> list[float]:
    """Jacobi-matrix off-diagonals a_k = sqrt(alpha_k*gamma_{k-1}), k = 1..N.

    An exact family whose callables both carry a ``linear`` form (see
    CoefficientFamily) is computed from it over int64 chunks while its
    products stay below 2^53; any other family from the product of its
    values, one index at a time. An exact family gives the same doubles on
    both paths: math.sqrt reads a Fraction through Fraction.__float__, the
    correctly rounded int/int division.
    """
    if N < 1:
        raise ParamError("N must be >= 1")
    alpha, gamma = family.alpha, family.gamma
    a_lin, g_lin = getattr(alpha, "linear", None), getattr(gamma, "linear", None)
    if family.exact and a_lin is not None and g_lin is not None:
        linear = _linear_offdiag(a_lin, g_lin, N)
        if linear is not None:
            return linear
    out = []
    for k in range(1, N + 1):
        v = alpha(k) * gamma(k - 1)
        if not v > 0:
            raise ParamError(f"alpha_{k}*gamma_{k - 1} must be positive (got {v})")
        out.append(math.sqrt(v))
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

    The ratios are formed from the int pairs of the step table (see
    _exact_ratios), and each bound is decided on the exact value of g_n (a
    Decimal after a digit-cap fallback) against w_n/v_n of the step table, by
    cross-multiplying ints. The printed bound is the one Fraction
    wn*vd/(wd*vn) of those ints. The upper bound needs
    gamma_n > gamma_{n+1}; rows where that fails carry upper = +inf,
    upper_ok = True and gamma_step_decreasing = False so the hypothesis breach
    stays visible.
    """
    table = _step_table(family, N - 1)
    ratios = ratios_at_one(table, N).values
    _, _, vn, vd, wn, wd = table.steps
    rows = []
    for n, g in enumerate(ratios):
        g_exact = exact_value(g)
        gp, gq = g_exact.numerator, g_exact.denominator
        if vn[n] > 0:
            upper = Fraction(wn[n] * vd[n], wd[n] * vn[n])  # w_n/v_n
            upper_ok = gp * wd[n] * vn[n] <= wn[n] * vd[n] * gq
        else:
            upper = math.inf
            upper_ok = True
        rows.append(SandwichRow(
            n=n, g=g, upper=upper,
            lower_ok=gq <= gp,
            upper_ok=upper_ok,
            gamma_step_decreasing=vn[n] > 0,
        ))
    return rows
