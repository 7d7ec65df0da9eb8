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
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import mpmath

from .arith import (
    DEFAULT_DIGIT_CAP,
    DEFAULT_MARGIN,
    EXTENDED_DPS,
    Num,
    exceeds_digit_cap,
    is_exact,
    less_equal,
    strictly_less,
    to_mpf,
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


def _materialize(family, hi: int) -> CoefficientFamily:
    """``family`` over finite tables of its coefficients 0..hi, read once.

    A negative hi reads index 0 only, so the caller's own bound check reports it.
    """
    al, ga = coefficients(family, max(hi, 0))
    return CoefficientFamily(name=family.name, alpha=_table(al), gamma=_table(ga),
                             exact=family.exact, params=family.params, meta=family.meta)


def _rows(al, ga, x, hi: int, one=1, start=None):
    """Yield the rows p_n(x) of x*p_n = gamma_n*p_{n+1} + alpha_n*p_{n-1}, n <= hi.

    ``al``, ``ga``, ``x`` and ``one`` share one number domain: Fractions,
    floats, a float64 vector x, or mpfs used under the caller's workdps. Only
    two rows are held. The stream starts at p_0 = one, p_1 = x/gamma_0;
    ``start = (k, p_{k-1}, p_k)`` resumes it and yields p_{k+1} onward.
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
        p_prev, p = p, (x * p - al[n] * p_prev) / ga[n]
        yield p


def _dets(rows, degrees=None):
    """(n, Delta_n) from the rows p_0, p_1, ...: every n >= 1, or only ``degrees``."""
    rows = iter(rows)
    p_prev, p = next(rows), next(rows)
    for n, p_next in enumerate(rows, start=1):
        if degrees is None or n in degrees:
            yield n, p * p - p_prev * p_next
        p_prev, p = p, p_next


def eval_polys(family, n_max: int, x, dps: int | None = None,
               digit_cap: int = DEFAULT_DIGIT_CAP) -> list:
    """Evaluate p_0(x)..p_{n_max}(x) by the forward recurrence.

    Arithmetic mode: exact Fractions when the family is exact and x is an
    int/Fraction; mpmath at ``dps`` digits when given; doubles otherwise.
    Exact runs that blow past ``digit_cap`` decimal digits per value fall back
    to 50-digit floats for the remaining indices.
    """
    if n_max < 0:
        raise ParamError("n_max must be >= 0")
    al, ga = coefficients(family, max(n_max - 1, 0))
    if dps is not None:
        conv, ctx = to_mpf, mpmath.workdps(dps)
    else:
        conv = Fraction if family.exact and is_exact(x) else float
        ctx = contextlib.nullcontext()
    with ctx:
        p: list = []
        for v in _rows([conv(c) for c in al], [conv(c) for c in ga], conv(x), n_max, conv(1)):
            if exceeds_digit_cap(v, digit_cap):
                break
            p.append(v)
        else:
            return p
    # rational blow-up guard: finish in extended floats
    with mpmath.workdps(EXTENDED_DPS):
        p = [to_mpf(u) for u in (*p, v)]
        k = len(p) - 1
        p.extend(_rows([to_mpf(c) for c in al], [to_mpf(c) for c in ga], to_mpf(x), n_max,
                       start=(k, p[k - 1], p[k])))
    return p


@dataclass(frozen=True)
class RatioSequence:
    """Values g_n = p_{n+1}(1)/p_n(1); exact=False after a digit-cap fallback."""

    values: tuple
    exact: bool

    def poly_at_one(self, n: int):
        """p_n(1) as the cumulative product g_0*...*g_{n-1}."""
        if n > len(self.values):
            raise ParamError(f"need {n} ratios, have {len(self.values)}")
        out = Fraction(1) if self.exact else 1.0
        for g in self.values[:n]:
            out = out * g
        return out


def ratios_at_one(family, N: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> RatioSequence:
    """g_0..g_{N-1} where g_0 = 1/gamma_0 and g_n = (1 - alpha_n/g_{n-1})/gamma_n.

    Raises NonpositiveRatio as soon as some g_n <= 0 (normalization at 1 is
    then impossible past that index). An exact g_n past ``digit_cap`` digits
    switches the rest of the run to EXTENDED_DPS-digit mpfs, and the result
    is flagged inexact.
    """
    if N < 1:
        raise ParamError("N must be >= 1")
    values: list = []
    fallback = False
    with mpmath.workdps(EXTENDED_DPS):  # only the mpfs of a fallback use it
        g = 1 / family.gamma(0)
        for n in range(N):
            if n:
                a, c = family.alpha(n), family.gamma(n)
                if fallback:
                    a, c = to_mpf(a), to_mpf(c)
                g = (1 - a / g) / c
            if not g > 0:
                raise NonpositiveRatio(n, g)
            if family.exact and exceeds_digit_cap(g, digit_cap):
                values, g, fallback = [to_mpf(v) for v in values], to_mpf(g), True
            values.append(g)
    return RatioSequence(tuple(values), family.exact and not fallback)


class NormalizedFamily:
    """View of a family rescaled so every polynomial equals 1 at x = 1.

    alpha_tilde(n) = alpha_n/g_{n-1} and gamma_tilde(n) = gamma_n*g_n, which
    makes alpha_tilde + gamma_tilde = 1 identically. Built from the ratios
    g_0..g_{N-1}, it defines alpha_tilde for n <= N and gamma_tilde for n < N;
    reading past them raises TableRangeError.

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
        if isinstance(g, mpmath.mpf):
            # after a digit-cap fallback the ratios carry EXTENDED_DPS digits;
            # dividing at the caller's default 53 bits would throw them away
            with mpmath.workdps(EXTENDED_DPS):
                return to_mpf(self.base.alpha(n)) / g
        return self.base.alpha(n) / g

    def gamma_tilde(self, n: int):
        g = self.ratio(n)
        if isinstance(g, mpmath.mpf):
            with mpmath.workdps(EXTENDED_DPS):
                return to_mpf(self.base.gamma(n)) * g
        return self.base.gamma(n) * g

    # CoefficientFamily duck-type
    alpha = alpha_tilde
    gamma = gamma_tilde


def normalize(family, N: int) -> NormalizedFamily:
    """Normalized view of ``family``; validates g_0..g_{N-1} stay positive."""
    if isinstance(family, NormalizedFamily):
        return family
    return NormalizedFamily(family, ratios_at_one(family, N))


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

    def log_concave_up_to(self, n_max: int, margin: float = 1e-15) -> bool:
        """Whether sigma_n^2 >= sigma_{n-1}*sigma_{n+1} for 1 <= n <= n_max."""
        vals = [self.sigma(n) for n in range(n_max + 2)]
        if any(not v > 0 for v in vals):
            raise ParamError("scaling values must be positive")
        exact = all(is_exact(v) for v in vals)
        return all(
            less_equal(vals[n - 1] * vals[n + 1], vals[n] * vals[n], exact, margin)
            for n in range(1, n_max + 1)
        )


def _sigma_callable(sigma) -> Callable[[int], Num]:
    if isinstance(sigma, ScalingSequence):
        return sigma
    if callable(sigma):
        return sigma
    return ScalingSequence.from_values(sigma)


def scaled_polys(family, sigma, n_max: int, x, dps: int | None = None) -> list:
    """[sigma_n * p_n(x)] for the normalized-at-1 recurrence values."""
    s = _sigma_callable(sigma)
    p = eval_polys(family, n_max, x, dps=dps)
    out = []
    for n in range(n_max + 1):
        s_n, p_n = s(n), p[n]
        if isinstance(p_n, mpmath.mpf) and is_exact(s_n):
            s_n = to_mpf(s_n)
        out.append(s_n * p_n)
    return out


def orthonormal_offdiag(family, N: int) -> list[float]:
    """Jacobi-matrix off-diagonals a_k = sqrt(alpha_k*gamma_{k-1}), k = 1..N."""
    if N < 1:
        raise ParamError("N must be >= 1")
    alpha, gamma, out = family.alpha, family.gamma, []
    for k in range(1, N + 1):
        a, g = alpha(k), gamma(k - 1)
        if isinstance(a, (int, Fraction)) and isinstance(g, (int, Fraction)):
            # the float of the exact product without building its Fraction:
            # int/int true division rounds correctly, as Fraction.__float__ does
            num = a.numerator * g.numerator
            value = num / (a.denominator * g.denominator)
        else:
            num = value = a * g
        if not num > 0:
            raise ParamError(f"alpha_{k}*gamma_{k - 1} must be positive (got {a * g})")
        out.append(math.sqrt(value))
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


def ratio_sandwich(family, N: int, margin: float = DEFAULT_MARGIN) -> list[SandwichRow]:
    """Check 1 <= g_n <= (alpha_{n+1}*gamma_n - alpha_n*gamma_{n+1})/(gamma_n - gamma_{n+1}).

    The upper bound needs gamma_n > gamma_{n+1}; rows where that fails carry
    upper = +inf, upper_ok = True and gamma_step_decreasing = False so the
    hypothesis breach stays visible.
    """
    table = _materialize(family, N)
    rs = ratios_at_one(table, N)
    exact = rs.exact
    rows = []
    for n, g in enumerate(rs.values):
        a0, a1 = table.alpha(n), table.alpha(n + 1)
        c0, c1 = table.gamma(n), table.gamma(n + 1)
        den = c0 - c1
        dec = strictly_less(0, den, exact, margin)
        if dec:
            upper = (a1 * c0 - a0 * c1) / den
            upper_ok = less_equal(g, upper, exact, margin)
        else:
            upper = math.inf
            upper_ok = True
        rows.append(SandwichRow(
            n=n, g=g, upper=upper,
            lower_ok=less_equal(1, g, exact, margin),
            upper_ok=upper_ok,
            gamma_step_decreasing=dec,
        ))
    return rows
