"""Turán determinants Delta_n(x) = p_n(x)^2 - p_{n-1}(x)*p_{n+1}(x) and grid scans.

The scanner streams the recurrence over a fixed symmetric grid in double
precision and reduces the rows MINIMA_BLOCK degrees at a time, so its memory
stays flat in the degree. It keeps each degree's grid minimum, its abscissa
and max|Delta_n|, and re-evaluates any minimum inside a near-zero band with
50-digit decimal arithmetic (the standard library's ``decimal``); the sign of
that confirmed value, up to its rounding bound, is the verdict — sign near
zero is the entire point of the exercise. Any other minimum is decided by
its sign. A scan normalizes a family at x = 1 on the exact values of its
coefficients, doubles included, which makes Delta_n(+-1) exactly 0, so its
minima at x = +-1 are confirmed as 0 without that evaluation; so is a
minimum at x = 0 whose sign the recurrence fixes there (``_scan``).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .arith import (EXTENDED, EXTENDED_DPS, coprime_fraction, is_exact, number_text,
                    quotient_decimal, to_decimal)
from .errors import ParamError
from .recurrence import (
    CoefficientFamily,
    NormalizedFamily,
    ScalingSequence,
    _dets,
    _normalized_coefficients,
    _require_count,
    _rows,
    _sigma_callable,
    _table,
    coefficients,
    eval_polys,
)

__all__ = [
    "TuranEntry",
    "GridInfo",
    "TuranReport",
    "turan_det",
    "scan_grid",
    "grid_scan",
    "scaled_scan",
]

DEFAULT_GRID_POINTS = 2001
CONFIRM_BAND = 1e-10
# Digits of an EXTENDED_DPS-digit confirmation not relied on: roundoff of the
# recurrence over many steps and of the coefficient conversion. A confirmed
# Delta_n(x) within 10**(CONFIRM_GUARD_DIGITS - EXTENDED_DPS) times its terms,
# p_n(x)^2 + |p_{n-1}(x)*p_{n+1}(x)| on the swept rows, of zero counts as zero.
CONFIRM_GUARD_DIGITS = 10
# degrees whose minima are reduced together (``_minima``)
MINIMA_BLOCK = 16


def turan_det(family, n: int, x, normalized: bool = True, dps: int | None = None):
    """Delta_n at a single point; n >= 1, an int.

    normalized=True (default) rescales the family so p_k(1) = 1 first, which
    is the setting in which the nonnegativity criteria live, through the
    normalization of grid_scan (``_normalized_coefficients``), on the exact
    values of the coefficients. The arithmetic mode follows eval_polys
    (exact for exact family + rational x, else float, or a Decimal of dps
    digits when dps is given): a family of doubles evaluates in doubles, on
    the doubles of its exact normalization; past a digit-cap fallback the
    normalized coefficients are Decimals, and not exact.
    """
    n = _require_count("n", n)
    if normalized and not isinstance(family, NormalizedFamily):
        al, ga = ([coprime_fraction(*v) if type(v) is tuple else v for v in values]
                  for values in _normalized_coefficients(family, n))
        family = CoefficientFamily(name=family.name, alpha=_table(al), gamma=_table(ga),
                                   exact=family.exact and is_exact(ga[0]))
    return dict(_dets(eval_polys(family, n + 1, x, dps=dps), {n}))[n]


def scan_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Sorted union of a uniform mesh and Chebyshev nodes on [-1, 1], mirrored.

    The negative half is the negation of the positive one, so xs == -xs[::-1]
    exactly; an odd ``points`` adds 0.0 twice. The endpoints are deliberately
    kept duplicated, so the grid always holds exactly 2*points abscissas.
    """
    if isinstance(points, numbers.Real) and not isinstance(points, bool) and points < 3:
        raise ParamError("grid needs at least 3 points")
    points = _require_count("points", points, 3)
    half = np.sort(np.concatenate([
        -np.linspace(-1.0, 1.0, points)[:points // 2],
        np.cos(np.pi * np.arange(points // 2) / (points - 1))]))
    return np.concatenate([-half[::-1], [0.0, 0.0] if points % 2 else [], half])


@dataclass(frozen=True)
class TuranEntry:
    n: int
    min_value: float
    argmin_x: float
    nonnegative: bool


@dataclass(frozen=True)
class GridInfo:
    kind: str
    points: int


@dataclass(frozen=True)
class TuranReport:
    """Scan result: per-degree grid minima, ordered by n.

    min_value/argmin_x are raw double-precision grid values (bit-identical to
    turan_det at the same point in float mode). The nonnegative verdict of a
    minimum inside the near-zero band is the sign of its confirmation (in
    ``decimal`` arithmetic at EXTENDED_DPS digits on the exact values of the
    inputs, doubles included, or exactly 0 at x = +-1 after grid_scan's
    normalization), up to that evaluation's rounding bound; every other
    minimum is nonnegative when it is >= 0.
    """

    n_range: tuple[int, int]
    grid: GridInfo
    per_n: tuple[TuranEntry, ...]
    sigma_log_concave: bool | None = None

    @property
    def all_nonnegative(self) -> bool:
        return all(e.nonnegative for e in self.per_n)

    def entry(self, n: int) -> TuranEntry:
        lo, hi = self.n_range
        if not lo <= n <= hi:
            raise KeyError(n)
        return self.per_n[n - lo]

    def to_json(self):
        out = {
            "n_range": list(self.n_range),
            "grid": {"kind": self.grid.kind, "points": self.grid.points},
            "all_nonnegative": self.all_nonnegative,
            "per_n": [
                {"n": e.n, "min_value": e.min_value, "argmin_x": e.argmin_x,
                 "nonnegative": e.nonnegative}
                for e in self.per_n
            ],
        }
        if self.sigma_log_concave is not None:
            out["sigma_log_concave"] = self.sigma_log_concave
        return out

    def csv_rows(self):
        yield ["n", "x_min", "delta_min", "nonnegative"]
        for e in self.per_n:
            yield [e.n, repr(e.argmin_x), repr(e.min_value), e.nonnegative]


def _scaled(rows, sigma):
    """The row stream sigma_n*p_n."""
    return (r * s for r, s in zip(rows, sigma))


def _min_and_scale(D) -> tuple[list, list, list]:
    """Per row of the block D, one Delta_n a row: the first argmin i, D[i]
    and scale_n = max(1, max|D|), as three lists.

    max|D| is max(D.max(), -D[i]), which needs no |D| block. A NaN in a row
    gives scale 1, as max(1.0, nan) is 1.0, and an infinity gives inf."""
    i = D.argmin(axis=1)
    m = D[np.arange(len(D)), i].tolist()
    return i.tolist(), m, [max(1.0, d, -v) for d, v in zip(D.max(axis=1).tolist(), m)]


def _minima(rows, n_max: int) -> tuple[list, list, list]:
    """``_min_and_scale`` of Delta_1..Delta_{n_max} from the rows p_0, p_1, ...

    The rows are stacked MINIMA_BLOCK degrees at a time in one buffer, and
    each block's Delta_n are formed together, in two more buffers allocated
    once, with the operations of ``_dets``: p_n*p_n, then minus
    p_{n-1}*p_{n+1}."""
    rows = iter(rows)
    p0, p1 = next(rows), next(rows)
    buf = np.empty((MINIMA_BLOCK + 2, *np.shape(p1)))
    dets, prods = np.empty((2, MINIMA_BLOCK, *np.shape(p1)))
    buf[0], buf[1] = p0, p1
    idx, mins, scales = [], [], []
    for lo in range(1, n_max + 1, MINIMA_BLOCK):
        k = min(MINIMA_BLOCK, n_max + 1 - lo)
        for j in range(2, k + 2):
            buf[j] = next(rows)
        D = np.multiply(buf[1:k + 1], buf[1:k + 1], out=dets[:k])
        D -= np.multiply(buf[:k], buf[2:k + 2], out=prods[:k])
        i, m, scale = _min_and_scale(D)
        idx += i
        mins += m
        scales += scale
        buf[:2] = buf[k:k + 2]
    return idx, mins, scales


def _doubles(values) -> list[float]:
    """The doubles of ``values``: of each value, and of each coprime int
    pair (p, q) of an exact normalization (``_normalized_coefficients``)
    as p/q, which int division rounds correctly, as float() of the
    Fraction p/q does."""
    return [v[0] / v[1] if type(v) is tuple else float(v) for v in values]


def _sigma_doubles(sigma_src) -> list[float]:
    """The double of each sigma_n, which scales the float rows; ParamError
    naming sigma_n where that double is not finite and > 0."""
    doubles = []
    for n, s in enumerate(sigma_src):
        try:
            d = float(s)
        except OverflowError:  # an int or a Fraction past the doubles
            d = math.inf
        if not 0.0 < d < math.inf:
            raise ParamError(f"sigma_{n} = {number_text(s)} has no positive finite double; "
                             "rescale sigma")
        doubles.append(d)
    return doubles


def _extended(values) -> list[Decimal]:
    """``values`` in the EXTENDED context: each int, double and Decimal
    exactly, and each Fraction and coprime int pair (p, q) rounded once to
    p/q (``arith.quotient_decimal``)."""
    return [quotient_decimal(*v, EXTENDED) if type(v) is tuple else to_decimal(v, EXTENDED)
            for v in values]


def _sign(v) -> int:
    """The sign of a value, or of a pair (p, q) with q > 0, compared with 0 exactly."""
    if type(v) is tuple:
        v = v[0]
    return (v > 0) - (v < 0)


def _confirm(al_src, ga_src, pending: dict, sigma_src=None, terms=None) -> dict:
    """{n: Delta_n(x)} in the EXTENDED decimal context, for each abscissa x
    of ``pending`` and each of its degrees n: one sweep per x, over the
    coefficients up to the highest degree pending. A dict ``terms`` also
    receives {n: p_n(x)^2 + |p_{n-1}(x)*p_{n+1}(x)|} of the same rows, the
    size that the rounding of Delta_n(x) is relative to."""
    hi = max(max(degrees) for degrees in pending.values()) + 1
    confirmed = {}
    with localcontext(EXTENDED):
        al, ga = _extended(al_src[:hi]), _extended(ga_src[:hi])
        sigma = None if sigma_src is None else _extended(sigma_src[:hi + 1])
        one = Decimal(1)
        for x, degrees in pending.items():
            rows = _rows(al, ga, Decimal(x), max(degrees) + 1, one)
            if sigma is not None:
                rows = _scaled(rows, sigma)
            p_prev, p = next(rows), next(rows)
            for n, p_next in enumerate(rows, start=1):
                if n in degrees:
                    square, product = p * p, p_prev * p_next
                    confirmed[n] = square - product
                    if terms is not None:
                        terms[n] = square + abs(product)
                p_prev, p = p, p_next
    return confirmed


def _scan(al_src, ga_src, n_max: int, grid_points: int, sigma_src=None,
          sigma_log_concave=None, exact_normalization: bool = False) -> TuranReport:
    """Stream the float64 rows over the grid, keep min, argmin and max|Delta_n|
    per degree, confirm the minima inside the band |m| < CONFIRM_BAND*scale_n
    in decimal arithmetic at EXTENDED_DPS digits, judge: a confirmed value
    counts as nonnegative down to its rounding bound,
    10**(CONFIRM_GUARD_DIGITS - EXTENDED_DPS)*(p_n(x)^2 + |p_{n-1}(x)*p_{n+1}(x)|)
    on the swept rows (sigma-scaled with ``sigma_src``), for every input,
    since the sweep reads each double as the exact value it holds, and a
    minimum outside the band is nonnegative when it is >= 0. The bound
    scales with the rows, so scaling sigma by a constant keeps every
    verdict.

    ``al_src`` and ``ga_src`` hold values, or coprime int pairs. With
    ``exact_normalization`` they are the normalization at 1 of a family on
    its exact values (``_normalized_coefficients``), which are exact or
    EXTENDED Decimals: Delta_n(+-1) is then exactly 0, and a near-zero
    minimum there is confirmed as 0 without a decimal sweep.

    At x = 0 the odd rows are exact zeros in every arithmetic, and
    p_{n+1}(0) = -(alpha_n/gamma_n)*p_{n-1}(0): Delta_n(0) = p_n(0)^2 for
    even n, and (alpha_n/gamma_n)*p_{n-1}(0)^2 for odd n, with the same
    signs in the float and the decimal sweep, and a positive sigma keeps
    them. So a near-zero minimum at x = 0 is confirmed as 0 without a
    sweep when n is even, or when alpha_n and gamma_n do not have opposite
    signs; the sweep would give a value >= 0 there, and the same verdict."""
    grid = scan_grid(grid_points)
    # Delta_n is even in x bit for bit and the grid mirrored, so its nonpositive
    # half, in grid order, gives the grid's minimum, first argmin and scale_n
    xs = np.unique(grid[grid <= 0])
    rows = _rows(_doubles(al_src), _doubles(ga_src), xs, n_max + 1, 1.0)
    if sigma_src is not None:
        rows = _scaled(rows, _sigma_doubles(sigma_src))
    idx, mins, scales = _minima(rows, n_max)
    args = xs[idx].tolist()

    # group the near-zero minima by abscissa: one high-precision sweep per x
    pending: dict[float, set[int]] = {}
    verdicts = {}
    for n, m, x, scale in zip(range(1, n_max + 1), mins, args, scales):
        if abs(m) < CONFIRM_BAND * scale:
            if exact_normalization and abs(x) == 1.0:
                verdicts[n] = True
            elif x == 0.0 and (n % 2 == 0 or _sign(al_src[n]) * _sign(ga_src[n]) >= 0):
                verdicts[n] = True
            else:
                pending.setdefault(x, set()).add(n)
    if pending:
        terms = {}
        confirmed = _confirm(al_src, ga_src, pending, sigma_src, terms)
        # v >= -terms_n*10**(CONFIRM_GUARD_DIGITS - EXTENDED_DPS), in the
        # arithmetic of the sweep
        guard = 10 ** (EXTENDED_DPS - CONFIRM_GUARD_DIGITS)
        verdicts.update((n, v * guard >= -terms[n]) for n, v in confirmed.items())

    entries = tuple(
        TuranEntry(n=n, min_value=m, argmin_x=x,
                   nonnegative=bool(verdicts[n] if n in verdicts else m >= 0))
        for n, m, x in zip(range(1, n_max + 1), mins, args))
    return TuranReport(
        n_range=(1, n_max),
        grid=GridInfo("uniform+chebyshev", int(grid.size)),
        per_n=entries,
        sigma_log_concave=sigma_log_concave,
    )


def grid_scan(family, n_max: int, grid_points: int = DEFAULT_GRID_POINTS,
              normalized: bool = True) -> TuranReport:
    """Scan Delta_1..Delta_{n_max} over the uniform+Chebyshev grid.

    The recurrence runs over the whole grid in float64, and its rows are
    reduced to per-degree minima MINIMA_BLOCK degrees at a time, so memory
    stays flat in n_max. With normalized=True the family is normalized from
    one read of the exact values of its coefficients as ints, a double's
    too: below the digit cap each alpha_tilde_n is the coprime pair (A, B)
    of the exact ratio pass and gamma_tilde_n is (B - A)/B, and the float
    rows read the correctly rounded A/B and (B - A)/B, the doubles of their
    Fractions, with no Fraction built. Verdict per degree, with
    scale_n = max(1, max|Delta_n| on the grid): a grid minimum inside the
    1e-10*scale_n band at x = +-1 of a family normalized here is confirmed
    as exactly 0, the value that p_n(+-1) = (+-1)^n gives; one at x = 0
    is confirmed as 0 when n is even or alpha_n and
    gamma_n do not have opposite signs, where Delta_n(0) >= 0 in every
    arithmetic (``_scan``); any other minimum in the band is re-evaluated
    in ``decimal`` arithmetic at EXTENDED_DPS significant digits
    (``arith.EXTENDED``), from the exact value of every int, double and
    Decimal and every Fraction and int pair rounded once to that precision,
    up to the highest degree pending, and that confirmed value decides, up to
    its rounding bound, 10**(CONFIRM_GUARD_DIGITS - EXTENDED_DPS) times
    p_n(x)^2 + |p_{n-1}(x)*p_{n+1}(x)| on the swept rows; any other
    minimum, outside the band, is nonnegative when it is >= 0.
    """
    n_max = _require_count("n_max", n_max)
    if normalized and not isinstance(family, NormalizedFamily):
        # one read of the coefficients serves the ratios and the scan; neither
        # the table nor the ratios are held through the scan, so they add
        # nothing to its peak memory
        return _scan(*_normalized_coefficients(family, n_max), n_max, grid_points,
                     exact_normalization=True)
    return _scan(*coefficients(family, n_max), n_max, grid_points)


def scaled_scan(family, sigma, n_max: int, grid_points: int = DEFAULT_GRID_POINTS) -> TuranReport:
    """Scan the sigma-scaled determinants (sigma_n*P_n)^2 - (sigma_{n-1}P_{n-1})(sigma_{n+1}P_{n+1}).

    Requires an already normalized family (alpha_n + gamma_n = 1); raises
    ParamError otherwise. Each row is scaled by sigma_n as it is made; the
    verdict rule is grid_scan's, on the scaled rows. A sigma_n whose double
    overflows or is 0.0 raises ParamError: rescale sigma. The report
    carries sigma_log_concave,
    decided on the exact values of sigma_0..sigma_{n_max+1}: when the
    unscaled determinants are nonnegative, log-concavity of sigma is exactly
    the condition for the scaled ones to stay nonnegative.
    """
    n_max = _require_count("n_max", n_max)
    al_src, ga_src = coefficients(family, n_max)
    for n, (a, g) in enumerate(zip(al_src, ga_src)):
        # past a digit-cap fallback a Decimal may stand beside an exact value
        exact = is_exact(a) and is_exact(g)
        s = a + g if exact else float(a) + float(g)
        if not (s == 1 if exact else abs(s - 1.0) <= 1e-12):
            raise ParamError(
                f"scaled_scan needs a normalized family "
                f"(alpha_{n} + gamma_{n} = {number_text(s)}); "
                "pass normalize(family, N) first")

    sfn = _sigma_callable(sigma)
    sigma_src = [sfn(n) for n in range(n_max + 2)]
    # raises ParamError unless every value is positive
    log_concave = ScalingSequence.from_values(sigma_src).log_concave_up_to(n_max)
    return _scan(al_src, ga_src, n_max, grid_points,
                 sigma_src=sigma_src, sigma_log_concave=log_concave)
