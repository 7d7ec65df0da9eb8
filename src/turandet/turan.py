"""Turán determinants Delta_n(x) = p_n(x)^2 - p_{n-1}(x)*p_{n+1}(x) and grid scans.

The scanner streams the recurrence over a fixed symmetric grid in double
precision and reduces the rows MINIMA_BLOCK degrees at a time, so its memory
stays flat in the degree. It keeps each degree's grid minimum, its abscissa
and max|Delta_n|, and re-evaluates any minimum inside a near-zero band with
50-digit decimal arithmetic (the standard library's ``decimal``); the sign of
that confirmed value, up to its rounding bound, is the verdict — sign near
zero is the entire point of the exercise. A scan that normalizes an exact
family at x = 1 makes Delta_n(+-1) exactly 0, so its minima at x = +-1 are
confirmed as 0 without that evaluation. Minima that were never confirmed,
and confirmed ones of families with double-precision coefficients, are
judged against the tolerance.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .arith import EXTENDED, EXTENDED_DPS, is_exact, to_decimal
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
DEFAULT_TOLERANCE = 1e-12
CONFIRM_BAND = 1e-10
# Digits of an EXTENDED_DPS-digit confirmation not relied on: roundoff of the
# recurrence over many steps and of the coefficient conversion. A confirmed
# value within scale_n*10**(CONFIRM_GUARD_DIGITS - EXTENDED_DPS) of zero
# counts as zero.
CONFIRM_GUARD_DIGITS = 10
# degrees whose minima are reduced together (``_minima``)
MINIMA_BLOCK = 16


def turan_det(family, n: int, x, normalized: bool = True, dps: int | None = None):
    """Delta_n at a single point; n >= 1, an int.

    normalized=True (default) rescales the family so p_k(1) = 1 first, which
    is the setting in which the nonnegativity criteria live, through the
    normalization of grid_scan (``_normalized_coefficients``). The arithmetic
    mode follows eval_polys (exact for exact family + rational x, else float,
    or a Decimal of dps digits when dps is given); past a digit-cap fallback
    the normalized coefficients are Decimals, and not exact.
    """
    n = _require_count("n", n)
    if normalized and not isinstance(family, NormalizedFamily):
        al, ga = _normalized_coefficients(family, n)
        family = CoefficientFamily(name=family.name, alpha=_table(al), gamma=_table(ga),
                                   exact=family.exact and is_exact(ga[0]))
    return dict(_dets(eval_polys(family, n + 1, x, dps=dps), {n}))[n]


def scan_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Sorted union of a uniform mesh and Chebyshev nodes on [-1, 1], mirrored.

    The negative half is the negation of the positive one, so xs == -xs[::-1]
    exactly; an odd ``points`` adds 0.0 twice. The endpoints are deliberately
    kept duplicated, so the grid always holds exactly 2*points abscissas.
    """
    if isinstance(points, numbers.Real) and points < 3:
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
    ``decimal`` arithmetic at EXTENDED_DPS digits, or exactly 0 at x = +-1
    after grid_scan's normalization), up to that evaluation's rounding
    bound, or up to ``tolerance`` when a coefficient or sigma is a double;
    every other minimum is judged against ``tolerance``.
    """

    n_range: tuple[int, int]
    grid: GridInfo
    per_n: tuple[TuranEntry, ...]
    tolerance: float
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
            "tolerance": self.tolerance,
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


def _confirm_tolerance(tolerance: float, *sources) -> float:
    """Relative bound under which a confirmed minimum counts as zero:
    10**(CONFIRM_GUARD_DIGITS - EXTENDED_DPS) when every value of
    ``sources`` is exact or a Decimal, and ``tolerance`` when one is a double.

    The confirmation removes only the roundoff of the scan, not the error
    already in its inputs: with a double coefficient or sigma, Delta_n of the
    rounded family is off by about an ulp, so ``tolerance`` still applies.
    """
    for v in (v for src in sources for v in src):
        if not (is_exact(v) or isinstance(v, Decimal)):
            return tolerance
    return 10.0 ** (CONFIRM_GUARD_DIGITS - EXTENDED_DPS)


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


def _confirm(al_src, ga_src, pending: dict, sigma_src=None) -> dict:
    """{n: Delta_n(x)} in the EXTENDED decimal context, for each abscissa x
    of ``pending`` and each of its degrees n: one sweep per x."""
    hi = max(max(degrees) for degrees in pending.values()) + 1
    confirmed = {}
    with localcontext(EXTENDED):
        al = [to_decimal(v) for v in al_src[:hi]]
        ga = [to_decimal(v) for v in ga_src[:hi]]
        sigma = None if sigma_src is None else [to_decimal(v) for v in sigma_src[:hi + 1]]
        one = Decimal(1)
        for x, degrees in pending.items():
            rows = _rows(al, ga, Decimal(x), max(degrees) + 1, one)
            if sigma is not None:
                rows = _scaled(rows, sigma)
            confirmed.update(_dets(rows, degrees))
    return confirmed


def _scan(al_src, ga_src, n_max: int, grid_points: int, tolerance: float,
          sigma_src=None, sigma_log_concave=None, zero_at_ends: bool = False) -> TuranReport:
    """Stream the float64 rows over the grid, keep min, argmin and max|Delta_n|
    per degree, confirm the near-zero minima in decimal arithmetic at
    EXTENDED_DPS digits, judge. With ``zero_at_ends``, Delta_n(+-1) is
    exactly 0 for the exact family that the coefficients stand for, and a
    near-zero minimum there is confirmed as 0 without a decimal sweep."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ParamError(f"tolerance must be finite and >= 0 (got {tolerance})")
    grid = scan_grid(grid_points)
    # Delta_n is even in x bit for bit and the grid mirrored, so its nonpositive
    # half, in grid order, gives the grid's minimum, first argmin and scale_n
    xs = np.unique(grid[grid <= 0])
    rows = _rows([float(v) for v in al_src], [float(v) for v in ga_src], xs, n_max + 1, 1.0)
    if sigma_src is not None:
        rows = _scaled(rows, [float(v) for v in sigma_src])
    idx, mins, scales = _minima(rows, n_max)
    args = xs[idx].tolist()

    # group the near-zero minima by abscissa: one high-precision sweep per x
    pending: dict[float, set[int]] = {}
    confirmed = {}
    for n, m, x, scale in zip(range(1, n_max + 1), mins, args, scales):
        if abs(m) < CONFIRM_BAND * scale:
            if zero_at_ends and abs(x) == 1.0:
                confirmed[n] = 0.0
            else:
                pending.setdefault(x, set()).add(n)
    if pending:
        confirmed.update((n, float(v)) for n, v in _confirm(
            al_src, ga_src, pending, sigma_src).items())

    confirm_tol = _confirm_tolerance(tolerance, al_src, ga_src, sigma_src or ())
    entries = tuple(
        TuranEntry(n=n, min_value=m, argmin_x=x, nonnegative=bool(
            confirmed[n] >= -confirm_tol * scale if n in confirmed
            else m >= -tolerance * scale))
        for n, m, x, scale in zip(range(1, n_max + 1), mins, args, scales))
    return TuranReport(
        n_range=(1, n_max),
        grid=GridInfo("uniform+chebyshev", int(grid.size)),
        per_n=entries,
        tolerance=tolerance,
        sigma_log_concave=sigma_log_concave,
    )


def grid_scan(family, n_max: int, grid_points: int = DEFAULT_GRID_POINTS,
              normalized: bool = True, tolerance: float = DEFAULT_TOLERANCE) -> TuranReport:
    """Scan Delta_1..Delta_{n_max} over the uniform+Chebyshev grid.

    The recurrence runs over the whole grid in float64, and its rows are
    reduced to per-degree minima MINIMA_BLOCK degrees at a time, so memory
    stays flat in n_max. With normalized=True an exact family is normalized
    from one read of its coefficients as ints. Verdict per degree, with
    scale_n = max(1, max|Delta_n| on the grid): a grid minimum inside the
    1e-10*scale_n band at x = +-1 of a family normalized here from exact
    coefficients is confirmed as exactly 0, the value that p_n(+-1) = (+-1)^n
    gives; any other minimum in the band is re-evaluated in ``decimal``
    arithmetic at EXTENDED_DPS significant digits (``arith.EXTENDED``),
    from the exact value of every int, double and Decimal and every Fraction
    rounded once to that precision, and that confirmed value decides, up to
    its rounding bound scale_n*10**(CONFIRM_GUARD_DIGITS - EXTENDED_DPS) when
    every coefficient is exact or extended precision, and up to
    tolerance*scale_n when one is a double; any other minimum is nonnegative
    when it is >= -tolerance*scale_n. tolerance must be finite and >= 0.
    """
    n_max = _require_count("n_max", n_max)
    if normalized and not isinstance(family, NormalizedFamily):
        # one read of the coefficients serves the ratios and the scan; neither
        # the table nor the ratios are held through the scan, so they add
        # nothing to its peak memory
        al_src, ga_src = _normalized_coefficients(family, n_max)
        zero_at_ends = family.exact
    else:
        al_src, ga_src = coefficients(family, n_max)
        zero_at_ends = False
    return _scan(al_src, ga_src, n_max, grid_points, tolerance, zero_at_ends=zero_at_ends)


def scaled_scan(family, sigma, n_max: int, grid_points: int = DEFAULT_GRID_POINTS,
                tolerance: float = DEFAULT_TOLERANCE) -> TuranReport:
    """Scan the sigma-scaled determinants (sigma_n*P_n)^2 - (sigma_{n-1}P_{n-1})(sigma_{n+1}P_{n+1}).

    Requires an already normalized family (alpha_n + gamma_n = 1); raises
    ParamError otherwise. Each row is scaled by sigma_n as it is made; the
    verdict rule is grid_scan's. The report carries sigma_log_concave,
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
                f"scaled_scan needs a normalized family (alpha_{n} + gamma_{n} = {s}); "
                "pass normalize(family, N) first")

    sfn = _sigma_callable(sigma)
    sigma_src = [sfn(n) for n in range(n_max + 2)]
    # raises ParamError unless every value is positive
    log_concave = ScalingSequence.from_values(sigma_src).log_concave_up_to(n_max)
    return _scan(al_src, ga_src, n_max, grid_points, tolerance,
                 sigma_src=sigma_src, sigma_log_concave=log_concave)
