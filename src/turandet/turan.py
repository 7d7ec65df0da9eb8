"""Turán determinants Delta_n(x) = p_n(x)^2 - p_{n-1}(x)*p_{n+1}(x) and grid scans.

The scanner streams the recurrence over a fixed symmetric grid in double
precision, three rows at a time, so its memory stays flat in the degree. It
keeps each degree's grid minimum, its abscissa and max|Delta_n|, and
re-evaluates any minimum inside a near-zero band with 50-digit decimal
arithmetic (the standard library's ``decimal``); the sign of that confirmed
value, up to its rounding bound, is the verdict — sign near zero is the
entire point of the exercise. Minima that were never confirmed, and
confirmed ones of families with double-precision coefficients, are judged
against the tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .arith import EXTENDED_DPS, decimal_context, is_exact, to_decimal
from .errors import ParamError
from .recurrence import (
    NormalizedFamily,
    ScalingSequence,
    _abs_classes,
    _dets,
    _materialize,
    _rows,
    _sigma_callable,
    coefficients,
    eval_polys,
    normalize,
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
# Digits of a confirm_dps evaluation not relied on: roundoff of the recurrence
# over many steps and of the coefficient conversion. A confirmed value within
# scale_n*10**(CONFIRM_GUARD_DIGITS - digits) of zero counts as zero, where
# digits is confirm_dps, or EXTENDED_DPS if fewer and a coefficient is a Decimal.
CONFIRM_GUARD_DIGITS = 10


def turan_det(family, n: int, x, normalized: bool = True, dps: int | None = None):
    """Delta_n at a single point; n >= 1.

    normalized=True (default) rescales the family so p_k(1) = 1 first, which
    is the setting in which the nonnegativity criteria live. The arithmetic
    mode follows eval_polys (exact for exact family + rational x, else float,
    or a Decimal of dps digits when dps is given).
    """
    if n < 1:
        raise ParamError("turan_det needs n >= 1")
    if normalized and not isinstance(family, NormalizedFamily):
        # one read of the coefficients serves the ratios and the evaluation
        family = normalize(_materialize(family, n), n + 1)
    return dict(_dets(eval_polys(family, n + 1, x, dps=dps), {n}))[n]


def scan_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Sorted union of a uniform mesh and Chebyshev nodes on [-1, 1].

    Both halves contain the endpoints, which are deliberately kept duplicated,
    so the grid always holds exactly 2*points abscissas. The scan evaluates
    the first abscissa of each value of |x| among them, since
    Delta_n(-x) == Delta_n(x) bit for bit.
    """
    if points < 3:
        raise ParamError("grid needs at least 3 points")
    uniform = np.linspace(-1.0, 1.0, points)
    cheb = np.cos(np.pi * np.arange(points) / (points - 1))
    return np.sort(np.concatenate([uniform, cheb]))


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
    minimum inside the near-zero band is the sign of its confirmation in
    ``decimal`` arithmetic at confirm_dps digits, up to that evaluation's
    rounding bound, or up to
    ``tolerance`` when a coefficient or sigma is a double; every other
    minimum is judged against ``tolerance``.
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


def _confirm_tolerance(confirm_dps: int, tolerance: float, *sources) -> float:
    """Relative bound under which a confirmed minimum counts as zero.

    The confirmation removes only the roundoff of the scan, not the error
    already in its inputs: with a double coefficient or sigma, Delta_n of the
    rounded family is off by about an ulp, so ``tolerance`` still applies.
    """
    digits = confirm_dps
    for v in (v for src in sources for v in src):
        if isinstance(v, Decimal):
            digits = min(digits, EXTENDED_DPS)
        elif not is_exact(v):
            return tolerance
    return 10.0 ** (CONFIRM_GUARD_DIGITS - digits)


def _min_and_scale(D) -> tuple[int, float, float]:
    """argmin i, D[i] and scale_n = max(1, max|D|) of one row of Delta_n.

    max|D| is max(D.max(), -D[i]), which needs no |D| vector. A NaN in D
    gives scale 1, as max(1.0, nan) is 1.0, and an infinity gives inf."""
    i = int(np.argmin(D))
    m = float(D[i])
    return i, m, max(1.0, float(D.max()), -m)


def _confirm(al_src, ga_src, pending: dict, confirm_dps: int, sigma_src=None) -> dict:
    """{n: Delta_n(x)} in decimal arithmetic at confirm_dps digits, for each
    abscissa x of ``pending`` and each of its degrees n: one sweep per x."""
    hi = max(max(degrees) for degrees in pending.values()) + 1
    confirmed = {}
    with localcontext(decimal_context(confirm_dps)):
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
          confirm_dps: int, sigma_src=None, sigma_log_concave=None) -> TuranReport:
    """Stream the float64 rows over the grid, keep min, argmin and max|Delta_n|
    per degree, confirm the near-zero minima in decimal arithmetic at
    confirm_dps digits, judge."""
    if confirm_dps <= CONFIRM_GUARD_DIGITS:
        raise ParamError(f"confirm_dps must exceed {CONFIRM_GUARD_DIGITS} guard digits")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ParamError(f"tolerance must be finite and >= 0 (got {tolerance})")
    grid = scan_grid(grid_points)
    # Delta_n is even in x bit for bit, so the first abscissa of each |x|,
    # in grid order, gives the grid's minimum, its first argmin and scale_n
    xs = grid[_abs_classes(grid)[0]]
    rows = _rows([float(v) for v in al_src], [float(v) for v in ga_src], xs, n_max + 1, 1.0)
    if sigma_src is not None:
        rows = _scaled(rows, [float(v) for v in sigma_src])
    mins, args, scales = [], [], []
    for _, D in _dets(rows):
        i, m, scale = _min_and_scale(D)
        mins.append(m)
        args.append(float(xs[i]))
        scales.append(scale)

    # group the near-zero minima by abscissa: one high-precision sweep per x
    pending: dict[float, set[int]] = {}
    for n, m, x, scale in zip(range(1, n_max + 1), mins, args, scales):
        if abs(m) < CONFIRM_BAND * scale:
            pending.setdefault(x, set()).add(n)
    confirmed = {n: float(v) for n, v in _confirm(
        al_src, ga_src, pending, confirm_dps, sigma_src).items()} if pending else {}

    confirm_tol = _confirm_tolerance(confirm_dps, tolerance, al_src, ga_src, sigma_src or ())
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
              normalized: bool = True, tolerance: float = DEFAULT_TOLERANCE,
              confirm_dps: int = EXTENDED_DPS) -> TuranReport:
    """Scan Delta_1..Delta_{n_max} over the uniform+Chebyshev grid.

    The recurrence runs over the whole grid in float64, three rows at a time,
    so memory stays flat in n_max. Verdict per degree, with scale_n =
    max(1, max|Delta_n| on the grid): a grid minimum inside the
    1e-10*scale_n band is re-evaluated in ``decimal`` arithmetic at
    confirm_dps significant digits, from the exact value of every int, double
    and Decimal and every Fraction rounded once to that precision, and that
    confirmed value decides, up to its rounding bound
    scale_n*10**(CONFIRM_GUARD_DIGITS - confirm_dps) when every coefficient
    is exact or extended precision, and up to tolerance*scale_n when one is
    a double; any other minimum is nonnegative when it is
    >= -tolerance*scale_n. tolerance must be finite and >= 0, and confirm_dps
    must exceed CONFIRM_GUARD_DIGITS.
    """
    if n_max < 1:
        raise ParamError("grid_scan needs n_max >= 1")
    if normalized and not isinstance(family, NormalizedFamily):
        # one read of the coefficients serves the ratios and the scan; neither
        # the table nor the ratios are held through the scan, so they add
        # nothing to its peak memory
        al_src, ga_src = coefficients(normalize(_materialize(family, n_max), n_max + 1), n_max)
    else:
        al_src, ga_src = coefficients(family, n_max)
    return _scan(al_src, ga_src, n_max, grid_points, tolerance, confirm_dps)


def scaled_scan(family, sigma, n_max: int, grid_points: int = DEFAULT_GRID_POINTS,
                tolerance: float = DEFAULT_TOLERANCE,
                confirm_dps: int = EXTENDED_DPS) -> TuranReport:
    """Scan the sigma-scaled determinants (sigma_n*P_n)^2 - (sigma_{n-1}P_{n-1})(sigma_{n+1}P_{n+1}).

    Requires an already normalized family (alpha_n + gamma_n = 1); raises
    ParamError otherwise. Each row is scaled by sigma_n as it is made; the
    verdict rule is grid_scan's. The report carries sigma_log_concave,
    decided on the exact values of sigma_0..sigma_{n_max+1}: when the
    unscaled determinants are nonnegative, log-concavity of sigma is exactly
    the condition for the scaled ones to stay nonnegative.
    """
    if n_max < 1:
        raise ParamError("scaled_scan needs n_max >= 1")
    al_src, ga_src = coefficients(family, n_max)
    for n in range(n_max + 1):
        s = al_src[n] + ga_src[n]
        ok = (s == 1) if is_exact(s) else abs(float(s) - 1.0) <= 1e-12
        if not ok:
            raise ParamError(
                f"scaled_scan needs a normalized family (alpha_{n} + gamma_{n} = {s}); "
                "pass normalize(family, N) first")

    sfn = _sigma_callable(sigma)
    sigma_src = [sfn(n) for n in range(n_max + 2)]
    # raises ParamError unless every value is positive
    log_concave = ScalingSequence.from_values(sigma_src).log_concave_up_to(n_max)
    return _scan(al_src, ga_src, n_max, grid_points, tolerance, confirm_dps,
                 sigma_src=sigma_src, sigma_log_concave=log_concave)
