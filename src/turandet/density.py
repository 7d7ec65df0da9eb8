"""Orthogonality-density recovery from Turán determinants of orthonormal polynomials.

For off-diagonals a_n -> 1/2 of bounded variation, Delta_n(x) for the
orthonormal recurrence converges on (-1, 1) to a positive limit f(x), and the
measure's density is w(x) = 2*sqrt(1 - x^2)/(pi*f(x)). The estimator evaluates
Delta_N at one large N and reports the last-step change as its convergence
diagnostic — no extrapolation, no claimed rate.

The sweep runs once for each value of |x| in the grid, since
Delta_n(-x) == Delta_n(x) bit for bit. It jumps to row N in blocks of K steps
(``recurrence._jump``, K about 4*sqrt(N)) that step together as one array,
then steps the last rows one by one: O(sqrt(N)) numpy calls instead of four
per step. Its rounding differs from the step-by-step sweep's by up to about
3e-12 of Delta_N at N = 10^5; the tests hold both determinants to 5e-12 of a
40-digit sweep there.
"""
from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .recurrence import _dets, _jump, _require_count, _rows, orthonormal_offdiag

__all__ = [
    "DensityEstimate",
    "orthonormal_turan",
    "default_density_grid",
    "estimate_density",
]

DEFAULT_N = 10_000
DEFAULT_POINTS = 199
DEFAULT_EDGE = 0.99
DEFAULT_OFFDIAG_TOL = 0.01


def orthonormal_turan(a, n: int, x: float) -> float:
    """Delta_n at x for the orthonormal recurrence x*p_k = a_{k+1}p_{k+1} + a_k p_{k-1}.

    ``a`` lists a_1..a_m (so a[k-1] is a_k) and must reach a_{n+1}; x is finite.
    """
    n = _require_count("n", n)
    if len(a) < n + 1:
        raise ParamError(f"need off-diagonals up to a_{n + 1}, got {len(a)}")
    if not math.isfinite(x):
        raise ParamError(f"x must be a finite number (got {x!r})")
    return float(_last_dets(np.asarray(a, dtype=float), np.array([float(x)]), n)[1][0])


def default_density_grid(points: int = DEFAULT_POINTS, edge: float = DEFAULT_EDGE) -> np.ndarray:
    """Uniform grid on [-edge, edge], clear of the +-1 blow-up; its positive
    half is the negation of its negative half, so xs == -xs[::-1] exactly."""
    if isinstance(points, numbers.Real) and points < 1:
        raise ParamError("grid needs at least one point")
    points = _require_count("points", points)
    if not 0 < edge <= 1 - 1e-3:
        raise ParamError("edge must lie in (0, 0.999]")
    half = np.linspace(-edge, edge, points)[:points // 2]
    return np.concatenate([half, [0.0] if points % 2 else [], -half[::-1]])


def _last_dets(a, xs, N: int):
    """(Delta_{N-1}, Delta_N) at the float64 vector xs, for the recurrence
    with alpha_k = a_k and gamma_k = a_{k+1} (a[k-1] is a_k).

    ``_jump`` takes the rows to p_{m-1}, p_m with m <= N - 1, and ``_rows``
    steps the last rows, fewer than K + 3 of them, to p_{N+1}.
    """
    ga = a[:N + 1]
    al = np.concatenate(([0.0], ga))
    start = _jump(al, ga, xs, N - 1, (0, np.zeros_like(xs), np.ones_like(xs)))
    rows = itertools.chain(start[1:], _rows(al, ga, xs, N + 1, start=start))
    dets = dict(_dets(rows, {N - 1, N}, first=start[0]))
    return dets[N - 1], dets[N]


@dataclass(frozen=True)
class DensityEstimate:
    """Density values w = 2*sqrt(1-x^2)/(pi*f_N) where f_N > 0; NaN elsewhere.

    last_change[i] = |Delta_N - Delta_{N-1}| at xs[i]. bv_partial_sum is the
    partial sum of |a_{n+1} - a_n| up to N — a diagnostic only: bounded
    variation can never be certified from finitely many terms.
    """

    xs: tuple[float, ...]
    f_values: tuple[float, ...]
    density: tuple[float, ...]
    valid: tuple[bool, ...]
    last_change: tuple[float, ...]
    N: int
    offdiag_gap: float
    offdiag_converged: bool
    bv_partial_sum: float

    @property
    def all_valid(self) -> bool:
        return all(self.valid)

    def to_json(self):
        return {
            "N": self.N,
            "offdiag_gap": self.offdiag_gap,
            "offdiag_converged": self.offdiag_converged,
            "bv_partial_sum": self.bv_partial_sum,
            "bv_note": "partial sum only; bounded variation is not certifiable "
                       "from finitely many terms",
            "all_valid": self.all_valid,
            "points": [
                {"x": x, "f_N": f, "density": d, "last_change": c, "valid": v}
                for x, f, d, c, v in zip(self.xs, self.f_values, self.density,
                                         self.last_change, self.valid)
            ],
        }

    def csv_rows(self):
        yield ["x", "f_N", "density", "last_change", "valid"]
        for x, f, d, c, v in zip(self.xs, self.f_values, self.density,
                                 self.last_change, self.valid):
            yield [repr(x), repr(f), repr(d), repr(c), v]


def estimate_density(family, N: int = DEFAULT_N, xs=None, *,
                     offdiag_tol: float = DEFAULT_OFFDIAG_TOL) -> DensityEstimate:
    """Estimate the orthogonality density of ``family`` on a grid inside (-1, 1).

    Needs the off-diagonals a_n = sqrt(alpha_n*gamma_{n-1}) to approach 1/2;
    |a_N - 1/2| >= offdiag_tol only warns (the estimate is still produced,
    flagged unconverged); offdiag_tol must be finite and >= 0. Points where
    Delta_N <= 0 are flagged invalid and get NaN density.
    """
    N = _require_count("N", N, 10)
    if not (math.isfinite(offdiag_tol) and offdiag_tol >= 0):
        raise ParamError(f"offdiag_tol must be finite and >= 0 (got {offdiag_tol})")
    grid = default_density_grid() if xs is None else np.asarray(xs, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ParamError("xs must be a nonempty 1-d grid")
    if not np.all(np.abs(grid) < 1.0):  # a NaN fails it too
        raise ParamError("density grid must lie strictly inside (-1, 1)")

    a = orthonormal_offdiag(family, N + 1)
    gap = abs(float(a[N - 1]) - 0.5)  # a_N
    converged = gap < offdiag_tol
    if not converged:
        warnings.warn(
            f"off-diagonals far from 1/2 at N={N} (|a_N - 1/2| = {gap:.3g}); "
            "the limit formula may not apply", stacklevel=2)
    bv = float(np.abs(np.diff(a[:N])).sum())

    # one sweep per |x|: Delta_n(-x) == Delta_n(x) bit for bit
    ax, cls = np.unique(np.abs(grid), return_inverse=True)
    d_before, f = (d[cls] for d in _last_dets(a, ax, N))
    valid = f > 0
    dens = np.full_like(f, math.nan)
    dens[valid] = 2.0 * np.sqrt(1.0 - grid[valid] ** 2) / (math.pi * f[valid])

    return DensityEstimate(
        xs=tuple(float(v) for v in grid),
        f_values=tuple(float(v) for v in f),
        density=tuple(float(v) for v in dens),
        valid=tuple(bool(v) for v in valid),
        last_change=tuple(float(v) for v in np.abs(f - d_before)),
        N=N,
        offdiag_gap=gap,
        offdiag_converged=converged,
        bv_partial_sum=bv,
    )
