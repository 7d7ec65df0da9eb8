"""Orthogonality-density recovery from Turán determinants of orthonormal polynomials.

For off-diagonals a_n -> 1/2 of bounded variation, Delta_n(x) for the
orthonormal recurrence converges on (-1, 1) to a positive limit f(x), and the
measure's density is w(x) = 2*sqrt(1 - x^2)/(pi*f(x)). The estimator evaluates
Delta_N at one large N and reports the last-step change as its convergence
diagnostic — no extrapolation, no claimed rate.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .recurrence import _dets, _rows, orthonormal_offdiag

__all__ = [
    "DensityEstimate",
    "orthonormal_turan",
    "default_density_grid",
    "estimate_density",
]

DEFAULT_N = 10_000
DEFAULT_POINTS = 199
DEFAULT_EDGE = 0.99


def orthonormal_turan(a, n: int, x: float) -> float:
    """Delta_n at x for the orthonormal recurrence x*p_k = a_{k+1}p_{k+1} + a_k p_{k-1}.

    ``a`` lists a_1..a_m (so a[k-1] is a_k) and must reach a_{n+1}.
    """
    if n < 1:
        raise ParamError("orthonormal_turan needs n >= 1")
    if len(a) < n + 1:
        raise ParamError(f"need off-diagonals up to a_{n + 1}, got {len(a)}")
    return float(_orthonormal_dets(a, float(x), {n})[n])


def default_density_grid(points: int = DEFAULT_POINTS, edge: float = DEFAULT_EDGE) -> np.ndarray:
    """Uniform grid on [-edge, edge]; stays clear of the +-1 blow-up."""
    if points < 1:
        raise ParamError("grid needs at least one point")
    if not 0 < edge <= 1 - 1e-3:
        raise ParamError("edge must lie in (0, 0.999]")
    return np.linspace(-edge, edge, points)


def _orthonormal_dets(a, x, degrees) -> dict:
    """{n: Delta_n(x)} for n in ``degrees``; the recurrence with alpha_k = a_k, gamma_k = a_{k+1}."""
    return dict(_dets(_rows([0.0, *a], a, x, max(degrees) + 1, 1.0), degrees))


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
                     offdiag_tol: float = 0.01) -> DensityEstimate:
    """Estimate the orthogonality density of ``family`` on a grid inside (-1, 1).

    Needs the off-diagonals a_n = sqrt(alpha_n*gamma_{n-1}) to approach 1/2;
    |a_N - 1/2| >= offdiag_tol only warns (the estimate is still produced,
    flagged unconverged). Points where Delta_N <= 0 are flagged invalid and get
    NaN density.
    """
    if N < 10:
        raise ParamError("estimate_density needs N >= 10")
    grid = default_density_grid() if xs is None else np.asarray(xs, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ParamError("xs must be a nonempty 1-d grid")
    if np.any(np.abs(grid) >= 1.0):
        raise ParamError("density grid must lie strictly inside (-1, 1)")

    a = np.array(orthonormal_offdiag(family, N + 1))
    gap = abs(float(a[N - 1]) - 0.5)  # a_N
    converged = gap < offdiag_tol
    if not converged:
        warnings.warn(
            f"off-diagonals far from 1/2 at N={N} (|a_N - 1/2| = {gap:.3g}); "
            "the limit formula may not apply", stacklevel=2)
    bv = float(np.abs(np.diff(a[:N])).sum())

    dets = _orthonormal_dets(a, grid, {N - 1, N})
    d_before, d_at = dets[N - 1], dets[N]
    f = d_at
    valid = f > 0
    dens = np.full_like(f, math.nan)
    dens[valid] = 2.0 * np.sqrt(1.0 - grid[valid] ** 2) / (math.pi * f[valid])

    return DensityEstimate(
        xs=tuple(float(v) for v in grid),
        f_values=tuple(float(v) for v in f),
        density=tuple(float(v) for v in dens),
        valid=tuple(bool(v) for v in valid),
        last_change=tuple(float(v) for v in np.abs(d_at - d_before)),
        N=N,
        offdiag_gap=gap,
        offdiag_converged=converged,
        bv_partial_sum=bv,
    )
