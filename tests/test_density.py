import math
from fractions import Fraction as F

import numpy as np
import pytest

from turandet import (
    CoefficientFamily,
    ParamError,
    chebyshev_u,
    coefficients,
    default_density_grid,
    estimate_density,
    example4,
    float_view,
    gegenbauer,
    legendre,
    orthonormal_offdiag,
    orthonormal_turan,
    table_family,
)


def test_constant_half_offdiagonals_give_one():
    a = [0.5] * 40
    for n in (1, 5, 20, 38):
        for x in (-0.9, -0.3, 0.0, 0.4, 0.83):
            assert orthonormal_turan(a, n, x) == pytest.approx(1.0, abs=1e-14)


def test_degree_one_identity():
    # Delta_1(0) = p_1(0)^2 - p_0(0) p_2(0) = a_1/a_2 for any off-diagonals
    a = [0.7, 0.3, 0.9]
    assert orthonormal_turan(a, 1, 0.0) == pytest.approx(0.7 / 0.3, rel=1e-15)


def test_orthonormal_turan_validation():
    with pytest.raises(ParamError):
        orthonormal_turan([0.5, 0.5], 0, 0.3)
    with pytest.raises(ParamError):
        orthonormal_turan([0.5, 0.5], 2, 0.3)  # needs a_3


def test_legendre_limit_at_zero():
    a = orthonormal_offdiag(legendre(), 2001)
    val = orthonormal_turan(a, 2000, 0.0)
    assert val == pytest.approx(4 / math.pi, rel=0.01)


def test_offdiag_is_the_float_of_the_exact_product():
    """Exact coefficients skip the product Fraction, bit for bit; others keep it."""
    N = 3000
    exact = example4(F(7, 11), F(5, 7))
    al, ga = coefficients(exact, N)
    for fam in (exact, float_view(exact), table_family(al, ga),
                table_family([float(v) for v in al], [float(v) for v in ga])):
        expected = [math.sqrt(float(fam.alpha(k) * fam.gamma(k - 1))) for k in range(1, N + 1)]
        assert orthonormal_offdiag(fam, N) == expected


def test_offdiag_rejects_a_nonpositive_exact_product():
    fam = CoefficientFamily(name="neg", alpha=lambda n: F(0) if n == 0 else F(-1, 3),
                            gamma=lambda n: F(1, 2))
    with pytest.raises(ParamError, match=r"alpha_1\*gamma_0 must be positive \(got -1/6\)"):
        orthonormal_offdiag(fam, 2)


def test_default_grid():
    xs = default_density_grid()
    assert xs.size == 199
    assert xs[0] == -0.99 and xs[-1] == 0.99
    assert np.all(np.abs(xs) <= 0.99)
    with pytest.raises(ParamError):
        default_density_grid(edge=1.0)
    with pytest.raises(ParamError):
        default_density_grid(points=0)


def test_chebyshev_u_density_is_exact():
    """U is the fixed point: f_N == 1 so w == 2 sqrt(1-x^2)/pi at any N."""
    est = estimate_density(chebyshev_u(), N=100)
    assert est.all_valid
    for x, f, w in zip(est.xs, est.f_values, est.density):
        assert f == pytest.approx(1.0, abs=1e-14)
        assert w == pytest.approx(2 * math.sqrt(1 - x * x) / math.pi, abs=1e-14)
    assert est.offdiag_gap == 0.0
    assert est.bv_partial_sum == 0.0  # a_k = 1/2 identically


def test_legendre_density_near_half():
    est = estimate_density(legendre(), N=2000, xs=np.array([-0.5, 0.0, 0.5]))
    for w in est.density:
        assert w == pytest.approx(0.5, abs=0.0025)
    assert est.offdiag_converged
    # a_k = k/sqrt(4k^2-1) decreases to 1/2, so the variation telescopes
    assert est.bv_partial_sum == pytest.approx(1 / math.sqrt(3) - 0.5, abs=1e-6)


def test_gegenbauer_density_positive_on_core():
    est = estimate_density(gegenbauer(3), N=500)
    assert est.all_valid
    assert all(f > 0 for f in est.f_values)


def test_last_change_shrinks_over_doublings():
    e1 = estimate_density(legendre(), N=100, xs=np.array([0.0, 0.4]))
    e2 = estimate_density(legendre(), N=800, xs=np.array([0.0, 0.4]))
    assert max(e2.last_change) < max(e1.last_change)


def test_warns_when_offdiagonals_far_from_half():
    # constant a_n = 0.3: limit formula inapplicable, estimate still returned
    rows = 14
    fam = table_family([0] + [0.3] * (rows - 1), [0.3] * rows)
    with pytest.warns(UserWarning, match="far from 1/2"):
        est = estimate_density(fam, N=10, xs=np.array([0.0]))
    assert not est.offdiag_converged
    assert est.offdiag_gap == pytest.approx(0.2, abs=1e-12)


def test_estimate_validation():
    with pytest.raises(ParamError):
        estimate_density(legendre(), N=5)
    with pytest.raises(ParamError):
        estimate_density(legendre(), N=100, xs=np.array([0.0, 1.0]))
    with pytest.raises(ParamError):
        estimate_density(legendre(), N=100, xs=np.array([]))


def test_report_formats():
    est = estimate_density(chebyshev_u(), N=50, xs=np.array([0.0, 0.5]))
    rows = list(est.csv_rows())
    assert rows[0] == ["x", "f_N", "density", "last_change", "valid"]
    assert len(rows) == 3
    js = est.to_json()
    assert js["N"] == 50
    assert js["all_valid"] is True
    assert "not certifiable" in js["bv_note"]
    assert set(js["points"][0]) == {"x", "f_N", "density", "last_change", "valid"}


def test_invalid_points_get_nan_density():
    # an off-diagonal spike forces Delta_N <= 0 somewhere: flag, don't raise
    rows = 14
    alphas = [0] + [0.45] * (rows - 1)
    gammas = [0.45] * rows
    alphas[7] = 2.4  # a_7 jumps above 1
    fam = table_family(alphas, gammas)
    with pytest.warns(UserWarning):
        est = estimate_density(fam, N=12, xs=np.linspace(-0.8, 0.8, 17))
    if not est.all_valid:
        bad = [i for i, v in enumerate(est.valid) if not v]
        for i in bad:
            assert math.isnan(est.density[i])
            assert est.f_values[i] <= 0
