import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from turandet import (
    ParamError,
    chebyshev_t,
    chebyshev_u,
    float_view,
    grid_scan,
    legendre,
    normalize,
    pollaczek,
    scaled_scan,
    scan_grid,
    table_family,
    turan_det,
)


def test_chebyshev_t_closed_form_exact():
    fam = chebyshev_t()
    for n in (1, 2, 5, 12):
        assert turan_det(fam, n, F(1, 3)) == F(8, 9)
        assert turan_det(fam, n, F(-7, 10)) == 1 - F(49, 100)


def test_endpoint_determinants_vanish():
    for fam in (chebyshev_t(), chebyshev_u(), legendre()):
        for n in (1, 2, 3, 8):
            assert turan_det(fam, n, F(1)) == 0
            assert turan_det(fam, n, F(-1)) == 0


def test_chebyshev_t_closed_form_float():
    fam = chebyshev_t()
    for x in np.linspace(-1, 1, 31):
        for n in (1, 4, 20, 50):
            assert turan_det(fam, n, float(x)) == pytest.approx(1 - x * x, abs=1e-12)


def test_raw_versus_normalized():
    fam = legendre()  # already normalized at 1, both must agree
    a = turan_det(fam, 4, F(1, 2), normalized=False)
    b = turan_det(fam, 4, F(1, 2), normalized=True)
    assert a == b


def test_parity_is_exact():
    fam = legendre()
    for x in (0.37, 0.81, F(2, 7)):
        assert turan_det(fam, 9, x) == turan_det(fam, 9, -x)


def test_scan_grid_shape():
    xs = scan_grid(11)
    assert xs.size == 22  # uniform + Chebyshev abscissas, duplicates kept
    assert xs[0] == -1.0 and xs[-1] == 1.0
    assert np.all(np.diff(xs) >= 0)
    with pytest.raises(ParamError):
        scan_grid(2)


def test_grid_scan_report_structure():
    rep = grid_scan(chebyshev_t(), 6, grid_points=25)
    assert rep.n_range == (1, 6)
    assert rep.grid.points == 50
    assert [e.n for e in rep.per_n] == [1, 2, 3, 4, 5, 6]
    assert rep.all_nonnegative
    assert rep.entry(3).nonnegative
    with pytest.raises(KeyError):
        rep.entry(7)


def test_grid_scan_min_matches_pointwise_eval():
    """Bit-for-bit: the tabulated minimum equals the scalar evaluation there."""
    rep = grid_scan(legendre(), 10, grid_points=51)
    fam = legendre()
    for e in rep.per_n:
        assert e.min_value == turan_det(fam, e.n, e.argmin_x)


def test_grid_scan_detects_negative_determinants():
    # rescaling T_n by 2^{n^2} folds the scaling into the recurrence; the raw
    # determinant of the rescaled sequence is -28x^2 + 16 at n = 1
    fam = table_family([0, 1, 4], [F(1, 2), F(1, 16), F(1, 256)])
    rep = grid_scan(fam, 1, grid_points=101, normalized=False)
    assert not rep.all_nonnegative
    assert rep.entry(1).min_value == pytest.approx(-12.0)


def test_scaled_scan_legendre_log_concave():
    fam = normalize(legendre(), 31)
    rep = scaled_scan(fam, lambda n: 2 * n + 1, 30, grid_points=201)
    assert rep.sigma_log_concave is True
    assert rep.all_nonnegative


def test_scaled_scan_log_convex_goes_negative():
    fam = normalize(legendre(), 31)
    rep = scaled_scan(fam, lambda n: F(1, 2 * n + 1), 30, grid_points=201)
    assert rep.sigma_log_concave is False
    assert not rep.all_nonnegative
    e = rep.entry(1)
    # scaled determinant at x = +-1 equals sigma_1^2 - sigma_0*sigma_2 = -4/45
    assert abs(e.argmin_x) == 1.0
    assert e.min_value == pytest.approx(-4 / 45, rel=1e-12)


def test_scaled_scan_rapid_growth_counterexample():
    fam = chebyshev_t()  # already normalized at 1
    rep = scaled_scan(fam, lambda n: F(2) ** (n * n), 5, grid_points=41)
    assert not rep.all_nonnegative
    assert rep.entry(1).min_value == pytest.approx(-12.0)


def test_scaled_scan_requires_normalized_family():
    with pytest.raises(ParamError, match="normalize"):
        scaled_scan(pollaczek(1, 1), lambda n: 1, 5)


def test_scaled_scan_rejects_nonpositive_sigma():
    with pytest.raises(ParamError):
        scaled_scan(chebyshev_t(), lambda n: n, 4)  # sigma_0 = 0


def test_turan_det_requires_positive_degree():
    with pytest.raises(ParamError):
        turan_det(legendre(), 0, 0.5)


def test_report_csv_and_json():
    rep = grid_scan(chebyshev_t(), 3, grid_points=25)
    rows = list(rep.csv_rows())
    assert rows[0] == ["n", "x_min", "delta_min", "nonnegative"]
    assert len(rows) == 4
    js = rep.to_json()
    assert js["n_range"] == [1, 3]
    assert js["grid"] == {"kind": "uniform+chebyshev", "points": 50}
    assert all(set(e) == {"n", "min_value", "argmin_x", "nonnegative"}
               for e in js["per_n"])


def test_tolerance_is_relative_to_scale():
    # tolerance 0 still accepts exact zeros at the endpoints
    rep = grid_scan(chebyshev_t(), 4, grid_points=25, tolerance=0.0)
    assert rep.tolerance == 0.0
    assert rep.all_nonnegative


def test_confirmation_band_upgrades_tiny_float_noise():
    """Float noise of order -1e-15 near the endpoint minima must be confirmed
    nonnegative by the high-precision re-evaluation rather than tolerated."""
    fam = legendre()
    rep = grid_scan(fam, 40, grid_points=201, tolerance=1e-12)
    assert rep.all_nonnegative
    worst = min(e.min_value for e in rep.per_n)
    assert worst >= -1e-13  # raw float minima stay tiny for Legendre


def test_confirmed_negatives_are_not_forgiven():
    """The confirmed sign decides: from n = 707 on, the exact scaled value at
    x = -1, -4/((2n+1)^2 (2n-1)(2n+3)), lies above -1e-12 and a tolerance
    applied to the confirmed value would call it nonnegative."""
    rep = scaled_scan(legendre(), lambda n: F(1, 2 * n + 1), 800)
    assert [e.n for e in rep.per_n if e.nonnegative] == []
    e = rep.entry(800)
    assert abs(e.argmin_x) == 1.0
    assert -1e-12 < e.min_value < 0


@pytest.mark.parametrize("family, n_max", [
    (lambda: float_view(legendre()), 300),
    (lambda: table_family([0, 0.3, 0.4, 0.45], [1.0, 0.7, 0.6, 0.55]), 3),
], ids=["float_view-Legendre", "float-Table"])
def test_double_coefficients_keep_the_tolerance_on_confirmed_minima(family, n_max):
    """Delta_n(-1) = 0 for the exact family; rounding the coefficients to
    doubles moves it by about an ulp either way, and confirming that value at
    50 digits does not make its sign meaningful."""
    rep = grid_scan(family(), n_max)
    assert rep.all_nonnegative
    assert any(abs(e.argmin_x) == 1.0 for e in rep.per_n)


def test_scan_rejects_confirm_dps_within_guard_digits():
    with pytest.raises(ParamError, match="confirm_dps"):
        grid_scan(legendre(), 10, confirm_dps=10)
    assert grid_scan(legendre(), 10, confirm_dps=11).all_nonnegative


@pytest.mark.parametrize("scan", [
    lambda: grid_scan(legendre(), 2000, grid_points=1001),
    lambda: scaled_scan(legendre(), lambda n: 2 * n + 1, 2000, grid_points=1001),
], ids=["grid_scan", "scaled_scan"])
def test_scan_memory_stays_flat_in_n_max(scan):
    # a table of every row would take 2002 rows x 2002 abscissas x 8 B = 32 MB
    tracemalloc.start()
    try:
        rep = scan()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_range == (1, 2000) and rep.grid.points == 2002
    assert peak < 8e6
