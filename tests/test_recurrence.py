import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from turandet import (
    CoefficientFamily,
    NormalizedFamily,
    ParamError,
    NonpositiveRatio,
    TableRangeError,
    ScalingSequence,
    associated_family,
    chebyshev_t,
    chebyshev_u,
    coefficients,
    eval_polys,
    example3,
    float_view,
    gegenbauer,
    legendre,
    normalize,
    orthonormal_offdiag,
    pollaczek,
    ratio_sandwich,
    ratios_at_one,
    scaled_polys,
    table_family,
)
from turandet.arith import EXTENDED_DPS


def test_chebyshev_t_values_at_zero():
    # raw T_n(0) cycles 1, 0, -1, 0
    vals = eval_polys(chebyshev_t(), 8, F(0))
    assert vals == [1, 0, -1, 0, 1, 0, -1, 0, 1]


def test_chebyshev_t_against_numpy():
    fam = float_view(chebyshev_t())
    for x in np.linspace(-1, 1, 41):
        vals = eval_polys(fam, 30, float(x))
        for n in (1, 7, 15, 30):
            ref = np.polynomial.chebyshev.chebval(x, [0] * n + [1])
            assert vals[n] == pytest.approx(ref, abs=1e-12)


def test_legendre_against_numpy():
    # the Legendre family is already normalized at 1, so raw values are P_n
    fam = legendre()
    for x in np.linspace(-1, 1, 21):
        vals = eval_polys(fam, 40, float(x))
        for n in (2, 11, 25, 40):
            ref = np.polynomial.legendre.legval(x, [0] * n + [1])
            assert vals[n] == pytest.approx(ref, rel=1e-11, abs=1e-12)


def test_chebyshev_u_closed_form():
    """Normalized U at x = cos t is sin((n+1)t) / ((n+1) sin t)."""
    fam = chebyshev_u()
    for t in (0.3, 1.1, 2.0):
        x = math.cos(t)
        vals = eval_polys(fam, 25, x)
        for n in range(1, 26):
            ref = math.sin((n + 1) * t) / ((n + 1) * math.sin(t))
            assert vals[n] == pytest.approx(ref, abs=1e-12)


def test_alpha0_convention_enforced():
    with pytest.raises(ParamError):
        CoefficientFamily(name="bad", alpha=lambda n: F(1, 4), gamma=lambda n: F(1, 2))
    with pytest.raises(ParamError):
        CoefficientFamily(name="bad", alpha=lambda n: 0, gamma=lambda n: 0)


def test_example3_ratios_exact():
    rs = ratios_at_one(example3(1), 3)
    assert rs.values[:2] == (F(4, 3), F(39, 32))
    assert rs.exact
    # p_n(1) is the running product of the g_k
    assert rs.poly_at_one(2) == F(4, 3) * F(39, 32)


def test_poly_at_one_matches_eval():
    fam = example3(2)
    rs = ratios_at_one(fam, 6)
    vals = eval_polys(fam, 6, F(1))
    for n in range(7):
        assert rs.poly_at_one(n) == vals[n]


def test_nonpositive_ratio_detected():
    fam = table_family([0, F(3, 5), F(1, 2)], [2, 1, 1])
    with pytest.raises(NonpositiveRatio) as exc:
        ratios_at_one(fam, 2)
    assert exc.value.n == 1


def test_normalize_example3_tilde_values():
    nf = normalize(example3(1), 8)
    assert nf.alpha_tilde(1) == F(3, 16)
    assert nf.gamma_tilde(1) == F(13, 16)
    for n in range(1, 8):
        assert nf.alpha_tilde(n) + nf.gamma_tilde(n) == 1
    assert nf.alpha_tilde(0) == 0


def test_normalized_family_ends_with_its_ratios():
    nf = normalize(example3(1), 5)  # g_0..g_4
    assert nf.alpha_tilde(4) + nf.gamma_tilde(4) == 1 and nf.alpha_tilde(5) > 0
    with pytest.raises(TableRangeError):
        nf.gamma_tilde(5)
    with pytest.raises(TableRangeError):
        nf.alpha_tilde(6)
    with pytest.raises(TableRangeError):
        coefficients(nf, 5)


def test_normalize_is_idempotent():
    nf = normalize(example3(1), 5)
    assert normalize(nf, 5) is nf


def test_normalized_polys_are_one_at_one():
    fam = example3(F(1, 2))
    nf = normalize(fam, 12)
    vals = eval_polys(nf, 12, F(1))
    assert all(v == 1 for v in vals)


def test_float_view():
    fam = float_view(example3(1))
    assert not fam.exact
    assert isinstance(fam.gamma(0), float)
    assert fam.gamma(0) == 0.75


def test_associated_order_zero_is_copy():
    fam = example3(1)
    assoc = associated_family(fam, 0)
    a1, g1 = coefficients(fam, 6)
    a2, g2 = coefficients(assoc, 6)
    assert a1 == a2 and g1 == g2


def test_associated_chebyshev_t_gives_u():
    # shifting T's recurrence by one yields the classical U polynomials
    assoc = associated_family(chebyshev_t(), 1)
    vals = eval_polys(assoc, 5, F(1, 2))
    assert vals == [1, 1, 0, -1, -1, 0]


def test_associated_rejects_negative_shift():
    with pytest.raises(ParamError):
        associated_family(chebyshev_t(), -1)


def test_orthonormal_offdiag_legendre():
    a = orthonormal_offdiag(legendre(), 6)
    for k in range(1, 7):
        assert a[k - 1] == pytest.approx(k / math.sqrt(4 * k * k - 1), rel=1e-15)


def test_orthonormal_offdiag_rejects_bad_radicand():
    fam = CoefficientFamily(name="neg", alpha=lambda n: 0 if n == 0 else F(-1, 4),
                            gamma=lambda n: F(1, 2))
    with pytest.raises(ParamError):
        orthonormal_offdiag(fam, 2)


def test_sandwich_example3():
    rows = ratio_sandwich(example3(1), 5)
    assert rows[0].g == F(4, 3)
    assert rows[0].upper == F(9, 4)
    assert all(r.lower_ok and r.upper_ok and r.gamma_step_decreasing for r in rows)


def test_sandwich_flat_gamma_has_infinite_upper():
    rows = ratio_sandwich(chebyshev_t(), 4)
    assert not rows[1].gamma_step_decreasing
    assert rows[1].upper == math.inf
    assert rows[1].upper_ok


def test_eval_polys_mpmath_path():
    fam = legendre()
    vals = eval_polys(fam, 20, F(1, 3), dps=40)
    assert isinstance(vals[20], mpmath.mpf)
    exact = eval_polys(fam, 20, F(1, 3))
    with mpmath.workdps(40):
        assert abs(vals[20] - mpmath.mpf(exact[20].numerator) / exact[20].denominator) < mpmath.mpf(10) ** -30


def test_digit_cap_falls_back_to_mpf():
    fam = example3(1)
    vals = eval_polys(fam, 30, F(1, 3), digit_cap=25)
    assert any(isinstance(v, mpmath.mpf) for v in vals)
    exact = eval_polys(fam, 30, F(1, 3))
    last = vals[30]
    ref = float(exact[30])
    assert float(last) == pytest.approx(ref, rel=1e-20, abs=1e-25)


def test_float_and_exact_paths_agree():
    fam = example3(3)
    for x in (-0.87, -0.25, 0.0, 0.31, 0.99):
        fv = eval_polys(fam, 60, x)
        ev = eval_polys(fam, 60, F(x))  # F(float) is exact binary expansion
        for n in range(61):
            scale = max(1.0, abs(float(ev[n])))
            assert abs(fv[n] - float(ev[n])) <= 1e-12 * scale


def test_table_range_error_past_end():
    fam = table_family([0, F(1, 4)], [F(3, 4), F(1, 2)])
    with pytest.raises(TableRangeError):
        eval_polys(fam, 4, F(1, 2))


def test_scaling_sequence_log_concavity():
    assert ScalingSequence(lambda n: 2 * n + 1).log_concave_up_to(50)
    assert not ScalingSequence(lambda n: F(1, 2 * n + 1)).log_concave_up_to(50)
    # geometric sequences sit exactly on the boundary
    assert ScalingSequence(lambda n: F(1, 2 ** n)).log_concave_up_to(30)


def test_scaling_sequence_from_values():
    s = ScalingSequence.from_values([1, 3, 5])
    assert s(1) == 3
    with pytest.raises(TableRangeError):
        s(3)
    with pytest.raises(ParamError):
        ScalingSequence.from_values([1, 0, 2]).log_concave_up_to(1)


def test_scaled_polys_match_manual_product():
    fam = legendre()
    vals = scaled_polys(fam, lambda n: 2 * n + 1, 10, F(1, 2))
    plain = eval_polys(fam, 10, F(1, 2))
    assert vals == [(2 * n + 1) * plain[n] for n in range(11)]


def test_normalized_family_exposes_base_name():
    nf = normalize(pollaczek(1, 1), 5)
    assert nf.name.startswith("Pollaczek")
    assert nf.exact


def test_gegenbauer_half_is_legendre():
    g = gegenbauer(F(1, 2))
    leg = legendre()
    ag, gg = coefficients(g, 15)
    al, gl = coefficients(leg, 15)
    assert ag == al and gg == gl


def test_normalized_coefficients_keep_extended_precision_after_fallback():
    rs = ratios_at_one(example3(1), 120, digit_cap=60)
    assert not rs.exact
    nf = NormalizedFamily(example3(1), rs)
    for n in range(1, 120):
        a, g = nf.alpha_tilde(n), nf.gamma_tilde(n)  # outside any workdps
        with mpmath.workdps(EXTENDED_DPS):
            assert abs(a + g - 1) < mpmath.mpf("1e-45")
