import math
import re
from decimal import Decimal
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import fraction_reference as ref
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
    criterion_reports,
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
    turan_det,
)
from turandet import recurrence
from turandet.arith import DEFAULT_DIGIT_CAP, EXTENDED_DPS, exact_value, exceeds_digit_cap
from turandet.recurrence import _dets, _rows, _table


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


def test_poly_at_one_keeps_the_precision_of_a_fallback():
    """Past a digit-cap fallback the ratios carry EXTENDED_DPS digits, and so
    does their product: in the default decimal context it would keep 28."""
    with mock.patch.object(recurrence, "DEFAULT_DIGIT_CAP", 60):
        got = ratios_at_one(example3(1), 120).poly_at_one(120)
    exact = ratios_at_one(example3(1), 120).poly_at_one(120)
    assert isinstance(got, Decimal) and type(exact) is F
    assert len(got.as_tuple().digits) == EXTENDED_DPS
    assert abs(exact_value(got) - exact) <= exact / 10**45


def test_every_exact_pass_reads_the_one_digit_cap_when_it_runs(monkeypatch):
    """With the cap patched to 60 digits, every exact pass over Example3(1)
    at 120 leaves exact arithmetic, and each ratio pass falls back after the
    same g_k, the first past 60 digits, where the reference pass does."""
    fam = example3(1)
    monkeypatch.setattr(recurrence, "DEFAULT_DIGIT_CAP", 60)
    fall_back, lengths = recurrence._ExactRatios.fall_back, []

    def recording_fall_back(self):
        lengths.append(len(self.values))
        return fall_back(self)

    monkeypatch.setattr(recurrence._ExactRatios, "fall_back", recording_fall_back)
    ratios = ratios_at_one(fam, 120)
    assert not ratios.exact
    assert not normalize(fam, 120).exact
    _, ga = recurrence._normalized_coefficients(fam, 119)
    assert isinstance(ga[-1], Decimal)
    assert [row.g for row in ratio_sandwich(fam, 120)] == list(ratios.values)
    assert isinstance(eval_polys(fam, 120, F(2, 7))[-1], Decimal)
    _, fallback, (k, _, _) = ref.ratio_pass(fam, 120, 60, keep_tail=True)
    assert fallback and lengths == [k] * 4


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
    """The k = 0 copy keeps the name and meta; it is built from the family's
    attributes, so a NormalizedFamily, which is no dataclass, has one too."""
    for fam in (example3(1), normalize(legendre(), 10)):
        assoc = associated_family(fam, 0)
        assert (assoc.name, assoc.meta, assoc.exact) == (fam.name, fam.meta, True)
        assert coefficients(assoc, 9) == coefficients(fam, 9)


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


def test_eval_polys_decimal_path():
    fam = legendre()
    vals = eval_polys(fam, 20, F(1, 3), dps=40)
    assert isinstance(vals[20], Decimal)
    exact = eval_polys(fam, 20, F(1, 3))
    assert abs(F(vals[20]) - exact[20]) < F(1, 10**30)
    # a dps that is not an int >= 1 is named, by its callers too
    for bad in (0, -3, 2.5, "40", True):
        message = rf"dps must be an int >= 1 \(got {bad!r}\)"
        for call in (lambda: eval_polys(fam, 3, F(1, 3), dps=bad),
                     lambda: turan_det(fam, 2, F(1, 3), dps=bad),
                     lambda: scaled_polys(fam, lambda n: 1, 3, F(1, 3), dps=bad)):
            with pytest.raises(ParamError, match=message):
                call()
    # and so is a count of another type: a double, a bool or a string
    for bad in (5.0, True, "5"):
        for name, least, call in (("n_max", 0, lambda: eval_polys(fam, bad, 0.5)),
                                  ("N", 1, lambda: ratios_at_one(fam, bad)),
                                  ("N", 1, lambda: ratio_sandwich(fam, bad)),
                                  ("N", 1, lambda: orthonormal_offdiag(fam, bad))):
            with pytest.raises(ParamError, match=rf"{name} must be an int >= {least} "
                                                 rf"\(got {re.escape(repr(bad))}\)"):
                call()
    # while numpy's integers are read as ints
    assert eval_polys(fam, np.int64(2), F(1, 3)) == eval_polys(fam, 2, F(1, 3))
    assert ratios_at_one(fam, np.int64(3)) == ratios_at_one(fam, 3)
    # so is an abscissa that is not finite
    for bad in (math.nan, math.inf, -math.inf, Decimal("NaN"), Decimal("-Infinity")):
        message = rf"x must be a finite number \(got {re.escape(repr(bad))}\)"
        for call in (lambda: eval_polys(fam, 3, bad),
                     lambda: turan_det(fam, 2, bad),
                     lambda: scaled_polys(fam, lambda n: 1, 3, bad, dps=30)):
            with pytest.raises(ParamError, match=message):
                call()


def test_digit_cap_falls_back_to_decimal():
    fam = example3(1)
    with mock.patch.object(recurrence, "DEFAULT_DIGIT_CAP", 25):
        vals = eval_polys(fam, 30, F(1, 3))
    assert any(isinstance(v, Decimal) for v in vals)
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
    with mock.patch.object(recurrence, "DEFAULT_DIGIT_CAP", 60):
        rs = ratios_at_one(example3(1), 120)
    assert not rs.exact
    nf = NormalizedFamily(example3(1), rs)
    for n in range(1, 120):
        a, g = nf.alpha_tilde(n), nf.gamma_tilde(n)  # in the default 28-digit context
        assert abs(F(a) + F(g) - 1) < F(1, 10**45)


def test_rows_equal_an_out_of_place_reference():
    """Rows finished in place equal the out-of-place recurrence, and the
    list of all yielded rows shows that none was touched after its yield."""
    fam = pollaczek(2, 1)
    al, ga = coefficients(fam, 60)
    al, ga = [float(v) for v in al], [float(v) for v in ga]
    xs = np.linspace(-0.97, 0.97, 41)
    expected = [1.0, xs / ga[0]]
    for n in range(1, 60):
        expected.append((xs * expected[n] - al[n] * expected[n - 1]) / ga[n])
    rows = list(_rows(al, ga, xs, 60, 1.0))
    assert rows[0] == 1.0 and len(rows) == len(expected)
    for row, ref in zip(rows[1:], expected[1:]):
        assert np.array_equal(row, ref)


def test_zero_gamma_is_a_param_error():
    """A gamma_n = 0 stops the ratios g_n with a ParamError naming n, not a
    ZeroDivisionError, in every caller."""
    half = F(1, 2)
    fam = CoefficientFamily(name="zero", alpha=_table([0, half, half, half]),
                            gamma=_table([1, 0, half, half]))
    for call in (lambda: ratios_at_one(fam, 3), lambda: normalize(fam, 3),
                 lambda: ratio_sandwich(fam, 3), lambda: criterion_reports(fam, 2)):
        with pytest.raises(ParamError, match=r"gamma_1 must be nonzero"):
            call()


def _same_number(u, v) -> bool:
    """u and v are the same value of the same type; Decimals digit for digit."""
    if type(u) is not type(v):
        return False
    return u.as_tuple() == v.as_tuple() if isinstance(u, Decimal) else u == v


# N per digit cap: far enough past the fallback for a tail of Decimal indices
TAIL_N = {60: 150, 200: 400, 4096: 1600}


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["Example3", "Pollaczek"]),
       p=st.fractions(min_value=F(1, 8), max_value=6, max_denominator=12),
       q=st.fractions(min_value=F(1, 8), max_value=6, max_denominator=12),
       cap=st.sampled_from(sorted(TAIL_N)))
def test_kept_tail_equals_the_per_index_formula(kind, p, q, cap):
    """Past the fallback, the alpha_tilde/gamma_tilde that normalize forms on
    read equal, digit for digit, the tail that the reference ratio pass forms
    in the pass."""
    fam = example3(p) if kind == "Example3" else pollaczek(p, q)
    N = TAIL_N[cap]
    with mock.patch.object(recurrence, "DEFAULT_DIGIT_CAP", cap):
        try:
            normalized = normalize(fam, N)
        except NonpositiveRatio:
            reject()
    _, fallback, (k, al_tail, ga_tail) = ref.ratio_pass(fam, N, cap, keep_tail=True)
    # the tail starts after the first g_n past the cap
    g, last = F(1) / fam.gamma(0), N - 1
    for n in range(N):
        if n:
            g = (1 - fam.alpha(n) / g) / fam.gamma(n)
        if exceeds_digit_cap(g, cap):
            last = n
            break
    assert normalized.exact is not fallback
    assert k == last + 1 and len(al_tail) == len(ga_tail) == N - k
    for n in range(k, N):
        assert _same_number(normalized.alpha(n), al_tail[n - k])
        assert _same_number(normalized.gamma(n), ga_tail[n - k])


def test_tail_starts_after_the_fallback_index():
    """Example3(1/3) falls back at g_989: alpha_tilde_990.. and
    gamma_tilde_990.. equal the reference pass's tail digit for digit, and
    earlier ratios keep their exact values."""
    fam = normalize(example3(F(1, 3)), 1201)
    _, fallback, (k, al_tail, ga_tail) = ref.ratio_pass(example3(F(1, 3)), 1201,
                                                        DEFAULT_DIGIT_CAP, keep_tail=True)
    assert fallback and k == 990 and len(al_tail) == len(ga_tail) == 1201 - 990
    assert type(normalize(example3(F(1, 3)), 989).ratio(988)) is F
    assert all(_same_number(fam.alpha(n), al_tail[n - k]) for n in range(k, 1201))
    assert all(_same_number(fam.gamma(n), ga_tail[n - k]) for n in range(k, 1201))
    assert isinstance(fam.alpha(989), Decimal)  # alpha_989/g_988, g_988 made a Decimal


def test_int_coefficients_keep_the_ratios_exact():
    """An int gamma_0 made 1/gamma_0, and so every later ratio, a double."""
    quarter, three_quarters = F(1, 4), F(3, 4)
    fam = CoefficientFamily("mixed", _table([0, quarter, quarter, quarter]),
                            _table([1, three_quarters, three_quarters, three_quarters]))
    seq = ratios_at_one(fam, 3)
    assert seq.exact
    assert seq.values == (1, 1, 1) and all(type(g) is F for g in seq.values)
    nf = normalize(fam, 3)
    assert [nf.alpha(n) for n in range(4)] == [0, quarter, quarter, quarter]
    assert all(type(nf.alpha(n)) is F for n in range(1, 4))


def test_dets_equal_an_out_of_place_reference():
    """Delta_n finished in place equals p_n*p_n - p_{n-1}*p_{n+1}, and leaves
    the rows it reads untouched."""
    al, ga = coefficients(pollaczek(2, 1), 60)
    al, ga = [float(v) for v in al], [float(v) for v in ga]
    xs = np.linspace(-1.0, 1.0, 41)
    rows = list(_rows(al, ga, xs, 60, 1.0))
    copies = [np.copy(r) for r in rows]
    dets = list(_dets(rows))
    assert [n for n, _ in dets] == list(range(1, 60))
    for n, D in dets:
        assert np.array_equal(D, rows[n] * rows[n] - rows[n - 1] * rows[n + 1])
    assert all(np.array_equal(r, c) for r, c in zip(rows, copies))
    some = dict(_dets(rows, {3, 17}))
    assert some.keys() == {3, 17} and np.array_equal(some[17], dict(dets)[17])
