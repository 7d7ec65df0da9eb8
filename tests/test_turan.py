import collections
import dataclasses
import math
import re
import struct
import tracemalloc
from decimal import Context, Decimal, localcontext
from fractions import Fraction as F

import mpmath_reference
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from turandet import (
    CoefficientFamily,
    ParamError,
    chebyshev_t,
    chebyshev_u,
    example3,
    example4,
    float_view,
    gegenbauer,
    grid_scan,
    legendre,
    normalize,
    pollaczek,
    scaled_scan,
    scan_grid,
    table_family,
    turan,
    turan_det,
)
from turandet.arith import EXTENDED, EXTENDED_DPS, exact_value, number_text, to_decimal
from turandet.recurrence import _dets, _normalized_coefficients, _table
from turandet.turan import CONFIRM_GUARD_DIGITS


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
    assert np.array_equal(xs, -xs[::-1])
    with pytest.raises(ParamError):
        scan_grid(2)


def test_grid_counts_of_the_wrong_type_name_the_parameter():
    """A count that is not an integer, a bool included, is a ParamError
    naming ``points``; an integer of another type is read as an int; too
    few points keep their own message, which ``scan --grid 0`` prints."""
    for bad in (5.0, "5", np.float64(5), None, True, False):
        message = rf"^points must be an int >= 3 \(got {re.escape(repr(bad))}\)$"
        with pytest.raises(ParamError, match=message):
            scan_grid(bad)
        with pytest.raises(ParamError, match=message):
            grid_scan(legendre(), 3, grid_points=bad)
    for few in (2, -1, 2.0, 0):
        with pytest.raises(ParamError, match="grid needs at least 3 points"):
            scan_grid(few)
    assert np.array_equal(scan_grid(np.int64(25)), scan_grid(25))
    report = grid_scan(legendre(), 3, grid_points=25)
    assert grid_scan(legendre(), 3, grid_points=np.int64(25)) == report


@pytest.mark.parametrize("scan", [
    lambda: grid_scan(pollaczek(F(3, 2), 1), 400, grid_points=301),
    lambda: grid_scan(example3(2), 300),
    lambda: scaled_scan(legendre(), lambda n: 2 * n + 1, 200),
    lambda: scaled_scan(legendre(), lambda n: F(1, 2 * n + 1), 200),
])
def test_scan_over_one_abscissa_per_abs_value_equals_the_full_grid(monkeypatch, scan):
    """The scan sweeps the distinct nonpositive abscissas of its mirrored
    grid. Sweeping every grid abscissa instead gives the same minima, first
    argmins and scales, so the same confirmations and verdicts."""
    build, rows, min_and_scale = turan.scan_grid, turan._rows, turan._min_and_scale
    grids, scales = [], {"half": [], "full": []}

    def recording_grid(points):
        grids.append(build(points))
        return grids[-1]

    def recording_scale(key):
        def record(D):
            i, m, scale = min_and_scale(D)
            scales[key] += scale
            if key == "full":
                # the swept index of each first argmin's abscissa; one past
                # the nonpositive half has none, and the scan fails
                grid = grids[-1]
                i = np.searchsorted(np.unique(grid[grid <= 0]), grid[i]).tolist()
            return i, m, scale
        return record

    monkeypatch.setattr(turan, "scan_grid", recording_grid)
    monkeypatch.setattr(turan, "_min_and_scale", recording_scale("half"))
    half = scan()
    monkeypatch.setattr(turan, "_min_and_scale", recording_scale("full"))
    # the float sweep over every abscissa of the grid; the confirmation's
    # Decimal sweeps stay as they are
    monkeypatch.setattr(turan, "_rows", lambda al, ga, x, *args: rows(
        al, ga, grids[-1] if isinstance(x, np.ndarray) else x, *args))
    assert scan() == half
    assert len(scales["half"]) == half.n_range[1] and scales["full"] == scales["half"]


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
    """Bit-for-bit: the tabulated minimum equals the scalar evaluation there,
    for exact and double coefficients, and around the digit-cap fallback of
    Example3(1/3) at g_989, where the normalized coefficients become Decimals."""
    for fam, n_max, degrees in (
            (legendre(), 10, None), (pollaczek(2, 1), 200, None),
            (float_view(example4(3, F(1, 2))), 300, None),
            (example3(F(1, 3)), 1200, (1, 2, 500, 988, 989, 990, 1200))):
        rep = grid_scan(fam, n_max, grid_points=51)
        for n in degrees or range(1, n_max + 1):
            e = rep.entry(n)
            assert e.min_value == turan_det(fam, n, e.argmin_x), (fam.name, n)
    # past the fallback the normalized coefficients are not exact, so an exact
    # abscissa is evaluated on their doubles, as on the NormalizedFamily view
    value = turan_det(fam, 1000, F(1, 2))
    assert type(value) is float and value == turan_det(normalize(fam, 1001), 1000, F(1, 2))


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


def test_scaled_scan_of_a_view_past_its_digit_cap_fallback():
    """Past the fallback at g_989 the view's alpha_tilde_0 is the Fraction 0
    and its gamma_tilde_0 a Decimal, whose sum is checked to 1e-12; with
    sigma_n = 1 the scan is grid_scan's, entry for entry."""
    report = scaled_scan(normalize(example3(F(1, 3)), 1201), lambda n: 1, 1200)
    assert report.per_n == grid_scan(example3(F(1, 3)), 1200).per_n


def test_scaled_scan_rejects_nonpositive_sigma():
    with pytest.raises(ParamError):
        scaled_scan(chebyshev_t(), lambda n: n, 4)  # sigma_0 = 0


def test_turan_det_reads_each_coefficient_once():
    reads = collections.Counter()
    fam = pollaczek(2, 1)

    def counted(kind, fn):
        def at(n):
            reads[kind, n] += 1
            return fn(n)
        return at

    fam = dataclasses.replace(fam, alpha=counted("alpha", fam.alpha),
                              gamma=counted("gamma", fam.gamma))
    reads.clear()  # the construction checks alpha_0 and gamma_0
    value = turan_det(fam, 10, F(1, 2))
    assert value == turan_det(pollaczek(2, 1), 10, F(1, 2))
    assert set(reads) == {(kind, n) for kind in ("alpha", "gamma") for n in range(11)}
    assert max(reads.values()) == 1


def test_scaled_scan_evaluates_each_sigma_once():
    calls = collections.Counter()

    def sigma(n):
        calls[n] += 1
        return 2 * n + 1

    rep = scaled_scan(legendre(), sigma, 50, grid_points=101)
    assert rep.sigma_log_concave is True
    assert set(calls) == set(range(52))
    assert max(calls.values()) == 1


def test_turan_det_requires_positive_degree():
    with pytest.raises(ParamError):
        turan_det(legendre(), 0, 0.5)
    # and so do the scans, which take no bool or double for a degree
    for bad in (0, True, 5.0, np.float64(3)):
        for call in (lambda: grid_scan(legendre(), bad),
                     lambda: scaled_scan(legendre(), lambda n: 1, bad)):
            message = rf"n_max must be an int >= 1 \(got {re.escape(repr(bad))}\)"
            with pytest.raises(ParamError, match=message):
                call()
    # an integer of another type is read as an int, which the report echoes
    rep = grid_scan(legendre(), np.int64(3), grid_points=25)
    assert rep.n_range == (1, 3) and all(type(n) is int for n in rep.n_range)


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


def test_exact_end_zeros_are_nonnegative():
    # Delta_n(+-1) = 0 exactly after the normalization, with no margin
    rep = grid_scan(chebyshev_t(), 4, grid_points=25)
    assert all(abs(e.argmin_x) == 1.0 and e.min_value == 0.0 for e in rep.per_n)
    assert rep.all_nonnegative


def test_confirmation_band_upgrades_tiny_float_noise():
    """Float noise of order -1e-15 near the endpoint minima must be confirmed
    nonnegative by the high-precision re-evaluation rather than tolerated."""
    fam = legendre()
    rep = grid_scan(fam, 40, grid_points=201)
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


def test_confirmed_negatives_of_a_double_sigma_are_not_forgiven():
    """The same scaling by the doubles nearest 1/(2n+1): the confirmation
    reads each as the exact value it holds, which moves the scaled value at
    x = -1 by about 1e-16 of it, far less than its gap to 0, so the
    confirmed sign decides here too and no tolerance forgives it."""
    rep = scaled_scan(legendre(), lambda n: 1.0 / (2 * n + 1), 800)
    assert [e.n for e in rep.per_n if e.nonnegative] == []
    e = rep.entry(800)
    assert e.argmin_x == -1.0
    assert -1e-12 < e.min_value < 0


def test_verdicts_do_not_depend_on_the_scale_of_sigma():
    """Scaling sigma by a constant c scales every scaled Delta_n by c^2 and
    keeps its sign, so sigma_n = c/(2n+1) gets the verdicts of c = 1 at
    c = 10^-30 and 10^30: every degree negative. A bound floored at an
    absolute 10^-40 called every degree nonnegative at c = 10^-30, where
    the scaled values are about 10^-60 times smaller."""
    verdicts = [[e.nonnegative for e in scaled_scan(
        legendre(), lambda n, c=c: c / (2 * n + 1), 200).per_n]
        for c in (F(1), F(1, 10**30), F(10**30))]
    assert verdicts[0] == verdicts[1] == verdicts[2] == [False] * 200


@pytest.mark.parametrize("sigma, n_max, n", [
    (lambda n: 10**400, 5, 0),
    (lambda n: F(2) ** (n * n), 40, 32),
    (lambda n: F(1, 10**400), 5, 0),
    (lambda n: Decimal("1e-400"), 5, 0),
], ids=["int-past-the-doubles", "2^(n^2)", "double-is-zero", "Decimal-double-is-zero"])
def test_a_sigma_outside_the_doubles_is_a_param_error(sigma, n_max, n):
    """The float rows scale by the double of each sigma_n: one that
    overflows, or that is 0.0, is refused with the value it came from."""
    with pytest.raises(ParamError) as exc:
        scaled_scan(legendre(), sigma, n_max)
    assert str(exc.value) == (f"sigma_{n} = {number_text(sigma(n))} has no positive "
                              "finite double; rescale sigma")


@pytest.mark.parametrize("family, n_max", [
    (lambda: float_view(legendre()), 300),
    (lambda: table_family([0, 0.3, 0.4, 0.45], [1.0, 0.7, 0.6, 0.55]), 3),
], ids=["float_view-Legendre", "float-Table"])
def test_double_coefficients_are_normalized_on_their_exact_values(monkeypatch, family, n_max):
    """grid_scan normalizes the exact values of the doubles, so
    Delta_n(+-1) = 0 holds for them as for an exact family: the scan is
    nonnegative with no margin, its minima at x = +-1 are confirmed as 0
    without a decimal sweep, and no sweep runs at all."""
    calls = []
    monkeypatch.setattr(turan, "_confirm", lambda *args: calls.append(args) or {})
    rep = grid_scan(family(), n_max)
    assert rep.all_nonnegative and calls == []
    assert any(abs(e.argmin_x) == 1.0 for e in rep.per_n)


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


# Scans whose confirmation passes run. Legendre's minima sit at x = -1, where
# Delta_n is exactly 0, so grid_scan confirms them as 0 and the test sweeps
# x = -1 itself; Example3(1/3) passes its digit-cap fallback at g_989, so its
# later coefficients are Decimals; the float table and Legendre's float view
# are normalized on the exact values of their doubles, so the same holds for
# them; every degree of the 1/(2n+1) scaling is a confirmed negative.
CONFIRMED_SCANS = {
    "Legendre": lambda: grid_scan(legendre(), 300),
    "Example3(1/3)-past-fallback": lambda: grid_scan(example3(F(1, 3)), 1200),
    "float-Table": lambda: grid_scan(
        table_family([0, 0.3, 0.4, 0.45], [1.0, 0.7, 0.6, 0.55]), 3),
    "float_view-Legendre": lambda: grid_scan(float_view(legendre()), 300),
    "sigma-1/(2n+1)": lambda: scaled_scan(legendre(), lambda n: F(1, 2 * n + 1), 300),
}
# the scans that grid_scan normalizes, every one on exact values
ZERO_AT_ENDS = {"Legendre", "Example3(1/3)-past-fallback", "float-Table", "float_view-Legendre"}


@pytest.mark.parametrize("name", sorted(CONFIRMED_SCANS))
def test_decimal_confirmation_agrees_with_mpmath(monkeypatch, name):
    """The decimal confirmation gives the mpmath reference's verdicts, and
    each confirmed value lies within a thousandth of the rounding bound
    scale_n*10**(CONFIRM_GUARD_DIGITS - EXTENDED_DPS) of the reference
    value, and within a thousandth of the bound on its own terms,
    terms_n*10**(CONFIRM_GUARD_DIGITS - EXTENDED_DPS); so do the terms.
    The near-zero minima at x = +-1 that grid_scan confirms as 0 without a
    sweep are swept here, by a call with the scan's own coefficients."""
    calls, scans, scales = [], [], []
    confirm, scan, min_and_scale = turan._confirm, turan._scan, turan._min_and_scale

    def recording_confirm(*args):
        calls.append((args, confirm(*args)))
        return calls[-1][1]

    def recording_scan(*args, **kwargs):
        scans.append((args, kwargs))
        return scan(*args, **kwargs)

    def recording_scale(D):
        i, m, scale = min_and_scale(D)
        scales.extend(scale)
        return i, m, scale

    monkeypatch.setattr(turan, "_confirm", recording_confirm)
    monkeypatch.setattr(turan, "_scan", recording_scan)
    monkeypatch.setattr(turan, "_min_and_scale", recording_scale)
    report = CONFIRMED_SCANS[name]()
    # every near-zero minimum of these scans lies at x = -1, which the scan
    # sweeps only when it did not normalize the family from exact values
    assert len(calls) == (name not in ZERO_AT_ENDS)
    if name in ZERO_AT_ENDS:
        [(args, _)] = scans
        ends = {e.n for e in report.per_n if abs(e.argmin_x) == 1.0
                and abs(e.min_value) < turan.CONFIRM_BAND * scales[e.n - 1]}
        swept = (args[0], args[1], {-1.0: ends}, None, {})
        calls.append((swept, confirm(*swept)))
    [(args, got)] = calls
    *args, terms = args
    bound = F(10) ** (CONFIRM_GUARD_DIGITS - EXTENDED_DPS) / 1000
    want_terms = {}
    want = mpmath_reference.confirm(*args, want_terms)
    assert got and got.keys() == want.keys() == terms.keys() == want_terms.keys()
    for n, value in got.items():
        assert isinstance(value, Decimal) and isinstance(terms[n], Decimal)
        size = min(F(scales[n - 1]), F(terms[n]))
        assert abs(F(value) - mpmath_reference.exact(want[n])) <= bound * size
        assert abs(F(terms[n]) - mpmath_reference.exact(want_terms[n])) <= bound * F(terms[n])

    monkeypatch.setattr(turan, "_confirm", mpmath_reference.confirm)
    assert CONFIRMED_SCANS[name]().to_json() == report.to_json()


# (family, n_max) of scans whose minima at x = -1 grid_scan confirms as 0:
# the exact ones of CONFIRMED_SCANS and the n_max = 5000 scans of the
# benchmark's sweeps
END_SCANS = {
    "Legendre": (legendre, 300),
    "Example3(1/3)-past-fallback": (lambda: example3(F(1, 3)), 1200),
    "Example3(1/2)-5000": (lambda: example3(F(1, 2)), 5000),
    "Legendre-5000": (legendre, 5000),
    "Pollaczek(2,1)-5000": (lambda: pollaczek(2, 1), 5000),
}


@pytest.mark.parametrize("name", sorted(END_SCANS))
def test_skipped_end_confirmations_lie_within_the_rounding_bound(name):
    """Normalizing an exact family at x = 1 makes Delta_n(+-1) exactly 0, and
    grid_scan takes that as the confirmed value of its minima there. The
    decimal sweep that it skips lies within the rounding bound of 0 on its
    own terms at every degree, and within 10**(CONFIRM_GUARD_DIGITS -
    EXTENDED_DPS) of 0 too, so it would have called each of them
    nonnegative: skipping it leaves every verdict as it was."""
    family, n_max = END_SCANS[name]
    al, ga = _normalized_coefficients(family(), n_max)
    bound = F(10) ** (CONFIRM_GUARD_DIGITS - EXTENDED_DPS)
    degrees = set(range(1, n_max + 1))
    for x in (-1.0, 1.0):
        terms = {}
        confirmed = turan._confirm(al, ga, {x: degrees}, None, terms)
        assert confirmed.keys() == terms.keys() == degrees
        assert all(abs(F(v)) <= bound * min(1, F(terms[n])) for n, v in confirmed.items())
    report = grid_scan(family(), n_max)
    assert any(abs(e.argmin_x) == 1.0 for e in report.per_n)
    assert all(e.nonnegative for e in report.per_n if abs(e.argmin_x) == 1.0)


SCALE_ROWS = [
    [-math.inf, 0.0, 1.0],
    [math.inf, -3.0, 0.5],
    [-math.inf, math.inf],
    [math.nan, -5.0, 2.0],
    [-2.0, math.nan, math.inf],
    [math.nan, -math.inf],
    [math.nan],
    [3.0, -7.0],
    [-7.0, 3.0],
    [-3.0, -1.0],
    [0.1, -0.2],
    [-0.0, 0.0],
]


@pytest.mark.parametrize("row", SCALE_ROWS, ids=str)
def test_scale_equals_max_abs(row):
    """scale_n from D.max() and the minimum equals max(1, max|D|), as
    max(1.0, nan) is 1.0 for a row holding a NaN."""
    D = np.array(row)
    [i], [m], [scale] = turan._min_and_scale(D[None])
    assert i == int(np.argmin(D))
    assert m == D[i] or (math.isnan(m) and math.isnan(D[i]))
    assert scale == max(1.0, float(np.max(np.abs(D))))


def _row_rule(D) -> tuple[int, float, float]:
    """The minimum of one row of Delta_n as the scan took it one degree at a
    time: the first argmin i, D[i] and max(1, D.max(), -D[i])."""
    i = int(np.argmin(D))
    m = float(D[i])
    return i, m, max(1.0, float(D.max()), -m)


def _bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _assert_same_minima(got, rows_of_D):
    want = [_row_rule(D) for D in rows_of_D]
    i, m, scale = got
    assert i == [w[0] for w in want]
    assert _bits(m) == _bits([w[1] for w in want])
    assert _bits(scale) == _bits([w[2] for w in want])


K = turan.MINIMA_BLOCK
BLOCK_HEIGHTS = [1, K - 1, K, K + 1, 2 * K + 1]
# NaN, infinities, both zeros and a few repeated values, for ties
FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -1.0, 2.0]),
                   st.floats(width=64))


def _with_scale_rows(test):
    for row in SCALE_ROWS:
        test = example(D=np.array([row]))(test)
    return test


@settings(max_examples=60, deadline=None)
@given(D=st.tuples(st.sampled_from(BLOCK_HEIGHTS), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=FLOATS)))
@_with_scale_rows
def test_block_reduction_equals_the_per_row_rule(D):
    """A block of Delta_n rows reduces to the minima, first argmins and
    scales that each row gives alone, bit for bit."""
    _assert_same_minima(turan._min_and_scale(D), D)


@settings(max_examples=60, deadline=None)
@given(n_max=st.sampled_from(BLOCK_HEIGHTS), width=st.integers(1, 6),
       scalar_start=st.booleans(), data=st.data())
def test_blocked_minima_equal_the_per_degree_pass(n_max, width, scalar_start, data):
    """The rows stacked MINIMA_BLOCK degrees at a time give, for every n_max
    around a block boundary, the minima of Delta_n formed one degree at a
    time by ``_dets``; the stream may start with the scalar p_0 = 1.0."""
    rows = list(data.draw(arrays(np.float64, (n_max + 2, width), elements=FLOATS)))
    if scalar_start:
        rows[0] = 1.0
    with np.errstate(all="ignore"):
        got = turan._minima(iter(rows), n_max)
        _assert_same_minima(got, [D for _, D in _dets(rows)])


def test_scan_past_the_fallback_stays_within_its_memory_bound():
    """Example3(5) falls back to Decimals near g_1000; its normalized
    coefficients past there, formed by the Decimal tail, must not add to
    the scan's peak."""
    tracemalloc.start()
    try:
        rep = grid_scan(example3(5), 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_nonnegative
    assert peak <= 6.0e6


def test_decimal_inputs_keep_their_exact_values_and_signs():
    """Ints, doubles and Decimals convert exactly and Fractions round once; a
    Decimal's exact value keeps its sign, and a non-finite one is refused."""
    assert exact_value(Decimal("-0.75")) == F(-3, 4)
    for bad in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ParamError):
            exact_value(Decimal(bad))
    with localcontext() as ctx:
        ctx.prec = 30
        assert to_decimal(-0.1) == Decimal(-0.1)  # all 55 digits
        assert to_decimal(10**40 + 1) == Decimal(10**40 + 1)
        assert to_decimal(F(-2, 3)) == Decimal("-0.666666666666666666666666666667")
        third = Context(prec=50).divide(-1, 3)
        assert to_decimal(third) == third  # all 50 digits


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10**4096, max_value=10**4096),
       st.integers(min_value=1, max_value=10**4096))
@example(1, 3)
@example(2**53 + 1, 2**54)  # a tie, rounded to even
@example(10**400 + 1, 10**400)
def test_scan_doubles_of_int_pairs_are_those_of_their_fractions(p, q):
    """The scan reads an exact normalization's coprime pair (p, q) as the
    int division p/q and, for its confirmation, as p/q rounded once to
    EXTENDED: the double and the Decimal of the Fraction p/q."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    try:
        want = float(F(p, q))
    except OverflowError:
        with pytest.raises(OverflowError):
            turan._doubles([(p, q)])
    else:
        assert turan._doubles([(p, q)]) == [want]
    assert turan._extended([(p, q)]) == [to_decimal(F(p, q), EXTENDED)]


def _band_minima(monkeypatch, scan):
    """The report of ``scan()``, its scale_n per degree, and the abscissas
    and degrees of the decimal sweeps it ran."""
    scales, swept = [], {}
    confirm, min_and_scale = turan._confirm, turan._min_and_scale

    def recording_scale(D):
        i, m, scale = min_and_scale(D)
        scales.extend(scale)
        return i, m, scale

    def recording_confirm(al, ga, pending, sigma=None, terms=None):
        for x, degrees in pending.items():
            swept.setdefault(x, set()).update(degrees)
        return confirm(al, ga, pending, sigma, terms)

    monkeypatch.setattr(turan, "_min_and_scale", recording_scale)
    monkeypatch.setattr(turan, "_confirm", recording_confirm)
    return scan(), scales, swept


def test_minima_at_zero_take_the_verdict_of_their_decimal_sweep(monkeypatch):
    """A band minimum at x = 0 is confirmed as 0, without a sweep, where n
    is even or alpha_n and gamma_n do not have opposite signs; the decimal
    sweep, run here on the scan's own coefficients, gives a value >= 0 for
    each of them, and so the same verdict on the rounding bound of its own
    terms. Odd and even degrees both come up (Gegenbauer(3), Example4)."""
    families = [chebyshev_t(), legendre(), gegenbauer(3), pollaczek(2, 1),
                pollaczek(F(3, 2), 1), example3(F(1, 2)), example4(2, F(1, 2)),
                example4(3, F(1, 2))]
    bound = F(10) ** (CONFIRM_GUARD_DIGITS - EXTENDED_DPS)
    checked = collections.Counter()
    for family in families:
        report, scales, swept = _band_minima(monkeypatch, lambda: grid_scan(family, 2000))
        zeros = {e.n: e for e in report.per_n if e.argmin_x == 0.0
                 and abs(e.min_value) < turan.CONFIRM_BAND * scales[e.n - 1]}
        assert not zeros.keys() & swept.get(0.0, set())
        if not zeros:
            continue
        al, ga = _normalized_coefficients(family, 2000)
        terms = {}
        values = turan._confirm(al, ga, {0.0: set(zeros)}, None, terms)
        for n, e in zeros.items():
            assert n % 2 == 0 or turan._sign(al[n]) * turan._sign(ga[n]) >= 0
            assert values[n] >= 0 and e.nonnegative
            assert e.nonnegative is (F(values[n]) >= -bound * F(terms[n]))
            checked[n % 2] += 1
    assert checked[0] > 100 and checked[1] > 100


def test_a_minimum_below_the_band_is_decided_by_its_sign(monkeypatch):
    """sigma_n = r^(n(n-1)/2) with r = 1 + 10^-6 is log-convex, with
    sigma_{n-1}*sigma_{n+1} = r*sigma_n^2, so the scaled Delta_n(+-1) =
    (1 - r)*sigma_n^2 is about -10^-6: below the band -1e-10*scale_n, so no
    sweep runs, and well within 1e-3*scale_n, which no margin may forgive."""
    r = F(1000001, 1000000)
    report, scales, swept = _band_minima(
        monkeypatch, lambda: scaled_scan(legendre(), lambda n: r ** (n * (n - 1) // 2), 10))
    assert swept == {}
    for e in report.per_n:
        assert abs(e.argmin_x) == 1.0
        assert -1e-3 * scales[e.n - 1] < e.min_value < -turan.CONFIRM_BAND * scales[e.n - 1]
        assert not e.nonnegative


def test_a_negative_minimum_at_zero_keeps_its_sweep(monkeypatch):
    """alpha_3 = -10^-30 and gamma_3 = 1 have opposite signs, so
    Delta_3(0) = (alpha_3/gamma_3)*p_2(0)^2 = -10^-30: it is the grid
    minimum of Delta_3, far inside the tolerance and the band, and only its
    decimal sweep shows it negative."""
    alphas = [0, F(1, 2), 2, F(-1, 10**30)]
    family = CoefficientFamily("tiny-negative-alpha3", _table(alphas), _table([1, F(1, 2), 1, 1]))
    report, _, swept = _band_minima(
        monkeypatch, lambda: grid_scan(family, 3, normalized=False))
    e = report.entry(3)
    assert e.argmin_x == 0.0 and -1e-29 < e.min_value < 0
    assert 3 in swept[0.0] and not e.nonnegative
    assert [e.nonnegative for e in report.per_n] == [True, True, False]
