"""Property tests for the structural invariants behind the checkers."""
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import monotone_ratio_table
from turandet import (
    ScalingSequence,
    check_lambda_route,
    check_y_route,
    criterion_reports,
    eval_polys,
    example3,
    example4,
    float_view,
    gegenbauer,
    lambda_data,
    lambda_step_bound,
    legendre,
    pollaczek,
    scan_grid,
    table_family,
    turan_det,
    y_from_lambda,
)
from turandet.arith import decimal_context, to_decimal

unit_open = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(
    lambda q: 0 < q < 1
)
positive = st.fractions(
    min_value=Fraction(1, 50), max_value=Fraction(5), max_denominator=60
)


@st.composite
def raw_tables(draw):
    length = draw(st.integers(min_value=3, max_value=7))
    alphas = [Fraction(0)] + [
        draw(st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1, 2),
                          max_denominator=40))
        for _ in range(length - 1)
    ]
    gammas = [
        draw(st.fractions(min_value=Fraction(1, 4), max_value=Fraction(1),
                          max_denominator=40))
        for _ in range(length)
    ]
    n = draw(st.integers(min_value=1, max_value=length - 2))
    x = draw(st.fractions(min_value=-1, max_value=1, max_denominator=40))
    return table_family(alphas, gammas), n, x


@settings(max_examples=50, deadline=None)
@given(raw_tables())
def test_parity_symmetry(case):
    # alpha_0 = 0 makes every p_n even or odd, so Delta_n is even
    family, n, x = case
    p_plus = eval_polys(family, n + 1, x)
    p_minus = eval_polys(family, n + 1, -x)
    for k in range(n + 2):
        assert p_minus[k] == (-1) ** k * p_plus[k]
    assert (turan_det(family, n, -x, normalized=False)
            == turan_det(family, n, x, normalized=False))


@settings(max_examples=50, deadline=None)
@given(raw_tables())
def test_float_matches_exact_evaluation(case):
    family, n, x = case
    exact = turan_det(family, n, x, normalized=False)
    assert isinstance(exact, Fraction)
    p = eval_polys(family, n + 1, x)
    scale = max(1.0, float(p[n] * p[n]), abs(float(p[n - 1] * p[n + 1])))
    approx = turan_det(float_view(family), n, float(x), normalized=False)
    assert abs(approx - float(exact)) <= 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(lam=unit_open)
def test_step_bound_conjugates_to_unit_shift(lam):
    """y_from_lambda turns the step bound into "add one": the two routes
    decide the same inequality."""
    y = y_from_lambda(lam)
    assert y > 1
    assert (y - 1) / (y + 1) == lam
    assert lambda_step_bound(lam) == y / (y + 2)
    assert y_from_lambda(lambda_step_bound(lam)) == y + 1


@settings(max_examples=100, deadline=None)
@given(lam0=unit_open, lam1=unit_open, u0=positive, u1=positive)
def test_pair_inequality_iff_y_step(lam0, lam1, u0, u1):
    # division-free product form vs the transformed increment condition
    v0, v1 = lam0 * u0, lam1 * u1
    pair_ok = 4 * u0 * v1 <= (u0 + v0) * (u1 + v1)
    y0, y1 = y_from_lambda(lam0), y_from_lambda(lam1)
    assert pair_ok == (y1 <= y0 + 1)


@settings(max_examples=100, deadline=None)
@given(a=positive, g=positive)
def test_corollary2_window_never_empty(a, g):
    # lower <= upper reduces to 0 <= (A - G)^2, so the window always exists
    if a < g:
        a, g = g, a
    lower = (3 * g - a) / (2 * g * (a + g))
    upper = 1 / (2 * a)
    assert lower <= upper
    assert (lower == upper) == (a == g)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(20),
                 max_denominator=50),
    min_size=3, max_size=9,
))
def test_log_concavity_detector_matches_brute_force(vals):
    seq = ScalingSequence.from_values(vals)
    n_max = len(vals) - 2
    brute = all(
        vals[n - 1] * vals[n + 1] <= vals[n] * vals[n]
        for n in range(1, n_max + 1)
    )
    assert seq.log_concave_up_to(n_max) == brute


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=400))
def test_scan_grid_shape(points):
    xs = scan_grid(points)
    assert xs.size == 2 * points
    assert xs[0] == -1.0 and xs[-1] == 1.0
    assert np.all(np.diff(xs) >= 0)
    assert np.all(np.abs(xs) <= 1.0)
    assert np.array_equal(xs, -xs[::-1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), steps=st.integers(min_value=3, max_value=10))
def test_routes_agree_on_monotone_ratio_families(seed, steps):
    """Whenever every lambda_n lies in (0, 1), the division-free pair form and
    the y-increment form give the same verdict at every index."""
    family = monotone_ratio_table(random.Random(seed), steps)
    N = steps - 1
    ld = lambda_data(family, N)
    assert all(ld.valid)
    for n in range(N + 1):
        assert 0 < ld.lam[n] < 1
    for n in range(1, N + 1):
        pair_ok = (4 * ld.u[n - 1] * ld.v[n]
                   <= (ld.u[n - 1] + ld.v[n - 1]) * (ld.u[n] + ld.v[n]))
        assert pair_ok == (ld.y[n] <= ld.y[n - 1] + 1)

    lam_report = check_lambda_route(family, N)
    y_report = check_y_route(family, N)
    assert lam_report.condition("ratio-nondecreasing").holds is True
    pair = lam_report.condition("pair-inequality")
    step = y_report.condition("y-increments-at-most-one")
    assert pair.holds == step.holds
    assert pair.first_violation == step.first_violation
    assert lam_report.overall == y_report.overall


_BUILDERS = {"Example3": example3, "Example4": example4, "Gegenbauer": gegenbauer,
             "Pollaczek": pollaczek, "Legendre": legendre}
_ARITY = {"Example3": 1, "Example4": 2, "Gegenbauer": 1, "Pollaczek": 2}


@st.composite
def builtin_cases(draw):
    kind = draw(st.sampled_from(sorted(_ARITY)))
    params = [draw(positive) for _ in range(_ARITY[kind])]
    return kind, params, draw(st.integers(min_value=2, max_value=80))


@settings(max_examples=30, deadline=None)
@given(builtin_cases())
@example(("Legendre", [], 3000))
def test_float_verdicts_are_the_exact_verdicts_on_the_doubles(case):
    """Float mode decides on the exact values of the doubles: each verdict
    equals that of the exact table of Fraction(float(v)). The float view keeps
    its corollary shape, which its doubles miss; the table carries none."""
    kind, params, N = case
    fv = float_view(_BUILDERS[kind](*params))
    doubles = table_family([Fraction(fv.alpha(n)) for n in range(N + 2)],
                           [Fraction(fv.gamma(n)) for n in range(N + 2)])
    got = {r.criterion: r.overall for r in criterion_reports(fv, N)}
    want = {r.criterion: r.overall for r in criterion_reports(doubles, N)}
    assert {name: got[name] for name in want} == want


def _ints_of_up_to(digits: int):
    """Ints of 1..digits decimal digits, each length about equally likely."""
    return st.integers(min_value=1, max_value=digits).flatmap(
        lambda d: st.integers(min_value=10 ** (d - 1) if d > 1 else 0, max_value=10**d - 1))


@settings(max_examples=300, deadline=None)
@given(prec=st.integers(min_value=11, max_value=60), p=_ints_of_up_to(5000),
       q=_ints_of_up_to(5000).filter(bool), negative=st.booleans())
@example(prec=11, p=123456789025, q=100, negative=False)  # a tie, rounded to even
@example(prec=11, p=123456789035, q=100, negative=True)
@example(prec=11, p=24691357803, q=2 * 10**40, negative=False)  # a tie of a reduced p/q
@example(prec=11, p=24691357805, q=2 * 10**40, negative=True)
@example(prec=50, p=10**4000 + 1, q=3 * 10**4000, negative=True)
def test_to_decimal_rounds_a_fraction_as_context_divide_does(prec, p, q, negative):
    """to_decimal(p/q) is the quotient of p and q correctly rounded once,
    through the integer reduction of a long p/q as through plain division,
    in the given context and in the current one."""
    p = -p if negative else p
    ctx = decimal_context(prec)
    want = ctx.divide(Decimal(p), Decimal(q))
    assert to_decimal(Fraction(p, q), ctx) == want
    with localcontext(ctx):
        assert to_decimal(Fraction(p, q)) == want
