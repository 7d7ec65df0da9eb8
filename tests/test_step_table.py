"""The integer step table decides what Fraction arithmetic decides.

Every checker that reads the step table is compared with its Fraction
reference in fraction_reference.py: equal reports (witnesses included), equal
LambdaData and equal SandwichRows, printed the same way. The integer g_n ratio
pass is compared with the Fraction one bit for bit. The 50-digit bounds on
g_n and alpha_tilde_n hold the exact values, and SzwTheorem1 and the ratio
sandwich, which decide on them, decide what the uncapped exact ratios decide.
"""
import contextlib
import io
import math
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
from conftest import monotone_ratio_table
from turandet import (
    DeltaSeq,
    InvalidLambda,
    NonpositiveRatio,
    NormalizedFamily,
    ParamError,
    StructuralMismatch,
    TableRangeError,
    check_corollary1,
    check_lambda_route,
    check_theorem1,
    check_y_route,
    corollary1_family,
    criterion_reports,
    example3,
    example4,
    float_view,
    gegenbauer,
    lambda_data,
    legendre,
    normalize,
    pollaczek,
    chebyshev_t,
    chebyshev_u,
    check_szw_normalized,
    coefficients,
    example2,
    grid_scan,
    ratio_sandwich,
    ratios_at_one,
    turan_det,
)
from turandet import recurrence
from turandet.arith import coprime_fraction
from turandet.cli import main
from turandet.recurrence import (
    CoefficientFamily,
    _ExactRatios,
    _ratio_bounds,
    _step_table,
    _table,
)


def _family(alphas, gammas, name="Random"):
    return CoefficientFamily(name=name, alpha=_table(alphas), gamma=_table(gammas))


def _outcome(check, family, N):
    """The report's JSON, or the message of the InvalidLambda it raised."""
    try:
        return check(family, N).to_json()
    except InvalidLambda as exc:
        return f"InvalidLambda: {exc}"


def _sandwich(sandwich, family, N):
    """The rows and their reprs, or the error ratios_at_one raised (a zero
    gamma_n is a ParamError there)."""
    try:
        rows = sandwich(family, N)
    except (NonpositiveRatio, ParamError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return rows, [repr(r) for r in rows]


def assert_matches_reference(family, N, *, reference=None, sandwich=True):
    """Every step-table decision on ``family`` up to N equals the Fraction one
    on ``reference`` (by default ``family`` itself).

    ``repr`` tells an int from an equal Fraction, and a Fraction from an equal
    float, so the printed values are compared as well as the numbers."""
    reference = family if reference is None else reference
    if N >= 2:
        assert check_theorem1(family, N).to_json() == ref.check_theorem1(reference, N).to_json()
    for check, check_ref in ((check_lambda_route, ref.check_lambda_route),
                             (check_y_route, ref.check_y_route)):
        assert _outcome(check, family, N) == _outcome(check_ref, reference, N)
    got = lambda_data(family, N)
    want = ref.lambda_data(ref.exact_table(reference, N + 1), N)
    assert got == want
    assert repr(got) == repr(want)
    assert list(got.rows()) == list(want.rows())
    if sandwich:
        assert (_sandwich(ratio_sandwich, family, N + 1)
                == _sandwich(ref.ratio_sandwich, reference, N + 1))


# Steps drawn so that u_n = 0, u_n < 0, lambda_n = 1, lambda_n = 3 and
# nonpositive w_n and v_n all come up.
_small = st.fractions(min_value=-1, max_value=1, max_denominator=12)


@st.composite
def _step(draw, values):
    u = draw(values)
    v = draw(st.one_of(values, st.sampled_from([u, 3 * u, 0 * u, -u])))
    return u, v


@st.composite
def step_tables(draw, values=_small, gamma0=st.fractions(min_value=Fraction(1, 8), max_value=2,
                                                         max_denominator=12)):
    """(family, N): alpha_0 = 0 and gamma_0 > 0, then random steps u_n, v_n."""
    steps = draw(st.lists(_step(values), min_size=3, max_size=9))
    alphas, gammas = [0 * steps[0][0]], [draw(gamma0)]
    for u, v in steps:
        alphas.append(alphas[-1] + u)
        gammas.append(gammas[-1] - v)
    N = draw(st.integers(min_value=1, max_value=len(steps) - 1))
    return _family(alphas, gammas), N


@settings(max_examples=300, deadline=None)
@given(step_tables())
@example((_family([0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)],
                  [Fraction(1, 2)] * 4), 2))  # u_1 = 0 and w_1 = 0
def test_random_exact_tables_match_the_fraction_reference(case):
    family, N = case
    assert_matches_reference(family, N)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=14))
def test_monotone_ratio_tables_match_the_fraction_reference(seed, steps):
    """Every lambda_n lies in (0, 1) here, so the y-route decides every step."""
    family = monotone_ratio_table(random.Random(seed), steps)
    assert_matches_reference(family, steps - 1)


@settings(max_examples=200, deadline=None)
@given(step_tables(values=st.integers(min_value=-3, max_value=4),
                   gamma0=st.integers(min_value=1, max_value=20)))
@example((_family([0, 1, 2, 3], [7, 6, 5, 4]), 2))  # every lambda_n = 1
@example((_family([0, 3, 10, 11], [20, 18, 13, 12]), 1))  # y_1 = y_0 + 1
def test_int_tables_match_the_fraction_reference(case):
    """The step table reads int coefficients as Fractions: it decides and
    prints on an int table what the reference does on the Fractions of the
    same table, exact step ratios and y-route ties included."""
    family, N = case
    fractions = _family([Fraction(family.alpha(n)) for n in range(N + 2)],
                        [Fraction(family.gamma(n)) for n in range(N + 2)])
    assert_matches_reference(family, N, reference=fractions)


def test_numpy_int_coefficients_are_read_as_ints():
    """numpy's int64 has no as_integer_ratio, and a Fraction of one keeps
    int64 parts, which have no bit_length for the digit cap and compare to
    numpy bools; the step table reads such a value as an int."""
    ints = _family([0, 1, 2, 3], [7, 6, 5, 4])
    numpy_ints = _family(list(np.arange(4)), list(np.arange(7, 3, -1)))
    assert ([r.to_json() for r in criterion_reports(numpy_ints, 2)]
            == [r.to_json() for r in criterion_reports(ints, 2)])
    assert criterion_reports(ints, 2)[0].overall.value == "Violated"


def test_int_table_y_route_decides_a_tie_exactly():
    """lambda = 2/3 then 5/7, so y = 5 then 6: y_1 <= y_0 + 1 holds with
    equality. The float step ratios that int/int division gives round y_1 up
    and y_0 down, so the Fraction reference called the tie Violated on the
    ints; the step table reads them as Fractions, decides the tie exactly,
    agrees with the pair inequality 60 <= 60 and prints the witness (6, 6)."""
    family = _family([0, 3, 10, 11], [20, 18, 13, 12])
    assert ref.check_y_route(family, 1).overall.value == "Violated"
    rep = check_y_route(family, 1)
    assert rep.overall.value == "Satisfied"
    witness = rep.condition("y-increments-at-most-one").witness
    assert witness == (6, 6) and all(type(w) is Fraction for w in witness)
    assert check_lambda_route(family, 1).overall.value == "Satisfied"


_BUILDERS = {"Example3": (example3, 1), "Example4": (example4, 2),
             "Gegenbauer": (gegenbauer, 1), "Pollaczek": (pollaczek, 2)}
_positive = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(5), max_denominator=30)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_BUILDERS)), st.lists(_positive, min_size=2, max_size=2),
       st.integers(min_value=1, max_value=60))
@example("Example3", [Fraction(1), Fraction(1)], 60)
def test_float_views_match_the_fraction_reference(kind, params, N):
    build, arity = _BUILDERS[kind]
    assert_matches_reference(float_view(build(*params[:arity])), N)


def test_legendre_float_view_matches_at_3000():
    assert_matches_reference(float_view(legendre()), 3000, sandwich=False)


def test_table_normalized_past_its_digit_cap_fallback_matches():
    """Example3(1/3) falls back to 50-digit Decimals at g_989; its normalized
    coefficients past that index are Decimals, decided on their exact values."""
    nf = normalize(example3(Fraction(1, 3)), 1002)
    assert not nf.exact
    assert_matches_reference(nf, 1000, sandwich=False)


def test_lambda_data_reads_the_exact_values_of_doubles():
    """Float input gives the exact Fractions of the doubles' differences, not
    the differences of the doubles."""
    fv = float_view(example3(1))
    ld = lambda_data(fv, 40)
    assert all(isinstance(x, Fraction) for x in ld.u + ld.v + ld.lam + ld.y)
    assert ld.u[3] == Fraction(fv.alpha(4)) - Fraction(fv.alpha(3))
    assert isinstance(ref.lambda_data(fv, 40).u[3], float)
    invalid = check_lambda_route(fv, 40).notes["lambda_invalid_indices"]
    assert invalid == [n for n in range(41) if not ld.valid[n]]


def test_lambda_data_valid_flags_agree_with_the_lambda_route():
    """0.26 - 0.11 and 0.67 - 0.52 round to the same double, so the float
    step ratio lambda_1 is 1.0 and looked valid; the exact values of the
    doubles give lambda_1 > 1, which the lambda route already flagged."""
    family = _family([0.0, 0.11, 0.26, 0.3], [0.75, 0.67, 0.52, 0.5])
    assert ref.lambda_data(family, 1).valid[1] is True
    ld = lambda_data(family, 1)
    assert ld.lam[1] > 1 and ld.valid[1] is False
    assert check_lambda_route(family, 1).notes["lambda_invalid_indices"] == [1]


def test_corollary_mismatch_message_names_the_exact_values():
    d = DeltaSeq(lambda n: Fraction(1, 2 * (n + 3)), limit=0)
    fam = corollary1_family(3, 1, d)
    bent = _family([fam.alpha(n) for n in range(6)],
                   [fam.gamma(n) + (Fraction(1, 10**9) if n == 4 else 0) for n in range(6)])
    with pytest.raises(StructuralMismatch) as err:
        check_corollary1(3, 1, d, 5, family=bent)
    want = Fraction(1, 2) + Fraction(1, 14)
    assert str(err.value) == (f"gamma_4 does not match the declared shape: "
                              f"expected {want}, got {want + Fraction(1, 10**9)}")
    assert check_corollary1(3, 1, d, 5, family=fam).overall.value == "Satisfied"


@pytest.mark.parametrize("command, count", [("check", 4), ("lambda", 3001), ("ratios", 3000)])
def test_step_output_memory_stays_small(command, count):
    """The traced peak of a 3000-step check, lambda or ratios run: the exact
    table, the ratios, the step data and the rows are freed before the JSON
    text is written out piece by piece. ``count`` is the number of reports
    (check) or rows (lambda, ratios) printed."""
    marker = '"criterion": ' if command == "check" else '"n": '
    spec = '{"kind": "Example4", "params": {"a": 2, "b": "1/2"}}'
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            main([command, "--family", spec, "--N", "3000", "--reproducible"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.getvalue().count(marker) == count
    assert peak < 6.5e6


def _number(v):
    """v as plain data: a Fraction by its two ints (so an unreduced one shows),
    a Decimal by its exact value, a double by its bits."""
    if isinstance(v, Fraction):
        return "Fraction", v.numerator, v.denominator
    if isinstance(v, Decimal):
        return "Decimal", Fraction(v)
    return type(v).__name__, float.hex(v)


def _package_ratio_pass(family, N, cap, keep_tail):
    """ratios_at_one in the form of ref.ratio_pass: the ratios, the fallback
    flag and the tail (k, alpha_tilde_k.., gamma_tilde_k..), read from the
    NormalizedFamily over those ratios, from the first index k read after
    the fallback (the length of the exact run)."""
    with mock.patch.object(recurrence, "DEFAULT_DIGIT_CAP", cap):
        ratios = ratios_at_one(family, N)
        fallback = family.exact and not ratios.exact
        exact = _ExactRatios(_step_table(family, N - 2))
        exact.up_to_cap(N)
    k = len(exact.values) if fallback else N
    nf = NormalizedFamily(family, ratios)
    return list(ratios.values), fallback, (k, [nf.alpha(n) for n in range(k, N)],
                                           [nf.gamma(n) for n in range(k, N)])


def _ratio_outcome(ratio_pass, family, N, cap):
    """The ratios, fallback flag and Decimal tail of a ratio pass, or its error."""
    try:
        values, fallback, (k, al_tail, ga_tail) = ratio_pass(family, N, cap, keep_tail=True)
    except NonpositiveRatio as exc:
        return "NonpositiveRatio", str(exc), exc.n, _number(exc.value)
    except ParamError as exc:
        return "ParamError", str(exc)
    return ([_number(v) for v in values], fallback, k,
            [_number(v) for v in al_tail], [_number(v) for v in ga_tail])


def assert_ratio_pass_matches_reference(family, N, cap):
    assert (_ratio_outcome(_package_ratio_pass, family, N, cap)
            == _ratio_outcome(ref.ratio_pass, family, N, cap))


# N per digit cap: far enough past the fallback for a tail of Decimal indices
_RATIO_N = {60: 150, 200: 400}
_VIEWS = {
    "builtin": lambda fam, N: fam,  # read through its integer form ``linear``
    "step table": lambda fam, N: _step_table(fam, N),
    "float view": lambda fam, N: float_view(fam),  # doubles, no digit cap
    "float step table": lambda fam, N: _step_table(float_view(fam), N),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["Example3", "Example4", "Pollaczek"]),
       st.lists(_positive, min_size=2, max_size=2),
       st.sampled_from(sorted(_RATIO_N)), st.sampled_from(sorted(_VIEWS)))
@example("Example3", [Fraction(1), Fraction(1)], 60, "builtin")
@example("Pollaczek", [Fraction(3, 2), Fraction(1)], 200, "step table")
@example("Example4", [Fraction(2), Fraction(1, 2)], 60, "float step table")
def test_integer_ratio_pass_matches_the_fraction_reference(kind, params, cap, view):
    """Values, fallback flag, tail start and the Decimal tail, digit for digit,
    past the digit-cap fallback; a nonpositive g_n with the same index and
    value."""
    build, arity = _BUILDERS[kind]
    N = _RATIO_N[cap]
    assert_ratio_pass_matches_reference(_VIEWS[view](build(*params[:arity]), N), N, cap)


@settings(max_examples=200, deadline=None)
@given(st.one_of(step_tables(),
                 step_tables(values=st.integers(min_value=-3, max_value=4),
                             gamma0=st.integers(min_value=1, max_value=20))),
       st.sampled_from([1, 60, 4096]))
@example((_family([0, Fraction(1, 4), Fraction(1, 4)],
                  [Fraction(10**61 + 1, 10**61), Fraction(1, 2), Fraction(1, 2)]), 1), 60)
@example((_family([0, 1, 2, 3], [1, 0, 1, 1]), 2), 4096)  # gamma_1 = 0
@example((_family([0, 2, 2, 2], [1, 1, 1, 1]), 2), 4096)  # g_1 = -1
def test_integer_ratio_pass_matches_on_random_tables(case, cap):
    """Random Fraction and int tables: zero gammas, negative ratios, a cap
    that g_0 already passes (the 61-digit gamma_0, or cap 1)."""
    family, N = case
    for table in (family, _step_table(family, N)):
        assert_ratio_pass_matches_reference(table, N + 1, cap)


def _with_form(family, form, reads):
    """``family`` over callables of its values that append each index read to
    ``reads`` and carry one attribute ``form``: the builtin's ``linear``, or
    ``pair``, n -> the unreduced ints (a1*n + a0, b1*n + b0) of the value."""
    def wrap(coeff):
        a1, a0, b1, b0 = coeff.linear

        def at(n):
            reads.append(n)
            return coeff(n)
        if form == "linear":
            at.linear = coeff.linear
        else:
            at.pair = lambda n: (a1 * n + a0, b1 * n + b0)
        return at
    return CoefficientFamily(name=family.name, alpha=wrap(family.alpha),
                             gamma=wrap(family.gamma), params=family.params, meta=family.meta)


@pytest.mark.parametrize("family, N", [
    (legendre(), 200), (pollaczek(Fraction(3, 2), 1), 200), (example4(3, Fraction(1, 2)), 200),
    (example3(Fraction(1, 3)), 1000),
], ids=["Legendre", "Pollaczek(3/2,1)", "Example4(3,1/2)", "Example3(1/3)"])
def test_linear_is_the_one_integer_form(family, N):
    """Callables that carry ``linear`` are read through it, with no value
    call, and callables that carry only ``pair`` through their values; both
    get the builtin's check and ratios reports, past the digit-cap fallback
    at g_989 of Example3(1/3) too."""
    checks = [r.to_json() for r in criterion_reports(family, N)]
    sandwich = ratio_sandwich(family, N)
    for form, reads_values in (("linear", False), ("pair", True)):
        reads: list = []
        wrapped = _with_form(family, form, reads)
        reads.clear()  # of the construction's checks of alpha_0 and gamma_0
        assert [r.to_json() for r in criterion_reports(wrapped, N)] == checks, form
        assert ratio_sandwich(wrapped, N) == sandwich, form
        assert bool(reads) is reads_values, form


def _normalized_view(family, hi):
    """The coefficients that grid_scan read before the integer pass: those of
    the NormalizedFamily view over one read of the coefficients 0..hi."""
    al, ga = coefficients(family, hi)
    table = CoefficientFamily(name=family.name, alpha=_table(al), gamma=_table(ga),
                              exact=family.exact)
    return coefficients(normalize(table, hi + 1), hi)


def _coefficient_outcome(coefficient_pass, family, hi):
    """The lists of a normalized coefficient pass as plain data, or its error.
    Each value is given by its type, its repr (a Decimal digit for digit)
    and the bits of its double; alpha_tilde_0 = alpha_0 = 0 by its value,
    as the integer pass makes it the Fraction 0 for an int alpha_0 too."""
    try:
        al, ga = coefficient_pass(family, hi)
    except NonpositiveRatio as exc:
        return "NonpositiveRatio", str(exc), exc.n, _number(exc.value)
    except ParamError as exc:
        return "ParamError", str(exc)
    assert al[0] == 0 and len(al) == len(ga) == hi + 1
    return [[(type(v).__name__, repr(v), float(v).hex()) for v in values]
            for values in (al[1:], ga)]


def assert_coefficient_pass_matches(family, hi):
    assert (_coefficient_outcome(recurrence._normalized_coefficients, family, hi)
            == _coefficient_outcome(_normalized_view, family, hi))


@pytest.mark.parametrize("family", [
    chebyshev_t(), chebyshev_u(), legendre(), gegenbauer(Fraction(3, 2)), pollaczek(2, 1),
    pollaczek(Fraction(3, 2), 1), example3(Fraction(1, 2)), example4(3, Fraction(1, 2)),
    example2(DeltaSeq(lambda n: Fraction(1, 6) / 2 ** n, limit=0),
             DeltaSeq(lambda n: Fraction(1, n) if n else Fraction(0), limit=0)),
], ids=lambda family: family.name)
def test_integer_coefficient_pass_matches_the_normalized_view_on_builtins(family):
    """The normalized coefficients that grid_scan reads from the step table's
    ints equal those of the NormalizedFamily view, in value and type, and
    their doubles bit for bit; and so do those of the float view."""
    assert_coefficient_pass_matches(family, 300)
    assert_coefficient_pass_matches(float_view(family), 300)


def test_integer_coefficient_pass_matches_past_the_fallback():
    """Example3(1/3) passes its digit-cap fallback at g_989: the Decimals
    formed from the rounded exact ratios below it and those of the Decimal
    tail from it on are the view's, digit for digit."""
    al, _ = recurrence._normalized_coefficients(example3(Fraction(1, 3)), 1200)
    assert type(al[989]) is Decimal and type(al[989 - 1]) is Decimal
    assert_coefficient_pass_matches(example3(Fraction(1, 3)), 1200)


@settings(max_examples=200, deadline=None)
@given(st.one_of(step_tables(),
                 step_tables(values=st.integers(min_value=-3, max_value=4),
                             gamma0=st.integers(min_value=1, max_value=20))),
       st.sampled_from([1, 60, 4096]), st.booleans())
@example((_family([0, 1, 2, 3], [1, 0, 1, 1]), 2), 4096, False)  # gamma_1 = 0
@example((_family([0, 2, 2, 2], [1, 1, 1, 1]), 2), 4096, False)  # g_1 = -1
@example((_family([0, 2, 2, 2], [1, 1, 1, 1]), 2), 4096, True)
@example((_family([0, Fraction(1, 4), Fraction(1, 4)],
                  [Fraction(10**61 + 1, 10**61), Fraction(1, 2), Fraction(1, 2)]), 1), 60, False)
def test_integer_coefficient_pass_matches_on_random_tables(case, cap, as_floats):
    """Random Fraction, int and double tables, at digit caps that the exact
    ratios pass early or never: the same lists, or the same
    NonpositiveRatio index and value, or the same ParamError at a zero
    gamma_n."""
    family, N = case
    if as_floats:
        family = float_view(family)
    with mock.patch.object(recurrence, "DEFAULT_DIGIT_CAP", cap):
        assert_coefficient_pass_matches(family, N + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10**80, max_value=10**80), st.integers(min_value=1, max_value=10**80))
def test_coprime_fraction_is_the_normalized_fraction(p, q):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    got, want = coprime_fraction(p, q), Fraction(p, q)
    assert type(got) is Fraction and (got.numerator, got.denominator) == (p, q)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


# ------------------------------------ ratio bounds, SzwTheorem1 and the sandwich

_int_step_tables = step_tables(values=st.integers(min_value=-3, max_value=4),
                               gamma0=st.integers(min_value=1, max_value=20))
_builtin_cases = st.builds(lambda kind, params, N: (_BUILDERS[kind][0](*params[:_BUILDERS[kind][1]]), N),
                           st.sampled_from(sorted(_BUILDERS)),
                           st.lists(_positive, min_size=2, max_size=2),
                           st.integers(min_value=1, max_value=200))
_QUARTER = Fraction(1, 4)
# alpha_tilde = 0, 1/4, 1/4, 1/4: equal consecutive values below 1/2
_FLAT_QUARTER = _family([0, _QUARTER, _QUARTER, _QUARTER], [1] + [1 - _QUARTER] * 3)
# g_1 = -1/5; g_1 = 0; gamma_1 = 0
_NONPOSITIVE = _family([0, Fraction(3, 5), Fraction(1, 2), Fraction(1, 2)], [2, 1, 1, 1])
_ZERO_RATIO = _family([0, 1, Fraction(1, 2), Fraction(1, 2)], [1, 1, 1, 1])
_ZERO_GAMMA = _family([0, 1, 2, 3], [1, 0, 1, 1])
_G0 = Fraction(10**61, 10**61 + 1)
_PAST_CAP_TIES = _family([0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
                         [1 / _G0, 1 - Fraction(1, 3) / _G0, Fraction(2, 3), Fraction(2, 3)])


def test_a_short_table_reports_its_range_before_its_ratios():
    """Every normalization of a table, exact or of its doubles, reads it
    whole before it forms a ratio: the table below has g_1 = -1/5, yet each
    pass reports the missing index 4 first."""
    message = "^coefficient index 4 outside table of length 4$"
    doubles = float_view(_NONPOSITIVE)
    for call in (lambda: ratios_at_one(_NONPOSITIVE, 6), lambda: normalize(_NONPOSITIVE, 6),
                 lambda: ratio_sandwich(_NONPOSITIVE, 6), lambda: grid_scan(_NONPOSITIVE, 5),
                 lambda: turan_det(_NONPOSITIVE, 5, 0.5), lambda: ratios_at_one(doubles, 6),
                 lambda: normalize(doubles, 6), lambda: grid_scan(doubles, 5),
                 lambda: turan_det(doubles, 5, 0.5)):
        with pytest.raises(TableRangeError, match=message):
            call()
    with pytest.raises(NonpositiveRatio, match="g_1"):
        ratios_at_one(_NONPOSITIVE, 3)


def _error(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _never_read():
    raise AssertionError("SzwTheorem1 read the ratios of the normalized view")


def _szw(check, family, N):
    """The SzwTheorem1 report's JSON, or the error that the ratios raised."""
    try:
        return check(family, N).to_json()
    except (NonpositiveRatio, ParamError) as exc:
        return _error(exc)


def _package_szw(family, N):
    """check_szw_normalized on a normalized view that must not form its ratios."""
    return check_szw_normalized(NormalizedFamily(family, _never_read), N)


def _holds(lo: Decimal, x: Fraction, hi: Decimal) -> bool:
    """lo <= x <= hi, compared as Fractions: far faster than comparing a
    Decimal with a Fraction of thousands of digits."""
    return Fraction(lo) <= x <= Fraction(hi)


def assert_bounds_hold_the_exact_values(family, N):
    """Every exact g_n and alpha_tilde_n of the Fraction reference lies in the
    bounds from g_0 and in those restarted from each exact g_{k-1}; where the
    reference raises, the bounds raise the same error."""
    table = _step_table(family, N - 1)
    try:
        g, at = ref.normalized_ratios(family, N)
    except (NonpositiveRatio, ParamError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            list(_ratio_bounds(table, N, _ExactRatios(table)))
        return
    exact = _ExactRatios(table)
    for k in sorted({0, 1, N // 2, N - 1}):
        if k:
            exact.ratio(k - 1)
        a_lo, a_hi, g_lo, g_hi = zip(*_ratio_bounds(table, N, exact, start=k))
        assert len(a_lo) == N + 1 - k and g_lo[-1] is g_hi[-1] is None
        assert all(_holds(a_lo[n - k], at[n], a_hi[n - k]) for n in range(k, N + 1))
        assert all(_holds(g_lo[n - k], g[n], g_hi[n - k]) for n in range(k, N))


@settings(max_examples=200, deadline=None)
@given(st.one_of(step_tables(), _int_step_tables, _builtin_cases))
@example((_NONPOSITIVE, 3))
@example((_ZERO_RATIO, 3))
@example((_ZERO_GAMMA, 2))
@example((_family([0, Fraction(-1, 3), Fraction(1, 5)], [Fraction(1, 2), Fraction(-2, 7), 1]), 2))
def test_ratio_bounds_hold_the_exact_values(case):
    """Random tables with either sign of alpha_n and gamma_n, and builtins."""
    assert_bounds_hold_the_exact_values(*case)


@pytest.mark.parametrize("family", [example3(2), pollaczek(Fraction(3, 2), 1)],
                         ids=["Example3(2)", "Pollaczek(3/2,1)"])
def test_ratio_bounds_hold_the_exact_values_at_3000(family):
    """Past the 4096-digit values where the capped pass stops (g_1329 and
    g_1631), the bounds from g_0 still hold every exact value, within a
    relative width of 10^-44."""
    table = _step_table(family, 2999)
    exact = _ExactRatios(table)
    a_lo, a_hi, g_lo, g_hi = zip(*_ratio_bounds(table, 3000, exact))
    for n in range(3000):
        g_n = exact.ratio(n)
        assert _holds(g_lo[n], g_n, g_hi[n]) and _holds(a_lo[n], exact.alpha_tilde(n), a_hi[n])
        assert Fraction(g_hi[n] - g_lo[n]) < g_n / 10**44
    assert _ExactRatios(table).up_to_cap(3000)


@settings(max_examples=200, deadline=None)
@given(st.one_of(step_tables(), _int_step_tables, _builtin_cases))
@example((chebyshev_t(), 30))  # alpha_tilde_n = 1/2 for n >= 1: every bound is a tie
@example((_FLAT_QUARTER, 3))
@example((_NONPOSITIVE, 3))
@example((_ZERO_RATIO, 3))
@example((_ZERO_GAMMA, 2))
def test_szw_matches_the_uncapped_reference(case):
    """Reports equal, witnesses included; a tie that the bounds cannot decide
    is decided on exact values, and a nonpositive g_n or a zero gamma_n is
    the error of the exact pass."""
    family, N = case
    assert _szw(_package_szw, family, N) == _szw(ref.check_szw_normalized, family, N)


@pytest.mark.parametrize("family, N", [
    (example3(2), 3000),
    (pollaczek(Fraction(3, 2), 1), 3000),
    (float_view(example4(3, Fraction(1, 2))), 600),
], ids=["Example3(2)", "Pollaczek(3/2,1)", "Example4(3,1/2) float"])
def test_szw_matches_the_uncapped_reference_past_the_digit_cap(family, N):
    """The benchmark's families, past the index where the capped exact pass
    stops (the doubles of Example4 pass 4096 digits near n = 270)."""
    assert _szw(_package_szw, family, N) == _szw(ref.check_szw_normalized, family, N)
    assert _ExactRatios(_step_table(family, N - 2)).up_to_cap(N)


@settings(max_examples=100, deadline=None)
@given(st.one_of(step_tables(), _int_step_tables, _builtin_cases), st.sampled_from([1, 60]))
@example((_PAST_CAP_TIES, 2), 60)
def test_ratio_sandwich_past_a_fallback_decides_on_exact_ratios(case, cap):
    """With the digit cap at 1 or 60 digits most tables pass it within a few
    indices; the rows past it print the 50-digit ratios and decide on the
    exact ones, ties at g_n = 1 included. In the example g_0 = 10^61/(10^61 +
    1) passes 60 digits and prints as 1.000..., yet breaks 1 <= g_0; then
    g_1 = g_2 = 1, which the bounds cannot decide."""
    family, N = case
    with mock.patch.object(recurrence, "DEFAULT_DIGIT_CAP", cap):
        got = _sandwich(ratio_sandwich, family, N + 1)
    # the step table prints an int table's bounds as Fractions
    fractions = _family([Fraction(family.alpha(n)) for n in range(N + 2)],
                        [Fraction(family.gamma(n)) for n in range(N + 2)])
    assert got == _sandwich(lambda f, n: ref.ratio_sandwich(f, n, cap), fractions, N + 1)


@pytest.mark.parametrize("family", [example3(2), pollaczek(Fraction(3, 2), 1)],
                         ids=["Example3(2)", "Pollaczek(3/2,1)"])
def test_ratio_sandwich_past_the_digit_cap_matches_at_3000(family):
    assert _sandwich(ratio_sandwich, family, 3000) == _sandwich(ref.ratio_sandwich, family, 3000)
