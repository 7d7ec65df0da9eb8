"""The integer step table decides what Fraction arithmetic decides.

Every checker that reads the step table is compared with its Fraction
reference in fraction_reference.py: equal reports (witnesses included), equal
LambdaData and equal SandwichRows, printed the same way. The integer g_n ratio
pass is compared with the Fraction one bit for bit. The float bounds on
g_n and alpha_tilde_n hold the exact values, and SzwTheorem1 and the ratio
sandwich, which decide on them and recheck exactly what they leave open,
decide what the uncapped exact ratios decide.
"""
import contextlib
import io
import math
import random
import re
import sys
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
from turandet import recurrence, turan
from turandet.arith import coprime_fraction
from turandet.arith import digit_cap_bits, pair_digits
from turandet.cli import _lambda_rows, main
from turandet.recurrence import (
    CoefficientFamily,
    _coprime_reader,
    _ExactRatios,
    _ratio_bounds,
    _StepTable,
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
    assert _lambda_rows(family, N)[0] == list(want.rows())
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


def test_corollary_shape_is_matched_on_the_step_table_ints():
    """Handed a step table, as criterion_reports hands it, the corollary
    checks match the shape on its int columns and read no coefficient as a
    Fraction, except the one a mismatch message names."""
    fam = pollaczek(2, 1)
    shape = fam.meta["corollary1"]
    table = _StepTable(fam, 400)
    table.alpha = table.gamma = _never_read
    rep = check_corollary1(shape.alpha_const, shape.gamma_const, shape.delta, 400, family=table)
    assert rep.to_json() == check_corollary1(shape.alpha_const, shape.gamma_const, shape.delta,
                                             400, family=fam).to_json()
    assert rep.overall.value == "Satisfied"
    bent = _StepTable(fam, 400)
    bent.gp[7] += 1
    with pytest.raises(StructuralMismatch, match="^gamma_7 does not match"):
        check_corollary1(shape.alpha_const, shape.gamma_const, shape.delta, 400, family=bent)


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
        fallback = not ratios.exact
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
_RATIO_N = {25: 100, 60: 150, 200: 400}
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
       st.sampled_from([1, 25, 60, 4096]))
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
    the NormalizedFamily view over one read of the exact values of the
    coefficients 0..hi (``exact_table``), a double's too."""
    return coefficients(normalize(ref.exact_table(family, hi), hi + 1), hi)


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


def _as_fraction(pair):
    """An int pair (p, q) of the integer pass as the Fraction p/q, once it
    is checked to be in lowest terms with q > 0, and its double p/q, which
    the scan reads (``turan._doubles``), to be that of the Fraction."""
    p, q = pair
    assert type(p) is int and type(q) is int and q > 0 and math.gcd(p, q) == 1
    value = Fraction(p, q)
    assert turan._doubles([pair]) == [p / q] == [float(value)]
    return value


def _package_coefficients(family, hi):
    """recurrence._normalized_coefficients, its int pairs read as Fractions:
    every value below the digit cap is one, of a family of doubles too, and
    no other value is."""
    al, ga = recurrence._normalized_coefficients(family, hi)
    pairs = type(ga[-1]) is not Decimal
    assert all((type(v) is tuple) is pairs for v in al + ga)
    if pairs:
        al, ga = [_as_fraction(v) for v in al], [_as_fraction(v) for v in ga]
    return al, ga


def assert_coefficient_pass_matches(family, hi):
    assert (_coefficient_outcome(_package_coefficients, family, hi)
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
# g_0 = _G0 again, then g_1 = 1 - 10^-40, which no two doubles separate from 1
_PAST_CAP_DIP = _family([0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
                        [1 / _G0, (1 - Fraction(1, 3) / _G0) / (1 - Fraction(1, 10**40)),
                         Fraction(2, 3), Fraction(2, 3)])


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


def _never_read(*args):
    raise AssertionError("read a value that the check must not read")


def _szw(check, family, N):
    """The SzwTheorem1 report's JSON, or the error that the ratios raised."""
    try:
        return check(family, N).to_json()
    except (NonpositiveRatio, ParamError) as exc:
        return _error(exc)


def _outside_doubles(x) -> bool:
    """Whether the double nearest the exact value x is not a normal double:
    past the largest one, or below the smallest normal one, zero too."""
    try:
        return abs(float(Fraction(x))) < sys.float_info.min
    except OverflowError:
        return True


def _no_nan_unless_outside(bounds, family, N, g) -> bool:
    """Whether the bounds hold no NaN, or a coefficient alpha_1..alpha_N,
    gamma_0..gamma_{N-1} or an exact ratio g_n is outside the normal
    doubles."""
    values = [*(family.alpha(n) for n in range(1, N + 1)), *map(family.gamma, range(N)), *g]
    return not any(map(math.isnan, bounds)) or any(map(_outside_doubles, values))


def assert_bounds_hold_the_exact_values(family, N):
    """Every exact g_n and alpha_tilde_n of the Fraction reference lies in
    each float bound that is not NaN, from g_0 and restarted from each
    exact g_{k-1}, the path of ratio_sandwich past its digit cap, and a
    NaN appears only where a quotient is outside the normal doubles. Where
    the reference raises NonpositiveRatio, or ParamError at a zero
    gamma_n, the bounds raise the same error."""
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
        assert _no_nan_unless_outside([*a_lo, *a_hi, *g_lo[:-1], *g_hi[:-1]], family, N, g)
        assert all(_within(a_lo[n - k], at[n], a_hi[n - k]) for n in range(k, N + 1))
        assert all(not g_lo[n - k] <= 0 and _within(g_lo[n - k], g[n], g_hi[n - k])
                   for n in range(k, N))


@settings(max_examples=200, deadline=None)
@given(st.one_of(step_tables(), _int_step_tables, _builtin_cases))
@example((_NONPOSITIVE, 3))
@example((_ZERO_RATIO, 3))
@example((_ZERO_GAMMA, 2))
@example((_family([0, Fraction(-1, 3), Fraction(1, 5)], [Fraction(1, 2), Fraction(-2, 7), 1]), 2))
def test_ratio_bounds_hold_the_exact_values(case):
    """Random tables with either sign of alpha_n and gamma_n, and builtins."""
    assert_bounds_hold_the_exact_values(*case)


def _relative_width(lo: float, hi: float, x: Fraction) -> Fraction:
    return (Fraction(hi) - Fraction(lo)) / abs(x)


@pytest.mark.parametrize("family", [example3(2), pollaczek(Fraction(3, 2), 1)],
                         ids=["Example3(2)", "Pollaczek(3/2,1)"])
def test_ratio_bounds_hold_the_exact_values_at_3000(family):
    """Past the 4096-digit values where the capped pass stops (g_1329 and
    g_1631), the float bounds from g_0, and those restarted from the exact
    g_{k-1} where the capped pass stopped and from two later ones, hold
    every exact value, within a relative width of 10^-11."""
    table = _step_table(family, 2999)
    capped = _ExactRatios(table)
    assert capped.up_to_cap(3000)
    exact = _ExactRatios(table)
    g = [exact.ratio(n) for n in range(3000)]
    at = [exact.alpha_tilde(n) for n in range(3001)]
    for k in (0, len(capped.values), 2000, 2999):
        a_lo, a_hi, g_lo, g_hi = zip(*_ratio_bounds(table, 3000, exact, start=k))
        for n in range(k, 3001):
            assert _within(a_lo[n - k], at[n], a_hi[n - k])
            if n:  # alpha_tilde_0 = 0
                assert _relative_width(a_lo[n - k], a_hi[n - k], at[n]) < Fraction(1, 10**11)
            if n < 3000:
                assert _within(g_lo[n - k], g[n], g_hi[n - k])
                assert _relative_width(g_lo[n - k], g_hi[n - k], g[n]) < Fraction(1, 10**11)


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
    assert _szw(check_szw_normalized, family, N) == _szw(ref.check_szw_normalized, family, N)


@pytest.mark.parametrize("family, N", [
    (example3(2), 3000),
    (pollaczek(Fraction(3, 2), 1), 3000),
    (float_view(example4(3, Fraction(1, 2))), 600),
], ids=["Example3(2)", "Pollaczek(3/2,1)", "Example4(3,1/2) float"])
def test_szw_matches_the_uncapped_reference_past_the_digit_cap(family, N):
    """The benchmark's families, past the index where the capped exact pass
    stops (the doubles of Example4 pass 4096 digits near n = 270)."""
    assert _szw(check_szw_normalized, family, N) == _szw(ref.check_szw_normalized, family, N)
    assert _ExactRatios(_step_table(family, N - 2)).up_to_cap(N)


@settings(max_examples=100, deadline=None)
@given(st.one_of(step_tables(), _int_step_tables, _builtin_cases), st.sampled_from([1, 60]))
@example((_PAST_CAP_TIES, 2), 60)
@example((_PAST_CAP_DIP, 2), 60)
def test_ratio_sandwich_past_a_fallback_decides_on_exact_ratios(case, cap):
    """With the digit cap at 1 or 60 digits most tables pass it within a few
    indices; the rows past it print the 50-digit ratios and decide on the
    exact ones, ties at g_n = 1 included. In the examples g_0 = 10^61/(10^61
    + 1) passes 60 digits and prints as 1.000..., yet breaks 1 <= g_0; then
    g_1 = g_2 = 1, which the bounds cannot decide, or g_1 = 1 - 10^-40,
    which they cannot decide either and which breaks 1 <= g_1."""
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


def _exact_reads(call):
    """call(), the index bounds of the exact ratio passes it ran
    (``_ExactRatios._extend``) and the indices of the exact alpha_tilde_n
    pairs it formed (``_ExactRatios._tilde``), each in order."""
    extend, tilde = _ExactRatios._extend, _ExactRatios._tilde
    with mock.patch.object(_ExactRatios, "_extend", autospec=True, side_effect=extend) as passes, \
            mock.patch.object(_ExactRatios, "_tilde", autospec=True, side_effect=tilde) as pairs:
        result = call()
    return (result, [c.args[1] for c in passes.call_args_list],
            [c.args[1] for c in pairs.call_args_list])


def _extend_calls(call):
    """call() and the index bounds of the exact ratio passes it ran."""
    return _exact_reads(call)[:2]


@pytest.mark.parametrize("family", [example3(2), example3(Fraction(1, 3)), pollaczek(2, 1)],
                         ids=["Example3(2)", "Example3(1/3)", "Pollaczek(2,1)"])
def test_ratio_sandwich_decides_past_the_cap_on_float_bounds(family):
    """Every row past the digit cap is decided on the float bounds carried
    from the exact g_{k-1}: the exact pass runs once, capped, and forms no
    ratio past the cap; the rows are those of the uncapped reference."""
    got, bounds = _extend_calls(lambda: _sandwich(ratio_sandwich, family, 3000))
    assert bounds == [3000]  # the capped pass (up_to_cap) only
    assert not all(isinstance(row.g, Fraction) for row in got[0])  # past the cap
    assert got == _sandwich(ref.ratio_sandwich, family, 3000)


def _rescaled_legendre(N):
    """Legendre with p_n scaled by 10^(400n): alpha'_n = 10^400*alpha_n and
    gamma'_n = 10^-400*gamma_n, coefficients 0..N. Its quotients are past
    the doubles or below them, and its alpha_tilde_n are Legendre's."""
    leg, c = legendre(), 10**400
    return _family([leg.alpha(n) * c for n in range(N + 1)],
                   [leg.gamma(n) / c for n in range(N + 1)], name="RescaledLegendre")


@pytest.mark.parametrize("cap", [4096, 60])
def test_out_of_range_coefficients_decide_on_exact_values(cap):
    """The doubles bound nothing here: every alpha_tilde_n, n >= 1, has NaN
    bounds, and the pass restarts from the exact g_n at every index. So
    SzwTheorem1 decides every comparison on the exact values, and the
    sandwich, whose g_n = 10^400 pass a 60-digit cap at g_0, decides every
    row past it exactly: both as the Fraction reference does."""
    family, N = _rescaled_legendre(41), 40
    table = _step_table(family, N - 1)
    bounds, restarts = _extend_calls(lambda: list(_ratio_bounds(table, N, _ExactRatios(table))))
    assert all(math.isnan(a_lo) and math.isnan(a_hi) for a_lo, a_hi, _, _ in bounds[1:])
    assert restarts == list(range(1, N + 1))
    report = _szw(check_szw_normalized, family, N)
    assert report == _szw(ref.check_szw_normalized, family, N)
    assert report == _szw(ref.check_szw_normalized, legendre(), N)
    with mock.patch.object(recurrence, "DEFAULT_DIGIT_CAP", cap):
        got = _sandwich(ratio_sandwich, family, N)
    assert got == _sandwich(lambda f, n: ref.ratio_sandwich(f, n, cap), family, N)
    assert all(row.lower_ok and row.upper_ok for row in got[0])


def _edited_example3(edit, N=3000):
    """Example3(2) as a table of its coefficients 0..N + 1, after
    edit(alpha, gamma) has changed those two lists."""
    family = example3(2)
    al = [Fraction(family.alpha(n)) for n in range(N + 2)]
    ga = [Fraction(family.gamma(n)) for n in range(N + 2)]
    edit(al, ga)
    return _family(al, ga, name="EditedExample3")


def _scale(which, n, factor):
    """An edit of _edited_example3: alpha_n (which = 0) or gamma_n (which =
    1) multiplied by ``factor``."""
    def edit(*columns):
        columns[which][n] *= factor
    return edit


def _zero_bound_at_2000(al, ga):
    """alpha_2001 = alpha_2000*(1 - 10^-6) and gamma_2001 =
    alpha_2001*gamma_2000/alpha_2000: w_2000 = 0 < v_2000."""
    al[2001] = al[2000] * (1 - Fraction(1, 10**6))
    ga[2001] = al[2001] * ga[2000] / al[2000]


@pytest.mark.parametrize("edit, last, open_pairs", [
    # alpha_tilde_3000 = 10^400 times Example3's: it has NaN bounds, and only
    # alpha_tilde_2999 <= alpha_tilde_3000 and alpha_tilde_3000 <= 1/2 are
    # open; the exact pass forms g_2999, which alpha_tilde_3000 reads
    (_scale(0, 3000, 10**400), 3000, {2999, 3000}),
    # g_2000 = 10^400 times Example3's, and alpha_tilde_2001 = 10^-400 times:
    # both have NaN bounds, and the pass restarts from the exact g_2000 and
    # g_2001 and goes on in doubles from g_2002
    (_scale(1, 2000, Fraction(1, 10**400)), 2002, {2000, 2001, 2002}),
], ids=["alpha_3000*10^400", "gamma_2000/10^400"])
def test_szw_decides_exactly_only_what_the_doubles_lose(edit, last, open_pairs):
    """One quotient outside the normal doubles leaves open only the
    comparisons that read its NaN bounds: the exact ratio pass runs up to
    g_{last-1}, and the exact alpha_tilde_n pairs are formed only for those
    comparisons and for the witnesses at n = 0 and 1. The report is the
    Fraction reference's, Violated at the edited index."""
    family = _edited_example3(edit)
    got, passes, pairs = _exact_reads(lambda: _szw(check_szw_normalized, family, 3000))
    assert max(passes) == last
    assert set(pairs) <= {0, 1, *open_pairs}
    assert got == _szw(ref.check_szw_normalized, family, 3000)
    assert got["overall"] == "Violated"


def test_a_zero_sandwich_bound_past_the_cap_is_decided_exactly_on_its_row_only():
    """Past the digit cap (g_1329), row 2000 has w_2000 = 0 < v_2000, and its
    bound W/V = 0 has NaN bounds: only that row is decided on the exact
    g_2000, which breaks g_2000 <= 0. The exact pass past the cap goes no
    further than g_2000, and the rows are the uncapped reference's."""
    family = _edited_example3(_zero_bound_at_2000)
    got, passes = _extend_calls(lambda: _sandwich(ratio_sandwich, family, 3000))
    assert passes == [3000, 2001]  # the capped pass, then g_1330..g_2000
    row = got[0][2000]
    assert row.upper == 0 and row.lower_ok and not row.upper_ok
    assert got == _sandwich(ref.ratio_sandwich, family, 3000)


# ------------------------------------ column-built table, lean ratio pass, lambda rows

@pytest.mark.parametrize("family, N", [
    (legendre(), 1000), (chebyshev_t(), 1000), (gegenbauer(3), 1000),
    (example4(2, Fraction(1, 2)), 1000), (pollaczek(2, 1), 1000),
    (example3(Fraction(1, 3)), 1000),
], ids=lambda v: getattr(v, "name", str(v)))
def test_integer_ratio_pass_matches_at_the_default_cap(family, N):
    """At the default 4096-digit cap: no fallback within 1000 ratios, or
    Example3(1/3)'s at g_989, after the same g_n as the Fraction pass."""
    assert_ratio_pass_matches_reference(family, N, recurrence.DEFAULT_DIGIT_CAP)


@pytest.mark.parametrize("cap", [1, 25, 60, 200, 4096])
def test_the_bit_length_test_decides_the_digit_cap(cap):
    """The ratio pass stops at the first g_n = P/Q whose longer int has
    digit_cap_bits(cap) bits or more: for every bit length around that
    threshold, that is pair_digits(P, Q) > cap."""
    threshold = digit_cap_bits(cap)
    for bits in range(max(1, threshold - 50), threshold + 50):
        for p in (1 << (bits - 1), (1 << bits) - 1):
            for q in (1, 3, p, p + 2):
                longer = max(p.bit_length(), q.bit_length())
                assert (longer >= threshold) is (pair_digits(p, q) > cap), (bits, p, q)
                assert (longer >= threshold) is (pair_digits(q, p) > cap), (bits, p, q)


def _linear(form):
    """A callable with the value (a1*n + a0)/(b1*n + b0) of its ``linear`` form."""
    a1, a0, b1, b0 = form

    def at(n):
        return Fraction(a1 * n + a0, b1 * n + b0)
    at.linear = form
    return at


# ints beyond int64, and small ones whose pairs share factors
_form_int = st.one_of(st.integers(min_value=0, max_value=12),
                      st.integers(min_value=0, max_value=10**30))


@st.composite
def linear_families(draw):
    """(family, N): alpha and gamma from drawn linear forms, alpha_0 = 0 and
    gamma_0 > 0, up to N <= 300."""
    a1, b1, c1, d1 = (draw(_form_int) for _ in range(4))
    b0, c0, d0 = (draw(_form_int) + 1 for _ in range(3))
    family = CoefficientFamily(name="Linear", alpha=_linear((a1, 0, b1, b0)),
                               gamma=_linear((c1, c0, d1, d0)))
    return family, draw(st.integers(min_value=0, max_value=300))


@settings(max_examples=100, deadline=None)
@given(linear_families())
@example((legendre(), 300))
@example((pollaczek(Fraction(3, 2), 1), 300))
def test_column_built_step_table_equals_the_per_index_read(case):
    """The step table reads a linear form column by column; each column
    equals the coprime pairs of the values read one index at a time."""
    family, N = case
    table = _StepTable(family, N)
    for coeff, p, q in ((family.alpha, table.ap, table.aq), (family.gamma, table.gp, table.gq)):
        assert list(zip(p, q)) == list(map(_coprime_reader(coeff), range(N + 2)))
        assert all(type(v) is int for v in p + q)


@settings(max_examples=150, deadline=None)
@given(st.one_of(linear_families(), step_tables(), _builtin_cases,
                 st.builds(lambda case: (float_view(case[0]), case[1]), _builtin_cases)))
def test_step_columns_are_the_step_formulas(case):
    """The six step columns are the unreduced ints of the step docstring:
    with alpha_n = p0/q0, alpha_{n+1} = p1/q1, gamma_n = r0/s0 and
    gamma_{n+1} = r1/s1 in lowest terms, ud = q0*q1, vd = s0*s1, wd =
    ud*vd, and each numerator is its value, formed from Fractions here,
    times its denominator."""
    family, N = case
    un, ud, vn, vd, wn, wd = _StepTable(family, N).steps
    assert all(len(column) == N + 1 for column in (un, ud, vn, vd, wn, wd))
    al = [Fraction(family.alpha(n)) for n in range(N + 2)]
    ga = [Fraction(family.gamma(n)) for n in range(N + 2)]
    for n in range(N + 1):
        a0, a1, g0, g1 = al[n], al[n + 1], ga[n], ga[n + 1]
        assert ud[n] == a0.denominator * a1.denominator and un[n] == (a1 - a0) * ud[n]
        assert vd[n] == g0.denominator * g1.denominator and vn[n] == (g0 - g1) * vd[n]
        assert wd[n] == ud[n] * vd[n] and wn[n] == (a1 * g0 - a0 * g1) * wd[n]


@pytest.mark.parametrize("family", [
    chebyshev_t(), chebyshev_u(), legendre(), gegenbauer(3), pollaczek(2, 1),
    example3(2), example4(2, Fraction(1, 2)),
    example2(DeltaSeq(lambda n: Fraction(1, 6) / 2 ** n, limit=0),
             DeltaSeq(lambda n: Fraction(1, n) if n else Fraction(0), limit=0)),
], ids=lambda family: family.name)
def test_lambda_rows_are_the_rows_of_lambda_data(family):
    """The CLI writes each lambda row from the reduced ints of the step
    data: the rows that lambda_data prints from its Fractions, and that
    the Fraction reference prints, for the exact values and for their
    doubles."""
    for fam in (family, float_view(family)):
        want = ref.lambda_data(ref.exact_table(fam, 301), 300)
        assert lambda_data(fam, 300) == want
        assert _lambda_rows(fam, 300)[0] == list(lambda_data(fam, 300).rows()) == list(want.rows())


# ------------------------------------ the float64 tier of SzwTheorem1 and the column passes

def _within(lo: float, x: Fraction, hi: float) -> bool:
    """lo <= x <= hi for doubles lo and hi, either of which may be
    infinite, or NaN, which bounds nothing, compared exactly."""
    return ((lo == -math.inf or math.isnan(lo) or Fraction(lo) <= x)
            and (hi == math.inf or math.isnan(hi) or x <= Fraction(hi)))


def _exact_prefix(family, N):
    """The exact g_0.. and alpha_tilde_0.. of ``family`` in Fractions, up to
    g_{N-1} and alpha_tilde_N, or up to the first gamma_n = 0 or g_n <= 0,
    where they stop (alpha_tilde_n is then the last one formed)."""
    at, g = [Fraction(0)], []
    for n in range(N):
        c = Fraction(family.gamma(n))
        if c == 0 or not (1 - at[n]) / c > 0:
            break
        g.append((1 - at[n]) / c)
        at.append(Fraction(family.alpha(n + 1)) / g[n])
    return g, at


# Coefficients of either sign, ints past 2^1024 with a quotient in the
# doubles' range, quotients past the largest double, and quotients that are
# subnormal or round to zero.
_plain = st.fractions(min_value=-2, max_value=2, max_denominator=40)
_coefficients = st.one_of(
    _plain,
    st.builds(lambda f, k: f + Fraction(1, 2 ** k), _plain, st.sampled_from([1030, 1100])),
    st.builds(lambda f, k: f * 2 ** k, _plain, st.sampled_from([1000, 1024, 1100])),
    st.builds(lambda f, k: f / 2 ** k, _plain, st.sampled_from([1000, 1030, 1074, 1100])),
)


@st.composite
def float_tier_tables(draw):
    """(family, N): alpha_0 = 0, gamma_0 > 0, and the other coefficients
    drawn from _coefficients."""
    size = draw(st.integers(min_value=2, max_value=10))
    alphas = [0] + draw(st.lists(_coefficients, min_size=size - 1, max_size=size - 1))
    gammas = ([draw(_coefficients.filter(lambda v: v > 0))]
              + draw(st.lists(_coefficients, min_size=size - 1, max_size=size - 1)))
    return _family(alphas, gammas), draw(st.integers(min_value=1, max_value=size - 1))


_THIRDS = _family([0, Fraction(1, 3), Fraction(1, 3)], [Fraction(2, 3), Fraction(1, 3), 1])
_HUGE_ALPHA = _family([0, Fraction(2 ** 1100, 3), Fraction(1, 3)], [1, 1, 1])
_TINY_ALPHA = _family([0, Fraction(1, 3 * 2 ** 1060), Fraction(1, 3)], [1, Fraction(1, 2), 1])
_BIG_INTS = _family([0, Fraction(1, 3) + Fraction(1, 2 ** 1100), Fraction(1, 3)],
                    [Fraction(2, 3) - Fraction(1, 2 ** 1030), Fraction(1, 2), 1])


@settings(max_examples=300, deadline=None)
@given(st.one_of(float_tier_tables(), step_tables(), _int_step_tables, _builtin_cases))
@example((_THIRDS, 2))  # 1/3 and 2/3 round to the nearest double on either side
@example((_HUGE_ALPHA, 2))  # alpha_1 past the largest double: its bounds are NaN
@example((_TINY_ALPHA, 2))  # alpha_1 subnormal: its bounds are NaN
@example((_BIG_INTS, 2))  # 1000-digit ints whose quotients are plain doubles
@example((_NONPOSITIVE, 3))
@example((_ZERO_GAMMA, 2))
@example((chebyshev_t(), 30))
def test_float_bounds_hold_the_exact_values(case):
    """Every exact g_n and alpha_tilde_n lies in each float bound that is
    not NaN, and a NaN appears only where a quotient leaves the normal
    doubles. The bounds restart from the exact g_n where a lower bound is
    not positive or is NaN, and so raise NonpositiveRatio where the exact
    g_n <= 0 and ParamError at a zero gamma_n. SzwTheorem1 reports what
    the Fraction reference reports."""
    family, N = case
    table = _step_table(family, N - 1)
    g, at = _exact_prefix(family, N)
    try:
        bounds = list(_ratio_bounds(table, N, _ExactRatios(table)))
    except ParamError:
        assert len(g) < N and Fraction(family.gamma(len(g))) == 0
    except NonpositiveRatio as exc:
        assert len(g) == exc.n < N and not (1 - at[exc.n]) / Fraction(family.gamma(exc.n)) > 0
    else:
        assert len(bounds) == N + 1 and len(g) == N
        assert _no_nan_unless_outside([b for row in bounds for b in row if b is not None],
                                      family, N, g)
        for n, (a_lo, a_hi, g_lo, g_hi) in enumerate(bounds):
            assert _within(a_lo, at[n], a_hi)
            if n < N:
                assert not g_lo <= 0 and _within(g_lo, g[n], g_hi)
    assert _szw(check_szw_normalized, family, N) == _szw(ref.check_szw_normalized, family, N)


def test_float_quotients_enclose_each_quotient():
    """1/3 rounds down to its double and 2/3 up; each bound is one double
    away from the nearest, on its side. A quotient whose nearest double is
    not normal has NaN bounds, and the others of its column keep theirs."""
    whole = recurrence._float_quotients([1, 2], [3, 3])
    (lo_third, lo_two), (hi_third, hi_two) = whole
    for lo, hi, exact in ((lo_third, hi_third, Fraction(1, 3)), (lo_two, hi_two, Fraction(2, 3))):
        assert Fraction(lo) < exact < Fraction(hi)
        assert math.nextafter(lo, math.inf) == float(exact) == math.nextafter(hi, -math.inf)
    for p, q in ((1, 2 ** 1023), (0, 1), (2 ** 1100, 3), (-(2 ** 1100), 3)):
        lo, hi = recurrence._float_quotients([1, p, 2], [3, q, 3])
        assert math.isnan(lo[1]) and math.isnan(hi[1])
        assert (lo[::2], hi[::2]) == whole
    (lo,), (hi,) = recurrence._float_quotients([1], [2 ** 1022])  # the least normal double
    assert 0 < lo < 2.0 ** -1022 < hi


@pytest.mark.parametrize("family", [legendre(), gegenbauer(3), example3(2), pollaczek(2, 1),
                                    chebyshev_u(), example4(3, Fraction(1, 2))],
                         ids=lambda family: family.name)
def test_the_float_tier_decides_the_builtins_at_3000(family):
    """On these builtins the doubles separate every SzwTheorem1 comparison
    up to 3000, so the exact ratios are formed only for the witnesses at
    n = 0 and 1."""
    report, bounds = _extend_calls(lambda: check_szw_normalized(family, 3000))
    assert report.overall.value == "Satisfied"
    assert max(bounds) <= 1


def test_chebyshev_t_ties_are_decided_on_exact_ints():
    """alpha_tilde_n = 1/2 for n >= 1, which no pair of distinct doubles
    separates from 1/2 or from its neighbour: every comparison is open, and
    one exact ratio pass up to n = 3000 decides them all on int pairs. The
    report is the one the exact values give."""
    table = _step_table(chebyshev_t(), 2999)
    lo, hi, _, _ = zip(*_ratio_bounds(table, 3000, _ExactRatios(table)))
    assert all(a < 0.5 < b for a, b in zip(lo[1:], hi[1:]))
    got, bounds = _extend_calls(lambda: _szw(check_szw_normalized, chebyshev_t(), 3000))
    assert [n for n in bounds if n > 1] == [3000]
    assert got == _szw(ref.check_szw_normalized, chebyshev_t(), 3000)


_REPORT_FAMILIES = [chebyshev_t(), chebyshev_u(), legendre(), gegenbauer(3),
                    gegenbauer(Fraction(1, 3)), pollaczek(2, 1), pollaczek(Fraction(1, 2), 1),
                    example3(2), example3(Fraction(1, 2)), example4(3, Fraction(1, 2))]


@pytest.mark.parametrize("family", [*_REPORT_FAMILIES, *map(float_view, _REPORT_FAMILIES)],
                         ids=lambda family: f"{family.name}{'' if family.exact else '-float'}")
def test_builtin_reports_match_the_fraction_reference(family):
    """Every checker that criterion_reports runs, on the builtins and on
    their doubles, reports what its Fraction reference reports, witnesses
    included."""
    N = 300
    table = ref.exact_table(family, N + 1)
    want = [ref.check_theorem1(table, N), ref.check_szw_normalized(table, N),
            ref.check_lambda_route(table, N)]
    try:
        want.append(ref.check_y_route(table, N))
    except InvalidLambda as exc:
        want.append(f"InvalidLambda: {exc}")
    reports = criterion_reports(family, N)
    got = [r.to_json() for r in reports[:3]]
    y = reports[3]
    got.append(f"InvalidLambda: {y.notes['error']}" if "error" in y.notes else y.to_json())
    assert got == [w if isinstance(w, str) else w.to_json() for w in want]


@pytest.mark.parametrize("family", [legendre(), chebyshev_t(), pollaczek(2, 1),
                                    example3(Fraction(1, 2)),
                                    float_view(example4(3, Fraction(1, 2)))],
                         ids=lambda family: f"{family.name}{'' if family.exact else '-float'}")
def test_a_longer_step_table_reports_up_to_n(family):
    """A checker handed a step table that reaches past N reads its columns
    only up to N: every report, and the lambda rows, equal those of a table
    built for N."""
    N, longer = 120, _StepTable(family, 157)
    for check in (check_theorem1, check_lambda_route, check_y_route):
        assert _outcome(check, longer, N) == _outcome(check, family, N)
    assert lambda_data(longer, N) == lambda_data(family, N)
    assert _lambda_rows(longer, N)[0] == _lambda_rows(family, N)[0]
