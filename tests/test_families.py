import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import monotone_ratio_table
from turandet import (
    FAMILY_KINDS,
    DeltaSeq,
    FamilySpec,
    ParamError,
    build,
    certified,
    chebyshev_u,
    classify,
    coefficients,
    corollary1_family,
    corollary2_family,
    criterion_reports,
    example2,
    example3,
    example4,
    gegenbauer,
    legendre,
    pollaczek,
    table_family,
)


def test_kind_registry():
    assert FAMILY_KINDS == ("ChebyshevT", "ChebyshevU", "Legendre", "Gegenbauer",
                            "Pollaczek", "Example2", "Example3", "Example4", "Table")


def test_pollaczek_coefficients():
    fam = pollaczek(1, 2)
    assert fam.gamma(0) == F(1, 3)
    assert fam.alpha(1) == F(1, 8)
    assert "unchecked" in fam.meta  # a >= lambda: corollary shape not available
    fam2 = pollaczek(2, 1)
    shape = fam2.meta["corollary1"]
    assert shape.alpha_const == 3 and shape.gamma_const == 1
    assert shape.delta(0) == F(1, 6)


positive = st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64)


@settings(max_examples=30, deadline=None)
@given(lam=positive, a=positive, b=st.fractions(min_value=0, max_value=8, max_denominator=64))
def test_builtin_coefficients_equal_their_closed_forms(lam, a, b):
    """The integer-form coefficients are the docstring Fractions, index for index."""
    half, s = F(1, 2), lam + a
    closed = [
        (chebyshev_u(), lambda n: F(n, 2 * (n + 1)), lambda n: F(n + 2, 2 * (n + 1))),
        (legendre(), lambda n: F(n, 2 * n + 1), lambda n: F(n + 1, 2 * n + 1)),
        (gegenbauer(lam), lambda n: n / (2 * (n + lam)),
         lambda n: (n + 2 * lam) / (2 * (n + lam))),
        (pollaczek(lam, a), lambda n: n / (2 * (n + s)), lambda n: (n + 2 * lam) / (2 * (n + s))),
        (example3(a), lambda n: half - a / (2 * (n + a)), lambda n: half + a / (2 * (n + a + 1))),
        (example4(a, b), lambda n: half - a / (2 * (n + a)),
         lambda n: half + a / (2 * (n + a + b + 1))),
    ]
    # lambda > a, so the family carries the corollary shape with delta_n = 1/(2(n+lambda+a))
    shape = pollaczek(lam + a, a).meta["corollary1"]
    assert (shape.alpha_const, shape.gamma_const) == (lam + 2 * a, lam)
    for n in (*range(301), 10**5):
        for fam, alpha, gamma in closed:
            assert (fam.alpha(n), fam.gamma(n)) == (alpha(n), gamma(n)), (fam.name, n)
            assert type(fam.alpha(n)) is F and type(fam.gamma(n)) is F
        assert shape.delta(n) == 1 / (2 * (n + lam + 2 * a))


def test_integer_forms_are_the_documented_closed_forms():
    """Each builtin's ``pair`` gives ints over a positive int whose quotient is
    the docstring closed form, and the value is that quotient, for n <= 50."""
    lam, a, b = F(3, 7), F(5, 3), F(1, 4)
    half, s = F(1, 2), lam + a
    closed = [
        (chebyshev_u(), lambda n: F(n, 2 * (n + 1)), lambda n: F(n + 2, 2 * (n + 1))),
        (legendre(), lambda n: F(n, 2 * n + 1), lambda n: F(n + 1, 2 * n + 1)),
        (gegenbauer(lam), lambda n: n / (2 * (n + lam)),
         lambda n: (n + 2 * lam) / (2 * (n + lam))),
        (pollaczek(lam, a), lambda n: n / (2 * (n + s)), lambda n: (n + 2 * lam) / (2 * (n + s))),
        (example3(a), lambda n: half - a / (2 * (n + a)), lambda n: half + a / (2 * (n + a + 1))),
        (example4(a, b), lambda n: half - a / (2 * (n + a)),
         lambda n: half + a / (2 * (n + a + b + 1))),
    ]
    for fam, alpha, gamma in closed:
        for n in range(51):
            for coeff, form in ((fam.alpha, alpha), (fam.gamma, gamma)):
                num, den = coeff.pair(n)
                assert type(num) is int and type(den) is int and den > 0, (fam.name, n)
                assert coeff(n) == F(num, den) == form(n), (fam.name, n)


def test_gegenbauer_one_is_chebyshev_u():
    a1, g1 = coefficients(gegenbauer(1), 20)
    a2, g2 = coefficients(chebyshev_u(), 20)
    assert a1 == a2 and g1 == g2


def test_example4_b_zero_is_example3():
    a1, g1 = coefficients(example4(2, 0), 25)
    a2, g2 = coefficients(example3(2), 25)
    assert a1 == a2 and g1 == g2


def test_example3_values():
    fam = example3(1)
    assert fam.alpha(1) == F(1, 4)
    assert fam.gamma(0) == F(3, 4)
    assert fam.alpha(0) == 0


def test_example2_derives_delta0():
    eps = DeltaSeq(lambda n: F(1, 8) / 2 ** n, limit=0)
    delta = DeltaSeq(lambda n: F(1, n + 1), limit=0)
    fam = example2(eps, delta)  # delta_0 forced to 1/(6 eps_0) - 1 = 1/3
    assert fam.params["delta0"] == F(1, 3)
    assert fam.alpha(0) == 0
    assert fam.gamma(0) == F(1, 2) + F(1, 8)


def test_example2_validates_constraint():
    eps = DeltaSeq(lambda n: F(1, 6) / 2 ** n, limit=0)
    delta = DeltaSeq(lambda n: F(1, n + 1), limit=0)
    with pytest.raises(ParamError):
        example2(eps, delta, delta0=F(1, 2))  # eps_0*(1+delta0) != 1/6


def test_example2_rejects_nondecreasing_eps():
    eps = DeltaSeq.from_values([F(1, 6), F(1, 6), F(1, 6)])
    delta = DeltaSeq.from_values([F(0), F(0), F(0)])
    with pytest.raises(ParamError):
        example2(eps, delta)


def test_builder_parameter_validation():
    for bad in (lambda: gegenbauer(0), lambda: pollaczek(0, 1),
                lambda: pollaczek(1, 0), lambda: example3(0),
                lambda: example4(1, F(-1, 2))):
        with pytest.raises(ParamError):
            bad()


def test_table_validation():
    with pytest.raises(ParamError, match="alpha_0"):
        table_family([F(1, 4), F(1, 4)], [F(1, 2), F(1, 2)])
    with pytest.raises(ParamError):
        table_family([0, F(1, 4)], [F(1, 2)])  # length mismatch
    with pytest.raises(ParamError):
        table_family([], [])
    with pytest.raises(ParamError):
        table_family([0, F(-1, 4)], [F(1, 2), F(1, 2)])
    with pytest.raises(ParamError):
        table_family([0, F(1, 4)], [F(1, 2), 0])


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_table_rejects_non_finite_values(bad):
    with pytest.raises(ParamError, match="alpha_1 must be finite"):
        table_family([0, bad, 0.3], [1.0, 0.5, 0.5])
    with pytest.raises(ParamError, match="gamma_2 must be finite"):
        table_family([0, 0.5, 0.3], [1.0, 0.5, bad])


def test_table_exactness_detection():
    assert table_family([0, F(1, 4)], [F(1, 2), F(1, 2)]).exact
    assert table_family([0, "1/4"], ["1/2", "1/2"]).exact
    assert not table_family([0, 0.25], [0.5, 0.5]).exact


def test_corollary_builders_pin_shape():
    d = DeltaSeq(lambda n: F(1, 2 * n + 2), limit=0)
    fam = corollary1_family(1, 1, d)
    assert fam.alpha(0) == 0
    assert fam.alpha(2) == F(1, 2) - F(1, 6)
    assert fam.gamma(2) == F(1, 2) + F(1, 6)
    assert "corollary1" in fam.meta

    d2 = DeltaSeq(lambda n: F(1, 5) / (n + 1), limit=0)
    fam2 = corollary2_family(2, 1, d2)
    assert fam2.alpha(0) == 0
    assert fam2.alpha(1) == F(1, 2) - F(2, 10)
    assert "corollary2" in fam2.meta


def test_corollary1_builder_requires_half_product():
    d = DeltaSeq(lambda n: F(1, 4 * n + 4), limit=0)
    with pytest.raises(ParamError):
        corollary1_family(1, 1, d)  # 1 * 1/4 != 1/2


def test_family_spec_round_trip():
    spec = FamilySpec.from_json({"kind": "Gegenbauer", "params": {"lambda": "3/2"}})
    fam = build(spec)
    assert fam.name == "Gegenbauer"
    assert fam.gamma(0) == F(0 + 3, 2 * F(3, 2)) / 1  # (n+2*lam)/(2(n+lam)) at n=0
    assert spec.to_json() == {"kind": "Gegenbauer", "params": {"lambda": "3/2"}}


def test_family_spec_table_round_trip():
    obj = {"kind": "Table", "alpha": [0, "1/4"], "gamma": ["3/4", "1/2"]}
    spec = FamilySpec.from_json(obj)
    fam = build(spec)
    assert fam.exact
    assert fam.alpha(1) == F(1, 4)
    assert spec.to_json() == obj


def test_family_spec_rejects_unknown_kind_and_params():
    known = ("ChebyshevT, ChebyshevU, Legendre, Gegenbauer, Pollaczek, Example2, "
             "Example3, Example4, Table")
    for bad, message in (
            (lambda: FamilySpec.from_json({"kind": "Hermite"}),
             f"unknown family kind 'Hermite'; known: {known}"),
            (lambda: FamilySpec.from_json(["Legendre"]),
             "family spec must be an object with a 'kind' field"),
            (lambda: FamilySpec.from_json({"kind": "Table", "alpha": [0]}),
             "Table spec needs 'alpha' and 'gamma' lists"),
            (lambda: build(SimpleNamespace(kind="Hermite", params={}, table=None)),
             "unknown family kind 'Hermite'")):
        with pytest.raises(ParamError) as err:
            bad()
        assert str(err.value) == message


# Every message build gives for the params of a kind, as printed: an
# unexpected param is named before a missing one.
_BUILD_MESSAGES = [
    ("ChebyshevT", {"a": 1}, "ChebyshevT: unexpected params ['a']"),
    ("ChebyshevU", {"x": 2, "lambda": 1}, "ChebyshevU: unexpected params ['lambda', 'x']"),
    ("Legendre", {"a": 1}, "Legendre: unexpected params ['a']"),
    ("Gegenbauer", {}, "Gegenbauer: missing required param 'lambda'"),
    ("Gegenbauer", {"lambda": 1, "a": 1}, "Gegenbauer: unexpected params ['a']"),
    ("Pollaczek", {"a": 1}, "Pollaczek: missing required param 'lambda'"),
    ("Pollaczek", {"lambda": 1}, "Pollaczek: missing required param 'a'"),
    ("Pollaczek", {"lambda": 1, "b": 1}, "Pollaczek: unexpected params ['b']"),
    ("Example3", {}, "Example3: missing required param 'a'"),
    ("Example3", {"b": 1}, "Example3: unexpected params ['b']"),
    ("Example4", {"b": 1}, "Example4: missing required param 'a'"),
    ("Example4", {"a": 1}, "Example4: missing required param 'b'"),
    ("Example4", {"a": 1, "b": 1, "lambda": 1}, "Example4: unexpected params ['lambda']"),
    ("Example2", {"eps": [1]}, "Example2: missing required param 'delta'"),
    ("Example2", {"a": 1}, "Example2: unexpected params ['a']"),
    ("Table", {"alpha": [0]}, "Table: unexpected params ['alpha']"),
    ("Table", {"name": "T"}, "Table spec needs alpha/gamma lists"),
]


@pytest.mark.parametrize("kind, params, message", _BUILD_MESSAGES)
def test_build_messages(kind, params, message):
    with pytest.raises(ParamError) as err:
        build(FamilySpec(kind, params))
    assert str(err.value) == message


def test_sequence_specs_via_build():
    spec = FamilySpec.from_json({
        "kind": "Example2",
        "params": {
            "eps": {"kind": "geometric", "first": "1/6", "ratio": "1/2"},
            "delta": {"kind": "harmonic", "scale": 1, "shift": 0},
        },
    })
    fam = build(spec)
    assert fam.gamma(0) == F(2, 3)
    assert fam.alpha(1) == 0  # delta_1 = 1 makes 3*eps_1*(1+delta_1) = 1/2
    with pytest.raises(ParamError):
        build(FamilySpec.from_json({
            "kind": "Example2",
            "params": {"eps": {"kind": "geometric", "first": "1/6", "ratio": 2},
                       "delta": {"kind": "harmonic", "scale": 1, "shift": 0}}}))


def test_classify_built_ins():
    assert classify(pollaczek(1, F(1, 2)), 60) == [
        "Theorem1", "SzwTheorem1", "Corollary1", "LambdaRoute", "YRoute"]
    assert classify(example3(1), 60) == [
        "Theorem1", "SzwTheorem1", "LambdaRoute", "YRoute"]
    # U sits on the lambda = 1 boundary: the y-transform is undefined there
    assert classify(chebyshev_u(), 60) == ["Theorem1", "SzwTheorem1", "LambdaRoute"]
    assert classify(legendre(), 60) == ["Theorem1", "SzwTheorem1", "LambdaRoute"]


def test_classify_chebyshev_t_prior_criterion_only():
    """T fails the strict monotonicity hypotheses but its constant normalized
    alpha-tilde = 1/2 passes the nondecreasing prior criterion."""
    from turandet import chebyshev_t
    assert classify(chebyshev_t(), 60) == ["SzwTheorem1"]


def test_classify_corollary2_instance():
    d = DeltaSeq(lambda n: F(1, 5) / (n + 1), limit=0)
    names = classify(corollary2_family(2, 1, d), 60)
    assert "Corollary2" in names and "Theorem1" in names


@given(seed=st.integers(min_value=0, max_value=2**31), steps=st.integers(min_value=3, max_value=10))
def test_classify_is_certified_of_the_reports(seed, steps):
    """classify runs the checkers once and certifies from their reports."""
    family = monotone_ratio_table(random.Random(seed), steps)
    N = steps - 1
    reports = criterion_reports(family, N)
    assert [r.criterion for r in reports] == ["Theorem1", "SzwTheorem1", "LambdaRoute", "YRoute"]
    names = certified(reports)
    assert classify(family, N) == names
    satisfied = {r.criterion for r in reports if r.overall.value == "Satisfied"}
    assert set(names) <= satisfied
