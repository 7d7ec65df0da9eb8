from fractions import Fraction as F

import pytest

from turandet import (
    DeltaSeq,
    InvalidLambda,
    ParamError,
    StructuralMismatch,
    Verdict,
    chebyshev_t,
    chebyshev_u,
    check_corollary1,
    check_corollary2,
    check_lambda_route,
    check_szw_normalized,
    check_theorem1,
    check_y_route,
    corollary1_family,
    example2,
    example3,
    example4,
    float_view,
    lambda_data,
    lambda_step_bound,
    legendre,
    matches_corollary1,
    matches_corollary2,
    normalize,
    pollaczek,
    table_family,
    y_from_lambda,
)


# ---------------------------------------------------------------- main criterion

def test_example3_satisfied_with_exact_witnesses():
    rep = check_theorem1(example3(1), 100)
    assert rep.overall is Verdict.SATISFIED
    assert rep.checked_up_to == 100
    step = rep.condition("step-inequality")
    assert step.holds is True
    assert step.witness == (F(4, 3), F(19, 12))
    init = rep.condition("initial-inequality")
    assert init.witness == (F(1, 12), F(9, 64))
    assert init.witness[0] <= init.witness[1]


def test_chebyshev_t_violations_pinned():
    rep = check_theorem1(chebyshev_t(), 50)
    assert rep.overall is Verdict.VIOLATED
    a = rep.condition("alpha-increasing-le-half")
    b = rep.condition("gamma-positive-decreasing")
    assert (a.holds, a.first_violation) == (False, 2)
    assert (b.holds, b.first_violation) == (False, 2)
    # the sum and initial conditions still hold for T
    assert rep.condition("sum-le-one").holds is True
    assert rep.condition("initial-inequality").holds is True


def test_theorem1_requires_two_indices():
    with pytest.raises(ParamError):
        check_theorem1(example3(1), 1)


def test_step_inconclusive_when_denominator_vanishes():
    # alpha flat at 1/4 makes alpha_n*gamma_{n-1} - alpha_{n-1}*gamma_n zero
    fam = table_family([0, F(1, 4), F(1, 4), F(1, 4)],
                       [F(1, 2), F(1, 2), F(1, 2), F(1, 2)])
    rep = check_theorem1(fam, 2)
    assert rep.condition("step-inequality").holds is None
    assert rep.overall is Verdict.VIOLATED  # (a) and (b) already fail


def test_sum_violation_witness():
    fam = table_family([0, F(2, 5), F(9, 20), F(1, 2)],
                       [F(4, 5), F(7, 10), F(13, 20), F(3, 5)])
    rep = check_theorem1(fam, 2)
    c = rep.condition("sum-le-one")
    assert c.holds is False
    assert c.first_violation == 1
    lhs, rhs = c.witness
    assert lhs > rhs  # recomputing the comparison reproduces the verdict


def test_float_overshoot_is_violated():
    # alpha_2 + gamma_2 overshoots 1 by 5e-15: the exact values of the
    # doubles break the condition, and no margin forgives it
    fam = table_family([0.0, 0.2, 0.45, 0.46],
                       [0.75, 0.7, 0.55 + 5e-15, 0.3])
    c = check_theorem1(fam, 2).condition("sum-le-one")
    assert c.holds is False
    assert c.first_violation == 2
    assert c.witness == (F(0.45) + F(0.55 + 5e-15), 1)


def test_float_check_catches_a_shrunk_gamma_step():
    """Example3(1) with the gamma step at n = 2501 shrunk 50x breaks the step
    inequality by a gap far below the doubles' relative size; the float view
    must report it where the exact table does."""
    fam = example3(1)
    al = [fam.alpha(n) for n in range(3003)]
    ga = [fam.gamma(n) for n in range(3003)]
    ga[2501] = ga[2500] - (ga[2500] - ga[2501]) / 50
    table = table_family(al, ga)
    for t in (table, float_view(table)):
        rep = check_theorem1(t, 3000)
        assert rep.overall is Verdict.VIOLATED
        assert rep.condition("step-inequality").first_violation == 2501


# ---------------------------------------------------- normalized (prior) criterion

def test_szw_legendre_satisfied():
    rep = check_szw_normalized(normalize(legendre(), 50), 50)
    assert rep.overall is Verdict.SATISFIED
    assert {c.label for c in rep.conditions} == {
        "alpha-tilde-nondecreasing", "alpha-tilde-le-half"}


def test_szw_flat_alpha_is_satisfied():
    # nondecreasing, not strictly increasing: constant alpha-tilde passes
    rep = check_szw_normalized(normalize(chebyshev_t(), 30), 30)
    assert rep.overall is Verdict.SATISFIED


def test_szw_bound_violation():
    fam = table_family([0, F(3, 10), F(2, 5), F(51, 100)],
                       [F(1, 2), F(1, 2), F(1, 2), F(1, 2)])
    rep = check_szw_normalized(fam, 3)  # plain family: read as already-normalized
    c = rep.condition("alpha-tilde-le-half")
    assert c.holds is False
    assert c.first_violation == 3
    assert c.witness == (F(51, 100), F(1, 2))


# ----------------------------------------------------------------- corollaries

def test_corollary1_pollaczek_parameters():
    d = DeltaSeq(lambda n: F(1, 2 * n + 3), limit=0)
    rep = check_corollary1(F(3, 2), F(1, 2), d, 100)
    assert rep.overall is Verdict.SATISFIED
    half = rep.condition("alpha-times-delta0-is-half")
    assert half.holds is True


def test_corollary1_boundary_alpha_equals_gamma():
    d = DeltaSeq(lambda n: F(1, 2 * (n + 1)), limit=0)
    rep = check_corollary1(1, 1, d, 50)
    assert rep.overall is Verdict.SATISFIED


def test_corollary1_wrong_order_violated():
    d = DeltaSeq(lambda n: F(1, 2 * n + 2), limit=0)
    rep = check_corollary1(1, 2, d, 10)
    assert rep.condition("alpha-ge-gamma-positive").holds is False
    assert rep.overall is Verdict.VIOLATED


def test_corollary1_tail_inconclusive_without_declared_limit():
    # delta decreasing but no limit was declared: no finite table decides the
    # limit, however small its last value, so the condition is undecided
    for A, values in ((2, [F(1, 4), F(1, 8), F(1, 16)]),
                      (1, [F(1, 2), F(1, 4), F(1, 10**7) + F(1, 10**9),
                           F(1, 10**7) + F(1, 10**10)])):
        d = DeltaSeq.from_values(values)
        rep = check_corollary1(A, 1, d, len(values) - 1)
        assert rep.condition("delta-limit-zero").holds is None
        assert rep.overall is Verdict.INCONCLUSIVE


def test_corollary2_window():
    d = lambda d0: DeltaSeq(lambda n, _d=F(d0): _d / (n + 1), limit=0)
    rep = check_corollary2(2, 1, d("1/5"), 100)
    assert rep.overall is Verdict.SATISFIED
    lo = rep.condition("delta0-above-lower-bound")
    hi = rep.condition("delta0-below-upper-bound")
    assert lo.witness == (F(1, 6), F(1, 5))
    assert hi.witness == (F(1, 5), F(1, 4))

    rep = check_corollary2(2, 1, d("3/10"), 100)
    assert rep.condition("delta0-below-upper-bound").holds is False
    assert rep.overall is Verdict.VIOLATED

    rep = check_corollary2(2, 1, d("1/10"), 100)
    assert rep.condition("delta0-above-lower-bound").holds is False


@pytest.mark.parametrize("A, G", [(1, 0), (0, 1), (1, -1)])
def test_corollary2_window_undecided_without_the_order(A, G):
    """Unless A >= G > 0 the window's bounds may divide by zero (G, A + G or
    A is 0): both window conditions are undecided and the report is
    Violated by alpha-ge-gamma-positive, as Corollary1's is."""
    d = [F(1, 2), F(1, 4), F(1, 8)]
    rep = check_corollary2(A, G, d, 2)
    assert rep.condition("alpha-ge-gamma-positive").holds is False
    for label in ("delta0-above-lower-bound", "delta0-below-upper-bound"):
        assert rep.condition(label).holds is None
        assert rep.condition(label).witness is None
    assert rep.overall is Verdict.VIOLATED
    assert check_corollary1(A, G, d, 2).overall is Verdict.VIOLATED


def test_structural_match_pollaczek():
    pol = pollaczek(1, F(1, 2))
    shape = pol.meta["corollary1"]
    assert matches_corollary1(pol, shape.alpha_const, shape.gamma_const, shape.delta, 50)
    assert not matches_corollary1(pol, 2, F(1, 2), shape.delta, 50)
    rep = check_corollary1(shape.alpha_const, shape.gamma_const, shape.delta, 50,
                           family=pol)
    assert rep.overall is Verdict.SATISFIED


def test_structural_mismatch_raises_in_checker():
    pol = pollaczek(1, F(1, 2))
    shape = pol.meta["corollary1"]
    with pytest.raises(StructuralMismatch):
        check_corollary1(2, F(1, 2), shape.delta, 20, family=pol)


def test_corollary2_structural_match_on_builder_output():
    d = DeltaSeq(lambda n: F(1, 5) / (n + 1), limit=0)
    from turandet import corollary2_family
    fam = corollary2_family(2, 1, d)
    assert matches_corollary2(fam, 2, 1, d, 30)
    assert fam.alpha(0) == 0


# ----------------------------------------------------------------- route data

def test_lambda_data_example3_closed_form():
    ld = lambda_data(example3(1), 30)
    for n in range(31):
        assert ld.lam[n] == F(n + 1, n + 3)
        assert ld.valid[n]
    assert ld.y == tuple(F(n + 2) for n in range(31))


def test_lambda_data_example4_y_closed_form():
    ld = lambda_data(example4(1, 1), 20)
    for n in range(21):
        want = F(n, 2) + F(5, 4) + F(3, 4 * (2 * n + 5))
        assert ld.y[n] == want
        assert ld.y[n] - (ld.y[n - 1] if n else ld.y[0]) <= 1


def test_lambda_data_flags_undefined_entries():
    fam = table_family([0, F(1, 4), F(1, 4)], [F(3, 4), F(1, 2), F(2, 5)])
    ld = lambda_data(fam, 1)
    assert ld.u[1] == 0
    assert ld.lam[1] is None and ld.y[1] is None
    assert not ld.valid[1]


def test_step_bound_function():
    assert lambda_step_bound(F(1)) == 1
    assert lambda_step_bound(F(1, 3)) == F(1, 2)
    assert y_from_lambda(F(1, 3)) == 2


def test_lambda_route_example3_boundary_tight():
    rep = check_lambda_route(example3(1), 100)
    assert rep.overall is Verdict.SATISFIED
    ld = lambda_data(example3(1), 100)
    for n in range(1, 101):
        assert lambda_step_bound(ld.lam[n - 1]) == ld.lam[n]
    assert rep.notes["shortcut_lambda_le_one_third"] is False


def test_lambda_route_example2_shortcut():
    eps = DeltaSeq(lambda n: F(1, 6) / 2 ** n, limit=0)
    delta = DeltaSeq(lambda n: F(1, n) if n else F(0), limit=0)
    fam = example2(eps, delta)
    rep = check_lambda_route(fam, 60)
    assert rep.overall is Verdict.SATISFIED
    assert rep.notes["shortcut_lambda_le_one_third"] is True
    assert rep.notes["lambda_invalid_indices"] == [0]  # alpha_1 = alpha_0 = 0 here


def test_y_route_raises_on_lambda_one():
    # Chebyshev-U has u_n = v_n, i.e. lambda identically 1
    with pytest.raises(InvalidLambda) as exc:
        check_y_route(chebyshev_u(), 10)
    assert exc.value.n == 0


def test_y_route_example4():
    rep = check_y_route(example4(1, 1), 80)
    assert rep.overall is Verdict.SATISFIED
    c = rep.condition("y-increments-at-most-one")
    assert c.holds is True


def test_routes_agree_on_example3():
    lam = check_lambda_route(example3(2), 60)
    y = check_y_route(example3(2), 60)
    assert lam.overall == y.overall == Verdict.SATISFIED


def test_lambda_route_ratio_condition_violation():
    # gamma excess shrinks faster than alpha gap: ratio (gamma-1/2)/(1/2-alpha) drops
    fam = table_family(
        [0, F(1, 10), F(2, 10), F(3, 10)],
        [F(9, 10), F(8, 10), F(13, 20), F(12, 20)])
    rep = check_lambda_route(fam, 2)
    c = rep.condition("ratio-nondecreasing")
    assert c.holds is False
    assert rep.overall is Verdict.VIOLATED
    assert rep.notes["lambda_invalid_indices"] == [1]  # lambda_1 = 3/2 > 1


def test_corollary1_family_constant_lambda():
    d = DeltaSeq(lambda n: F(1, 2 * n + 3), limit=0)  # A*delta_0 = 3/2 * 1/3 = 1/2
    fam = corollary1_family(F(3, 2), F(1, 2), d)
    ld = lambda_data(fam, 20)
    assert all(v == F(1, 3) for v in ld.lam)  # gamma/alpha, constant
    rep = check_lambda_route(fam, 20)
    assert rep.overall is Verdict.SATISFIED


# ------------------------------------------------------------------ reporting

def test_report_json_shape():
    rep = check_theorem1(example3(1), 10)
    js = rep.to_json()
    assert js["criterion"] == "Theorem1"
    assert js["overall"] == "Satisfied"
    assert js["checked_up_to"] == 10
    labels = [c["label"] for c in js["conditions"]]
    assert labels == ["alpha-increasing-le-half", "gamma-positive-decreasing",
                      "sum-le-one", "step-inequality", "initial-inequality"]
    step = js["conditions"][3]
    assert step["witness"] == ["4/3", "19/12"]
    assert step["first_violation"] is None


def test_condition_lookup_raises_on_unknown_label():
    rep = check_theorem1(example3(1), 5)
    with pytest.raises(KeyError):
        rep.condition("nonexistent")
