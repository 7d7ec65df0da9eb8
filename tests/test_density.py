import functools
import math
import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turandet import (
    CoefficientFamily,
    ParamError,
    associated_family,
    chebyshev_u,
    coefficients,
    default_density_grid,
    estimate_density,
    example3,
    example4,
    float_view,
    gegenbauer,
    legendre,
    orthonormal_offdiag,
    orthonormal_turan,
    pollaczek,
    table_family,
)
from turandet.arith import decimal_context
from turandet.density import _last_dets
from turandet.recurrence import _MIN_BLOCKS, _block_size, _dets, _linear_offdiag, _rows


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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParamError, match=rf"x must be a finite number \(got {bad!r}\)"):
            orthonormal_turan([0.5] * 10, 3, bad)


def test_legendre_limit_at_zero():
    a = orthonormal_offdiag(legendre(), 2001)
    val = orthonormal_turan(a, 2000, 0.0)
    assert val == pytest.approx(4 / math.pi, rel=0.01)


def test_offdiag_is_the_float_of_the_exact_product():
    """Every family gives the float of the exact product, bit for bit: a
    builtin from its linear form, any other from the product of its values."""
    N = 3000
    exact = example4(F(7, 11), F(5, 7))
    al, ga = coefficients(exact, N)
    for fam in (exact, float_view(exact), table_family(al, ga),
                table_family([float(v) for v in al], [float(v) for v in ga])):
        expected = [math.sqrt(float(fam.alpha(k) * fam.gamma(k - 1))) for k in range(1, N + 1)]
        assert orthonormal_offdiag(fam, N).tolist() == expected


def test_offdiag_rejects_a_nonpositive_exact_product():
    fam = CoefficientFamily(name="neg", alpha=lambda n: F(0) if n == 0 else F(-1, 3),
                            gamma=lambda n: F(1, 2))
    with pytest.raises(ParamError, match=r"alpha_1\*gamma_0 must be positive \(got -1/6\)"):
        orthonormal_offdiag(fam, 2)


def _counted(fn, calls):
    """A functools.wraps wrapper of ``fn`` that counts its value calls."""
    @functools.wraps(fn)
    def wrapper(n):
        calls.append(n)
        return fn(n)
    return wrapper


positive = st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64)


@settings(max_examples=25, deadline=None)
@given(lam=positive, a=positive, b=st.fractions(min_value=0, max_value=8, max_denominator=64))
def test_offdiag_integer_forms_are_the_float_of_the_exact_product(lam, a, b):
    """Read through their integer forms, directly or through wrappers, the
    builtins give the float of the exact product bit for bit, and no value
    of a wrapper is read."""
    N = 300
    for fam in (chebyshev_u(), legendre(), gegenbauer(lam), pollaczek(lam, a), example3(a),
                example4(a, b)):
        expected = [math.sqrt(float(fam.alpha(k) * fam.gamma(k - 1))) for k in range(1, N + 1)]
        assert orthonormal_offdiag(fam, N).tolist() == expected, fam.name
        calls: list = []
        wrapped = CoefficientFamily(name=fam.name, alpha=_counted(fam.alpha, calls),
                                    gamma=_counted(fam.gamma, calls))
        assert wrapped.alpha.linear is fam.alpha.linear
        assert wrapped.gamma.linear is fam.gamma.linear
        calls.clear()
        assert orthonormal_offdiag(wrapped, N).tolist() == expected, fam.name
        assert calls == []


def test_offdiag_per_index_families_keep_their_values():
    """A float view and an associated family carry no integer form and keep
    the per-index products: of the doubles, and of the shifted Fractions."""
    N = 2000
    fam = gegenbauer(F(3, 2))
    view, assoc = float_view(fam), associated_family(fam, 2)
    for derived in (view, assoc):
        assert not hasattr(derived.alpha, "linear") and not hasattr(derived.gamma, "linear")
    assert orthonormal_offdiag(view, N).tolist() == [
        math.sqrt(float(fam.alpha(k)) * float(fam.gamma(k - 1))) for k in range(1, N + 1)]
    assert orthonormal_offdiag(assoc, N).tolist() == [
        math.sqrt(float(fam.alpha(k + 2) * fam.gamma(k + 1))) for k in range(1, N + 1)]


def test_offdiag_integer_form_rejects_a_nonpositive_product():
    """A family whose callables carry only ``pair`` takes the per-index loop,
    which names the index and the reduced product."""
    def alpha(n):
        return F(*alpha.pair(n))
    alpha.pair = lambda n: (0, 1) if n == 0 else (-2, 6)
    def gamma(n):
        return F(*gamma.pair(n))
    gamma.pair = lambda n: (2, 4)
    fam = CoefficientFamily(name="neg", alpha=alpha, gamma=gamma)
    with pytest.raises(ParamError, match=r"alpha_1\*gamma_0 must be positive \(got -1/6\)"):
        orthonormal_offdiag(fam, 2)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_offdiag_and_density_memory_stay_flat():
    """The linear forms are read in int64 chunks into one array: no list of
    coefficients, pairs, products or off-diagonals is built beside it."""
    fam = gegenbauer(F(1, 3))
    assert _traced_peak(lambda: orthonormal_offdiag(fam, 100_001)) <= 1.5e6
    assert _traced_peak(lambda: estimate_density(fam, 100_000)) <= 3.0e6


def test_default_grid():
    xs = default_density_grid()
    assert xs.size == 199
    assert xs[0] == -0.99 and xs[-1] == 0.99
    assert np.all(np.abs(xs) <= 0.99)
    for points in (1, 2, 3, 198, 199):
        grid = default_density_grid(points)
        assert grid.size == points and np.all(np.diff(grid) > 0)
        assert np.array_equal(grid, -grid[::-1])
    with pytest.raises(ParamError):
        default_density_grid(points=0)


def test_density_grid_count_of_the_wrong_type_names_the_parameter():
    """default_density_grid(True) was a 1-point grid, and a double count a
    bare TypeError; an integer of another type is read as an int."""
    for bad in (5.0, True, "5", np.float64(5)):
        message = rf"points must be an int >= 1 \(got {re.escape(repr(bad))}\)"
        with pytest.raises(ParamError, match=message):
            default_density_grid(bad)
    for few in (0, -3, 0.5):
        with pytest.raises(ParamError, match="grid needs at least one point"):
            default_density_grid(few)
    assert np.array_equal(default_density_grid(np.int64(7)), default_density_grid(7))


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
    fam = _unconverged(14)
    with pytest.warns(UserWarning, match="far from 1/2"):
        est = estimate_density(fam, N=10, xs=np.array([0.0]))
    assert not est.offdiag_converged
    assert est.offdiag_gap == pytest.approx(0.2, abs=1e-12)


def test_estimate_validation():
    for bad in (5, 50.0, True):
        with pytest.raises(ParamError, match=rf"N must be an int >= 10 \(got {bad!r}\)"):
            estimate_density(legendre(), N=bad, xs=[0.1])
    assert estimate_density(legendre(), N=np.int64(50), xs=[0.1]).N == 50
    with pytest.raises(ParamError):
        estimate_density(legendre(), N=100, xs=np.array([0.0, 1.0]))
    with pytest.raises(ParamError):
        estimate_density(legendre(), N=100, xs=np.array([]))
    with pytest.raises(ParamError, match=r"strictly inside \(-1, 1\)"):
        estimate_density(legendre(), N=100, xs=[0.1, math.nan, -0.1])


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
    fam = _spiked(14)
    with pytest.warns(UserWarning):
        est = estimate_density(fam, N=12, xs=np.linspace(-0.8, 0.8, 17))
    if not est.all_valid:
        bad = [i for i, v in enumerate(est.valid) if not v]
        for i in bad:
            assert math.isnan(est.density[i])
            assert est.f_values[i] <= 0
    # the spike leaves every point of that grid valid; a dip in the last
    # off-diagonal does make some Delta_N negative, past the block boundary
    with pytest.warns(UserWarning):
        est = estimate_density(_dipped(400), N=400, xs=np.linspace(-0.85, 0.85, 35))
    bad = [i for i, v in enumerate(est.valid) if not v]
    assert bad and len(bad) < len(est.valid)
    for i in bad:
        assert math.isnan(est.density[i])
        assert est.f_values[i] <= 0


def _unconverged(rows):
    """Constant off-diagonals a_n = 0.3, far from 1/2."""
    return table_family([0] + [0.3] * (rows - 1), [0.3] * rows)


def _spiked(rows):
    """Off-diagonals 0.45 but for a spike at alpha_7, which jumps above 1."""
    alphas = [0] + [0.45] * (rows - 1)
    alphas[7] = 2.4
    return table_family(alphas, [0.45] * rows)


def _dipped(N):
    """Orthonormal off-diagonals a_k = 0.45 for k <= N and a_{N+1} = 0.1:
    the rows stay bounded on (-0.9, 0.9), and Delta_N changes sign there."""
    a = [0.45] * N + [0.1]
    return table_family([0, *a], [*a, 0.1])


def _forward_dets(a, xs, N):
    """(Delta_{N-1}, Delta_N) from the forward rows of ``_rows``, every step
    one after the other: the sweep that the block jump replaces."""
    a = [float(v) for v in a[:N + 1]]
    dets = dict(_dets(_rows([0.0, *a], a, xs, N + 1, 1.0), {N - 1, N}))
    return dets[N - 1], dets[N]


# (family builder of N, grid, whether Delta_N may change sign on the grid)
JUMP_CASES = {
    "Legendre": (lambda N: legendre(), default_density_grid(), False),
    "Pollaczek(2,1)": (lambda N: pollaczek(2, 1), default_density_grid(), False),
    # the rows of a_n = 0.3 grow exponentially for |x| > 0.6
    "unconverged": (lambda N: _unconverged(N + 2), np.linspace(-0.55, 0.55, 23), False),
    "spiked": (lambda N: _spiked(N + 2), np.linspace(-0.8, 0.8, 17), False),
    "dipped": (_dipped, np.linspace(-0.85, 0.85, 35), True),
}


def _check_jump(case, N):
    """The jump's Delta_{N-1} and Delta_N, and estimate_density's f_N and
    valid flags, against the forward sweep: within 1e-10 of each value, or
    of the row's largest |Delta_N| where Delta_N changes sign."""
    build, xs, signed = JUMP_CASES[case]

    def close(got, want):
        scale = np.abs(want).max() if signed else np.abs(want)
        return np.all(np.abs(np.asarray(got) - want) <= 1e-10 * scale)

    fam = build(N)
    a = orthonormal_offdiag(fam, N + 1)
    ref = _forward_dets(a, xs, N)
    for got, want in zip(_last_dets(a, xs, N), ref):
        assert close(got, want), (case, N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_density(fam, N, xs)
    assert close(est.f_values, ref[1]), (case, N)
    assert est.valid == tuple(bool(v) for v in ref[1] > 0), (case, N)


# the least N whose jump takes _MIN_BLOCKS blocks (253)
LEAST_JUMPED_N = next(n for n in range(10, 1000)
                      if (n - 1) // _block_size(n - 1) >= _MIN_BLOCKS)


def _boundary_ns():
    """N whose last jumped row N - 1 lies K - 1, 0, 1 and 2 rows past a block
    boundary, near three sizes, and the least N that takes _MIN_BLOCKS
    blocks with the N before it."""
    ns = {LEAST_JUMPED_N - 1, LEAST_JUMPED_N}
    for n0 in (300, 1000, 2500):
        for r in (-1, 0, 1, 2):
            ns.add(next(n for n in range(n0, 2 * n0)
                        if (n - 1) % _block_size(n - 1) == r % _block_size(n - 1)))
    return sorted(ns)


@pytest.mark.parametrize("case", sorted(JUMP_CASES))
def test_block_jump_agrees_with_the_forward_sweep_at_block_boundaries(case):
    for N in _boundary_ns():
        _check_jump(case, N)


@pytest.mark.parametrize("case", sorted(JUMP_CASES))
def test_below_the_least_blocks_the_sweep_is_the_forward_one(case):
    """With fewer than _MIN_BLOCKS blocks nothing is jumped, and the rows
    are the forward rows bit for bit."""
    build, xs, _ = JUMP_CASES[case]
    for N in (10, LEAST_JUMPED_N - 1):
        a = orthonormal_offdiag(build(N), N + 1)
        for got, want in zip(_last_dets(a, xs, N), _forward_dets(a, xs, N)):
            assert np.array_equal(got, want), (case, N)


@settings(max_examples=20, deadline=None)
@given(N=st.integers(min_value=10, max_value=3000))
def test_block_jump_agrees_with_the_forward_sweep(N):
    for case in JUMP_CASES:
        _check_jump(case, N)


def _decimal_dets(a, x, N, digits):
    """(Delta_{N-1}, Delta_N) at x, swept in ``digits``-digit decimal on the
    exact values of the doubles a."""
    with localcontext(decimal_context(digits)):
        ga = [Decimal(v) for v in a[:N + 1]]
        dets = dict(_dets(_rows([Decimal(0), *ga], ga, Decimal(x), N + 1, Decimal(1)),
                          {N - 1, N}))
    return dets[N - 1], dets[N]


@pytest.mark.parametrize("fam", [legendre(), pollaczek(2, 1)], ids=lambda f: f.name)
def test_density_at_full_size_matches_a_40_digit_sweep(fam):
    """At N = 10^5 the block jump keeps Delta_{N-1} and Delta_N within 5e-12
    of a 40-digit sweep of the same off-diagonals (1.3e-12 measured)."""
    N, xs = 100_000, [-0.99, -0.5, 0.1, 0.73, 0.99]
    a = orthonormal_offdiag(fam, N + 1)
    got = _last_dets(a, np.array(xs), N)
    for i, x in enumerate(xs):
        for value, exact in zip((got[0][i], got[1][i]), _decimal_dets(a, x, N, 40)):
            assert abs(Decimal(value) - exact) <= Decimal("5e-12") * abs(exact), x


@pytest.mark.parametrize("N", [100, 2000])
def test_a_grid_and_its_mirror_give_the_same_bits(N):
    """Delta_N is even in x bit for bit: a grid, its mirror and each of its
    points alone give the same estimate, though one abscissa per |x| is
    swept."""
    fam = pollaczek(F(3, 2), 1)
    xs = np.concatenate([default_density_grid(), [0.3, -0.3, 0.0, -0.0, 0.3]])
    est = estimate_density(fam, N, xs)
    mirror = estimate_density(fam, N, -xs)
    assert mirror.xs == tuple(-xs)
    for field in ("f_values", "density", "last_change", "valid"):
        assert getattr(mirror, field) == getattr(est, field), field
    for i in (0, 37, 98, 99, 150, 198, 199, 200, 201, 202, 203):
        alone = estimate_density(fam, N, xs[i:i + 1])
        assert (alone.f_values[0], alone.last_change[0]) == (est.f_values[i], est.last_change[i])


def _values_only(fam):
    """``fam`` with callables of its values that carry no ``linear`` form."""
    def strip(coeff):
        def at(n):
            return coeff(n)
        return at
    return CoefficientFamily(name=fam.name, alpha=strip(fam.alpha), gamma=strip(fam.gamma))


def test_linear_offdiag_equals_the_per_index_path():
    """Below 2^53 the int64 chunks give the doubles of the per-index loop
    bit for bit; a parameter whose products pass 2^53 takes that loop."""
    N = 100_000
    for fam in (legendre(), gegenbauer(F(1, 3)), pollaczek(F(3, 2), 1), example4(3, F(1, 2))):
        assert _linear_offdiag(fam.alpha.linear, fam.gamma.linear, N) is not None
        assert (orthonormal_offdiag(fam, N).tolist()
                == orthonormal_offdiag(_values_only(fam), N).tolist()), fam.name
    big = gegenbauer(F(1, 10**9))
    assert _linear_offdiag(big.alpha.linear, big.gamma.linear, 3000) is None
    expected = [math.sqrt(float(big.alpha(k) * big.gamma(k - 1))) for k in range(1, 3001)]
    assert orthonormal_offdiag(big, 3000).tolist() == expected


def test_linear_offdiag_rejects_a_nonpositive_product():
    """The linear-form path names the index and the product, as the
    per-index paths do."""
    def alpha(n):
        return F(0, n + 1)
    alpha.linear = (0, 0, 1, 1)
    fam = CoefficientFamily(name="zero", alpha=alpha, gamma=chebyshev_u().gamma)
    message = r"alpha_1\*gamma_0 must be positive \(got 0\)"
    with pytest.raises(ParamError, match=message):
        _linear_offdiag(alpha.linear, fam.gamma.linear, 5000)
    with pytest.raises(ParamError, match=message):
        orthonormal_offdiag(fam, 5000)
