"""Reference implementations that decide every step condition in Fraction
arithmetic, one Fraction operation per intermediate value.

These are the checkers as they stood before the integer step table
(``recurrence._StepTable``) took over the decisions, each comparison made
and recorded one index at a time (``_Cond``), and the g_n ratio pass as it
stood before it carried each ratio as a pair of coprime ints.
SzwTheorem1 and the ratio sandwich are decided on the exact ratios with no
digit cap (``normalized_ratios``), which the package's float bounds and
exact rechecks must agree with. test_step_table.py requires the package to
agree with them report for report, witnesses included, and the ratio pass
bit for bit. Only tests import this module.
"""
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from turandet.arith import DEFAULT_DIGIT_CAP, EXTENDED, exact_value, exceeds_digit_cap
from turandet.criteria import (
    _HALF,
    COND_ALPHA,
    COND_GAMMA,
    COND_INIT,
    COND_STEP,
    COND_SUM,
    LAMBDA_ROUTE,
    SZW_THEOREM1,
    THEOREM1,
    Y_ROUTE,
    CriterionReport,
    ConditionCheck,
    LambdaData,
    lambda_step_bound,
    y_from_lambda,
)
from turandet.errors import InvalidLambda, NonpositiveRatio, ParamError
from turandet.recurrence import (
    CoefficientFamily,
    SandwichRow,
    _table,
    coefficients,
)


class _Cond:
    """Accumulates per-index comparisons into one ConditionCheck, in the
    order they are made.

    The first False wins over any None; first_violation points at it. A
    condition that only saw True keeps its first witness as a sample.
    """

    def __init__(self, label: str):
        self.label = label
        self._first_false: tuple | None = None
        self._first_none: tuple | None = None
        self._sample: tuple | None = None

    def record(self, n: int, ok: bool | None, witness) -> None:
        """Record the comparison at n. ``witness`` is the pair, or a function
        that makes it, called only when this comparison is kept."""
        keep_false = ok is False and self._first_false is None
        keep_none = ok is None and self._first_none is None
        if not (self._sample is None or keep_false or keep_none):
            return
        if callable(witness):
            witness = witness()
        if self._sample is None:
            self._sample = witness
        if keep_false:
            self._first_false = (n, witness)
        elif keep_none:
            self._first_none = (n, witness)

    def done(self) -> ConditionCheck:
        if self._first_false is not None:
            n, w = self._first_false
            return ConditionCheck(self.label, False, n, w)
        if self._first_none is not None:
            n, w = self._first_none
            return ConditionCheck(self.label, None, n, w)
        return ConditionCheck(self.label, True, None, self._sample)


def _exact_coefficients(family, hi: int):
    """coefficients() with each value replaced by its exact value (exact_value)."""
    al, ga = coefficients(family, hi)
    return [exact_value(v) for v in al], [exact_value(v) for v in ga]


def _decimal(v) -> Decimal:
    """``v`` in the current decimal context: an int exactly, a Fraction as
    its numerator over its denominator, rounded once."""
    if isinstance(v, Fraction):
        return Decimal(v.numerator) / Decimal(v.denominator)
    return Decimal(v)


def ratio_pass(family, N: int, digit_cap: int, keep_tail: bool = False):
    """recurrence.ratios_at_one in Fraction arithmetic: g_0..g_{N-1}, the
    fallback flag and, with ``keep_tail``, the tail (k, alpha_tilde_k..,
    gamma_tilde_k..) of the normalized coefficients past the fallback, formed
    in the pass: k is the first index read after the fallback (N without
    one), and the tail is Decimals in the EXTENDED context. The family is
    read on the exact values of its coefficients (``exact_table``), a
    double's too."""
    if N < 1:
        raise ParamError("N must be >= 1")
    family = exact_table(family, N - 1)
    values: list = []
    fallback = False
    tail_start, al_tail, ga_tail = N, [], []
    with localcontext(EXTENDED):  # only the Decimals of a fallback use it
        g = Fraction(1) / family.gamma(0)
        for n in range(N):
            if n:
                a, c = family.alpha(n), family.gamma(n)
                if c == 0:
                    raise ParamError(f"gamma_{n} must be nonzero: g_{n} divides by it")
                if fallback:
                    a, c = _decimal(a), _decimal(c)
                    a = a / g  # alpha_tilde_n
                    g = (1 - a) / c
                    if keep_tail:
                        al_tail.append(a)
                        ga_tail.append(c * g)
                else:
                    g = (1 - a / g) / c
            if not g > 0:
                raise NonpositiveRatio(n, g)
            if exceeds_digit_cap(g, digit_cap):
                values, g, fallback = [_decimal(v) for v in values], _decimal(g), True
                tail_start = n + 1
            values.append(g)
    return values, fallback, (tail_start, al_tail, ga_tail)


def exact_table(family, hi: int) -> CoefficientFamily:
    """``family`` over the exact values of its coefficients 0..hi, read once."""
    al, ga = _exact_coefficients(family, max(hi, 0))
    return CoefficientFamily(name=family.name, alpha=_table(al), gamma=_table(ga),
                             exact=True, params=family.params, meta=family.meta)


def check_theorem1(family, N: int) -> CriterionReport:
    al, ga = _exact_coefficients(family, N + 1)
    one, zero = Fraction(1), Fraction(0)

    a = _Cond(COND_ALPHA)
    for n in range(N + 1):
        if n >= 1:
            a.record(n, al[n - 1] < al[n], (al[n - 1], al[n]))
        a.record(n, al[n] <= _HALF, (al[n], _HALF))

    b = _Cond(COND_GAMMA)
    for n in range(N + 1):
        if n >= 1:
            b.record(n, ga[n] < ga[n - 1], (ga[n], ga[n - 1]))
        b.record(n, zero < ga[n], (zero, ga[n]))

    c = _Cond(COND_SUM)
    for n in range(N + 1):
        s = al[n] + ga[n]
        c.record(n, s <= one, (s, one))

    step = _Cond(COND_STEP)
    for n in range(1, N + 1):
        den_l = al[n] * ga[n - 1] - al[n - 1] * ga[n]
        den_r = ga[n] - ga[n + 1]
        if not (den_l > 0 and den_r > 0):
            step.record(n, None, (den_l, den_r))
            continue
        num_l = al[n] - al[n - 1]
        num_r = al[n + 1] * ga[n] - al[n] * ga[n + 1]
        step.record(n, num_l * den_r <= num_r * den_l,
                    lambda: (num_l / den_l, num_r / den_r))

    init = _Cond(COND_INIT)
    lhs = ga[0] - ga[1]
    rhs = al[1] * ga[0] * ga[0]
    init.record(0, lhs <= rhs, (lhs, rhs))

    return CriterionReport.assemble(
        THEOREM1, N, (a.done(), b.done(), c.done(), step.done(), init.done()))


def lambda_data(family, N: int) -> LambdaData:
    """Step data of the raw coefficients (doubles stay doubles)."""
    al, ga = coefficients(family, N + 1)
    u, v, lam, y, valid = [], [], [], [], []
    for n in range(N + 1):
        un = al[n + 1] - al[n]
        vn = ga[n] - ga[n + 1]
        ln = vn / un if un != 0 else None
        yn = y_from_lambda(ln) if ln is not None and ln != 1 else None
        u.append(un)
        v.append(vn)
        lam.append(ln)
        y.append(yn)
        valid.append(bool(un > 0 and vn > 0 and ln is not None and ln <= 1))
    return LambdaData(tuple(u), tuple(v), tuple(lam), tuple(y), tuple(valid), N)


def lambda_route(table, ld: LambdaData) -> CriterionReport:
    N = ld.N
    al, ga = coefficients(table, N)

    ratio = _Cond("ratio-nondecreasing")
    s = [_HALF - al[n] for n in range(N + 1)]
    t = [ga[n] - _HALF for n in range(N + 1)]
    for n in range(2, N + 1):
        if not (s[n - 1] > 0 and s[n] > 0):
            ratio.record(n, None, (s[n - 1], s[n]))
            continue
        ok = t[n - 1] * s[n] <= t[n] * s[n - 1]
        ratio.record(n, ok, lambda: (t[n - 1] / s[n - 1], t[n] / s[n]))

    pair = _Cond("pair-inequality")
    u, v, lam = ld.u, ld.v, ld.lam
    for n in range(1, N + 1):
        lhs = 4 * u[n - 1] * v[n]
        rhs = (u[n - 1] + v[n - 1]) * (u[n] + v[n])
        if lam[n - 1] is not None and lam[n] is not None and lam[n - 1] != 3:
            pair.record(n, lhs <= rhs, lambda: (lam[n], lambda_step_bound(lam[n - 1])))
        else:
            pair.record(n, lhs <= rhs, (lhs, rhs))

    third = Fraction(1, 3)
    shortcut = all(lam[n] is not None and lam[n] <= third for n in range(1, N + 1))
    notes = {
        "shortcut_lambda_le_one_third": shortcut,
        "lambda_invalid_indices": [n for n in range(N + 1) if not ld.valid[n]],
    }
    return CriterionReport.assemble(LAMBDA_ROUTE, N, (ratio.done(), pair.done()), notes)


def y_route(ld: LambdaData) -> CriterionReport:
    N = ld.N
    for n, ln in enumerate(ld.lam):
        if ln is None or not 0 < ln < 1:
            raise InvalidLambda(n, ln)
    y = ld.y
    cond = _Cond("y-increments-at-most-one")
    for n in range(1, N + 1):
        cond.record(n, y[n] <= y[n - 1] + 1, (y[n], y[n - 1] + 1))
    return CriterionReport.assemble(Y_ROUTE, N, (cond.done(),))


def check_lambda_route(family, N: int) -> CriterionReport:
    table = exact_table(family, N + 1)
    return lambda_route(table, lambda_data(table, N))


def check_y_route(family, N: int) -> CriterionReport:
    return y_route(lambda_data(exact_table(family, N + 1), N))


def normalized_ratios(family, N: int):
    """g_0..g_{N-1} and alpha_tilde_0..alpha_tilde_N of the exact values of
    the coefficients, with no digit cap: alpha_tilde_0 = 0, g_n = (1 -
    alpha_tilde_n)/gamma_n and alpha_tilde_{n+1} = alpha_{n+1}/g_n. Raises
    ParamError at a gamma_n = 0 and NonpositiveRatio at the first g_n <= 0,
    n < N."""
    al, ga = _exact_coefficients(family, N)
    g, at = [], [Fraction(0)]
    for n in range(N):
        if ga[n] == 0:
            raise ParamError(f"gamma_{n} must be nonzero: g_{n} divides by it")
        g_n = (1 - at[n]) / ga[n]
        if not g_n > 0:
            raise NonpositiveRatio(n, g_n)
        g.append(g_n)
        at.append(al[n + 1] / g_n)
    return g, at


def check_szw_normalized(family, N: int) -> CriterionReport:
    """SzwTheorem1 of the family normalized at 1, on normalized_ratios."""
    _, at = normalized_ratios(family, N)
    mono = _Cond("alpha-tilde-nondecreasing")
    bound = _Cond("alpha-tilde-le-half")
    for n in range(N + 1):
        if n >= 1:
            mono.record(n, at[n - 1] <= at[n], (at[n - 1], at[n]))
        bound.record(n, at[n] <= _HALF, (at[n], _HALF))
    return CriterionReport.assemble(SZW_THEOREM1, N, (mono.done(), bound.done()))


def ratio_sandwich(family, N: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> list:
    """Rows printing the g_n of ratio_pass at ``digit_cap``, each decided on
    the exact g_n of normalized_ratios."""
    table = exact_table(family, N)
    printed, _, _ = ratio_pass(table, N, digit_cap)
    exact, _ = normalized_ratios(table, N)
    rows = []
    for n, (g, g_exact) in enumerate(zip(printed, exact)):
        a0, a1 = table.alpha(n), table.alpha(n + 1)
        c0, c1 = table.gamma(n), table.gamma(n + 1)
        den = c0 - c1
        if den > 0:
            upper = (a1 * c0 - a0 * c1) / den
            upper_ok = g_exact <= upper
        else:
            upper = math.inf
            upper_ok = True
        rows.append(SandwichRow(
            n=n, g=g, upper=upper,
            lower_ok=1 <= g_exact,
            upper_ok=upper_ok,
            gamma_step_decreasing=den > 0,
        ))
    return rows
