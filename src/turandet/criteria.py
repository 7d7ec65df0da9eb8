"""Sufficient criteria for nonnegativity of Turán determinants.

Each checker walks the coefficient sequences up to an index bound N and emits
a CriterionReport: per-condition verdicts with a first violation index and a
witness pair, plus an overall Satisfied/Violated/Inconclusive verdict. All of
them are one-sided — Violated means "hypotheses not met", never "determinant
negative".

Witness convention: a witness is the pair (lhs, rhs) of the comparison the
condition makes at that index, oriented so the condition holds iff lhs < rhs
(strict conditions) or lhs <= rhs (non-strict ones). Satisfied conditions keep
the first comparison made as a representative witness.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .arith import (
    DEFAULT_MARGIN,
    Num,
    close_to,
    format_number,
    is_exact,
    less_equal,
    strictly_less,
)
from .errors import InvalidLambda, ParamError, StructuralMismatch
from .recurrence import _table, coefficients

__all__ = [
    "Verdict",
    "THEOREM1",
    "SZW_THEOREM1",
    "COROLLARY1",
    "COROLLARY2",
    "LAMBDA_ROUTE",
    "Y_ROUTE",
    "CRITERION_NAMES",
    "ConditionCheck",
    "CriterionReport",
    "DeltaSeq",
    "as_delta",
    "LambdaData",
    "lambda_data",
    "lambda_step_bound",
    "y_from_lambda",
    "check_theorem1",
    "check_szw_normalized",
    "check_corollary1",
    "check_corollary2",
    "matches_corollary1",
    "matches_corollary2",
    "check_lambda_route",
    "check_y_route",
]


class Verdict(str, Enum):
    SATISFIED = "Satisfied"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


# wire-format criterion names (report `criterion` field)
THEOREM1 = "Theorem1"
SZW_THEOREM1 = "SzwTheorem1"
COROLLARY1 = "Corollary1"
COROLLARY2 = "Corollary2"
LAMBDA_ROUTE = "LambdaRoute"
Y_ROUTE = "YRoute"
CRITERION_NAMES = (THEOREM1, SZW_THEOREM1, COROLLARY1, COROLLARY2, LAMBDA_ROUTE, Y_ROUTE)

# condition labels for check_theorem1
COND_ALPHA = "alpha-increasing-le-half"
COND_GAMMA = "gamma-positive-decreasing"
COND_SUM = "sum-le-one"
COND_STEP = "step-inequality"
COND_INIT = "initial-inequality"
THEOREM1_HYPOTHESES = (COND_ALPHA, COND_GAMMA, COND_SUM, COND_INIT)  # everything but the step bound


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one named condition; holds is None when undecidable."""

    label: str
    holds: bool | None
    first_violation: int | None
    witness: tuple | None

    def to_json(self):
        w = None
        if self.witness is not None:
            w = [format_number(self.witness[0]), format_number(self.witness[1])]
        return {
            "label": self.label,
            "holds": self.holds,
            "first_violation": self.first_violation,
            "witness": w,
        }


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    checked_up_to: int
    conditions: tuple[ConditionCheck, ...]
    overall: Verdict
    notes: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def assemble(cls, criterion: str, N: int, conditions: Sequence[ConditionCheck],
                 notes: Mapping[str, object] | None = None) -> "CriterionReport":
        conds = tuple(conditions)
        if all(c.holds is True for c in conds):
            overall = Verdict.SATISFIED
        elif any(c.holds is False for c in conds):
            overall = Verdict.VIOLATED
        else:
            overall = Verdict.INCONCLUSIVE
        return cls(criterion, N, conds, overall, dict(notes) if notes else {})

    def condition(self, label: str) -> ConditionCheck:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)

    def to_json(self):
        out = {
            "criterion": self.criterion,
            "checked_up_to": self.checked_up_to,
            "overall": self.overall.value,
            "conditions": [c.to_json() for c in self.conditions],
        }
        if self.notes:
            out["notes"] = dict(self.notes)
        return out


class _Cond:
    """Accumulates per-index comparisons into one ConditionCheck.

    The first False wins over any None; first_violation points at it. A
    condition that only saw True keeps its first witness as a sample.
    """

    def __init__(self, label: str):
        self.label = label
        self._first_false: tuple | None = None
        self._first_none: tuple | None = None
        self._sample: tuple | None = None

    def record(self, n: int, ok: bool | None, witness: tuple) -> None:
        if self._sample is None:
            self._sample = witness
        if ok is False and self._first_false is None:
            self._first_false = (n, witness)
        elif ok is None and self._first_none is None:
            self._first_none = (n, witness)

    def done(self) -> ConditionCheck:
        if self._first_false is not None:
            n, w = self._first_false
            return ConditionCheck(self.label, False, n, w)
        if self._first_none is not None:
            n, w = self._first_none
            return ConditionCheck(self.label, None, n, w)
        return ConditionCheck(self.label, True, None, self._sample)


def _half(exact: bool):
    return Fraction(1, 2) if exact else 0.5


def check_theorem1(family, N: int, margin: float = DEFAULT_MARGIN) -> CriterionReport:
    """Main sufficient criterion on raw coefficients.

    Conditions: (a) alpha strictly increasing with alpha_n <= 1/2; (b) gamma
    positive and strictly decreasing; (c) alpha_n + gamma_n <= 1; the step
    inequality (alpha_n - alpha_{n-1})/(alpha_n*gamma_{n-1} - alpha_{n-1}*gamma_n)
    <= (alpha_{n+1}*gamma_n - alpha_n*gamma_{n+1})/(gamma_n - gamma_{n+1}) for
    1 <= n <= N, and the startup bound gamma_0 - gamma_1 <= alpha_1*gamma_0^2.
    Satisfied implies every Turan determinant of the normalized family is
    nonnegative on [-1, 1].

    The step inequality is decided by cross-multiplication (denominators must
    be positive; a nonpositive one makes that index inconclusive, witnessing
    the two denominators).
    """
    if N < 2:
        raise ParamError("check_theorem1 needs N >= 2")
    exact = family.exact
    al, ga = coefficients(family, N + 1)
    half = _half(exact)
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0

    a = _Cond(COND_ALPHA)
    for n in range(N + 1):
        if n >= 1:
            a.record(n, strictly_less(al[n - 1], al[n], exact, margin), (al[n - 1], al[n]))
        a.record(n, less_equal(al[n], half, exact, margin), (al[n], half))

    b = _Cond(COND_GAMMA)
    for n in range(N + 1):
        if n >= 1:
            b.record(n, strictly_less(ga[n], ga[n - 1], exact, margin), (ga[n], ga[n - 1]))
        b.record(n, strictly_less(zero, ga[n], exact, margin), (zero, ga[n]))

    c = _Cond(COND_SUM)
    for n in range(N + 1):
        s = al[n] + ga[n]
        c.record(n, less_equal(s, one, exact, margin), (s, one))

    step = _Cond(COND_STEP)
    for n in range(1, N + 1):
        den_l = al[n] * ga[n - 1] - al[n - 1] * ga[n]
        den_r = ga[n] - ga[n + 1]
        if not (strictly_less(zero, den_l, exact, margin)
                and strictly_less(zero, den_r, exact, margin)):
            step.record(n, None, (den_l, den_r))
            continue
        num_l = al[n] - al[n - 1]
        num_r = al[n + 1] * ga[n] - al[n] * ga[n + 1]
        ok = less_equal(num_l * den_r, num_r * den_l, exact, margin)
        step.record(n, ok, (num_l / den_l, num_r / den_r))

    init = _Cond(COND_INIT)
    lhs = ga[0] - ga[1]
    rhs = al[1] * ga[0] * ga[0]
    init.record(0, less_equal(lhs, rhs, exact, margin), (lhs, rhs))

    return CriterionReport.assemble(
        THEOREM1, N, (a.done(), b.done(), c.done(), step.done(), init.done()))


def check_szw_normalized(nf, N: int, margin: float = DEFAULT_MARGIN) -> CriterionReport:
    """Criterion on normalized coefficients: alpha-tilde nondecreasing and <= 1/2.

    Accepts a NormalizedFamily or any family that is already normalized at 1
    (alpha + gamma = 1), whose plain alpha is then used.
    """
    if N < 1:
        raise ParamError("check_szw_normalized needs N >= 1")
    at = [nf.alpha(n) for n in range(N + 1)]
    exact = nf.exact
    half = _half(exact)

    mono = _Cond("alpha-tilde-nondecreasing")
    bound = _Cond("alpha-tilde-le-half")
    for n in range(N + 1):
        if n >= 1:
            mono.record(n, less_equal(at[n - 1], at[n], exact, margin), (at[n - 1], at[n]))
        bound.record(n, less_equal(at[n], half, exact, margin), (at[n], half))
    return CriterionReport.assemble(SZW_THEOREM1, N, (mono.done(), bound.done()))


@dataclass(frozen=True)
class DeltaSeq:
    """Positive decreasing sequence delta_n, optionally with a declared limit.

    ``limit`` records what the sequence tends to when that is known in closed
    form (builders set it); None means unknown, and tail checks then fall back
    to a numeric threshold heuristic.
    """

    fn: Callable[[int], Num]
    limit: Num | None = None

    def __call__(self, n: int):
        return self.fn(n)

    @classmethod
    def from_values(cls, values: Sequence[Num], limit: Num | None = None) -> "DeltaSeq":
        return cls(_table(values), limit)


def as_delta(obj) -> DeltaSeq:
    if isinstance(obj, DeltaSeq):
        return obj
    if callable(obj):
        return DeltaSeq(obj)
    return DeltaSeq.from_values(obj)


def _delta_conditions(alpha_const, gamma_const, d: DeltaSeq, dv: list, exact: bool,
                      margin: float, tail_threshold: float):
    """Conditions shared by both shifted-constant-shape criteria."""
    zero = Fraction(0) if exact else 0.0
    order = _Cond("alpha-ge-gamma-positive")
    ok = (strictly_less(zero, gamma_const, exact, margin)
          and less_equal(gamma_const, alpha_const, exact, margin))
    order.record(0, ok, (gamma_const, alpha_const))

    dec = _Cond("delta-positive-decreasing")
    N = len(dv) - 1
    for n in range(N + 1):
        dec.record(n, strictly_less(zero, dv[n], exact, margin), (zero, dv[n]))
        if n >= 1:
            dec.record(n, strictly_less(dv[n], dv[n - 1], exact, margin), (dv[n], dv[n - 1]))

    lim = _Cond("delta-limit-zero")
    if d.limit is not None:
        lim.record(N, d.limit == 0, (d.limit, zero))
    elif float(dv[N]) < tail_threshold:
        lim.record(N, True, (dv[N], tail_threshold))
    else:
        lim.record(N, None, (dv[N], tail_threshold))
    return order, dec, lim


def check_corollary1(alpha_const, gamma_const, delta, N: int, *, family=None,
                     tail_threshold: float = 1e-6,
                     margin: float = DEFAULT_MARGIN) -> CriterionReport:
    """Shape alpha_n = 1/2 - A*delta_n, gamma_n = 1/2 + G*delta_n with A >= G > 0,
    delta decreasing to 0 and A*delta_0 = 1/2.

    When ``family`` is given, its coefficients are first matched against the
    shape (StructuralMismatch on failure).
    """
    if N < 1:
        raise ParamError("check_corollary1 needs N >= 1")
    d = as_delta(delta)
    dv = [d(n) for n in range(N + 1)]
    exact = all(is_exact(v) for v in (alpha_const, gamma_const, *dv))
    if family is not None:
        _assert_corollary_shape(family, alpha_const, gamma_const, dv, margin, first_shifted=0)

    order, dec, lim = _delta_conditions(alpha_const, gamma_const, d, dv, exact, margin,
                                        tail_threshold)
    prod = _Cond("alpha-times-delta0-is-half")
    val = alpha_const * dv[0]
    prod.record(0, close_to(val, _half(exact), exact, margin), (val, _half(exact)))

    return CriterionReport.assemble(
        COROLLARY1, N, (order.done(), dec.done(), lim.done(), prod.done()))


def check_corollary2(alpha_const, gamma_const, delta, N: int, *, family=None,
                     tail_threshold: float = 1e-6,
                     margin: float = DEFAULT_MARGIN) -> CriterionReport:
    """Same shape but alpha_0 = 0 directly, with delta_0 confined to the window
    (3G - A)/(2G(A + G)) <= delta_0 <= 1/(2A)."""
    if N < 1:
        raise ParamError("check_corollary2 needs N >= 1")
    d = as_delta(delta)
    dv = [d(n) for n in range(N + 1)]
    exact = all(is_exact(v) for v in (alpha_const, gamma_const, *dv))
    if family is not None:
        _assert_corollary_shape(family, alpha_const, gamma_const, dv, margin, first_shifted=1)

    order, dec, lim = _delta_conditions(alpha_const, gamma_const, d, dv, exact, margin,
                                        tail_threshold)
    a_c = Fraction(alpha_const) if exact else alpha_const
    g_c = Fraction(gamma_const) if exact else gamma_const
    lower = (3 * g_c - a_c) / (2 * g_c * (a_c + g_c))
    upper = 1 / (2 * a_c)
    low = _Cond("delta0-above-lower-bound")
    low.record(0, less_equal(lower, dv[0], exact, margin), (lower, dv[0]))
    up = _Cond("delta0-below-upper-bound")
    up.record(0, less_equal(dv[0], upper, exact, margin), (dv[0], upper))

    return CriterionReport.assemble(
        COROLLARY2, N, (order.done(), dec.done(), lim.done(), low.done(), up.done()))


def _assert_corollary_shape(family, alpha_const, gamma_const, deltas: list, tol: float,
                            first_shifted: int) -> None:
    """Raise StructuralMismatch unless alpha_n = 1/2 - A*delta_n (from index
    ``first_shifted``) and gamma_n = 1/2 + G*delta_n for all supplied deltas."""
    exact = family.exact and all(is_exact(v) for v in (alpha_const, gamma_const, *deltas))
    half = _half(exact)
    for n, dn in enumerate(deltas):
        if exact:
            want_a = half - alpha_const * dn
            want_g = half + gamma_const * dn
        else:
            want_a = 0.5 - float(alpha_const) * float(dn)
            want_g = 0.5 + float(gamma_const) * float(dn)
        if n >= first_shifted:
            got_a = family.alpha(n)
            if not close_to(got_a, want_a, exact, tol):
                raise StructuralMismatch(n, "alpha", want_a, got_a)
        elif family.alpha(n) != 0:
            raise StructuralMismatch(n, "alpha", 0, family.alpha(n))
        got_g = family.gamma(n)
        if not close_to(got_g, want_g, exact, tol):
            raise StructuralMismatch(n, "gamma", want_g, got_g)


def matches_corollary1(family, alpha_const, gamma_const, delta, N: int,
                       tol: float = DEFAULT_MARGIN) -> bool:
    """Whether the family's first N+1 coefficients follow the Corollary-1 shape."""
    d = as_delta(delta)
    try:
        _assert_corollary_shape(family, alpha_const, gamma_const,
                                [d(n) for n in range(N + 1)], tol, first_shifted=0)
    except StructuralMismatch:
        return False
    return True


def matches_corollary2(family, alpha_const, gamma_const, delta, N: int,
                       tol: float = DEFAULT_MARGIN) -> bool:
    """Same but with alpha_0 pinned to 0 instead of following the shape."""
    d = as_delta(delta)
    try:
        _assert_corollary_shape(family, alpha_const, gamma_const,
                                [d(n) for n in range(N + 1)], tol, first_shifted=1)
    except StructuralMismatch:
        return False
    return True


@dataclass(frozen=True)
class LambdaData:
    """Forward differences u_n = alpha_{n+1} - alpha_n, v_n = gamma_n - gamma_{n+1},
    their ratios lambda_n = v_n/u_n (None where u_n = 0), the transformed values
    y_n = (1 + lambda_n)/(1 - lambda_n) (None where undefined), and validity flags
    (valid iff u_n > 0, v_n > 0 and lambda_n <= 1)."""

    u: tuple
    v: tuple
    lam: tuple
    y: tuple
    valid: tuple
    N: int

    def rows(self):
        for n in range(self.N + 1):
            yield {
                "n": n,
                "u": format_number(self.u[n]),
                "v": format_number(self.v[n]),
                "lambda": format_number(self.lam[n]),
                "y": format_number(self.y[n]),
                "valid": self.valid[n],
            }


def lambda_data(family, N: int) -> LambdaData:
    """Step data for indices 0..N (consumes coefficients up to N+1)."""
    if N < 1:
        raise ParamError("lambda_data needs N >= 1")
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


def lambda_step_bound(x):
    """Largest admissible next step ratio after one of ratio x: (1 + x)/(3 - x)."""
    return (1 + x) / (3 - x)


def y_from_lambda(lam):
    """y = (1 + lambda)/(1 - lambda); inverse of lambda = (y - 1)/(y + 1)."""
    return (1 + lam) / (1 - lam)


def check_lambda_route(family, N: int, margin: float = DEFAULT_MARGIN) -> CriterionReport:
    """Step-ratio route to the step inequality.

    Condition (i): the ratio (gamma_n - 1/2)/(1/2 - alpha_n) is nondecreasing
    for n >= 1. Condition (ii): lambda_n <= (1 + lambda_{n-1})/(3 - lambda_{n-1})
    for 1 <= n <= N, evaluated in the division-free product form
    (u_{n-1} + v_{n-1})*(u_n + v_n) >= 4*u_{n-1}*v_n so indices with u_n = 0
    are still decided. Both Satisfied imply the step inequality of
    check_theorem1; its remaining conditions are not examined here.

    notes: "shortcut_lambda_le_one_third" is True when every lambda_n with
    1 <= n <= N is defined and <= 1/3 (a sufficient shortcut for (ii));
    "lambda_invalid_indices" lists entries flagged invalid in LambdaData.
    """
    if N < 1:
        raise ParamError("check_lambda_route needs N >= 1")
    return _lambda_route(family, lambda_data(family, N), margin)


def _lambda_route(family, ld: LambdaData, margin: float) -> CriterionReport:
    """check_lambda_route on the step data ``ld`` of ``family``."""
    N, exact = ld.N, family.exact
    al, ga = coefficients(family, N)
    half = _half(exact)
    zero = Fraction(0) if exact else 0.0

    ratio = _Cond("ratio-nondecreasing")
    s = [half - al[n] for n in range(N + 1)]
    t = [ga[n] - half for n in range(N + 1)]
    for n in range(2, N + 1):
        if not (strictly_less(zero, s[n - 1], exact, margin)
                and strictly_less(zero, s[n], exact, margin)):
            ratio.record(n, None, (s[n - 1], s[n]))
            continue
        ok = less_equal(t[n - 1] * s[n], t[n] * s[n - 1], exact, margin)
        ratio.record(n, ok, (t[n - 1] / s[n - 1], t[n] / s[n]))

    pair = _Cond("pair-inequality")
    u, v, lam = ld.u, ld.v, ld.lam
    for n in range(1, N + 1):
        lhs = 4 * u[n - 1] * v[n]
        rhs = (u[n - 1] + v[n - 1]) * (u[n] + v[n])
        ok = less_equal(lhs, rhs, exact, margin)
        if lam[n - 1] is not None and lam[n] is not None and lam[n - 1] != 3:
            pair.record(n, ok, (lam[n], lambda_step_bound(lam[n - 1])))
        else:
            pair.record(n, ok, (lhs, rhs))

    third = Fraction(1, 3) if exact else 1.0 / 3.0
    shortcut = all(
        lam[n] is not None and less_equal(lam[n], third, exact, margin)
        for n in range(1, N + 1)
    )
    notes = {
        "shortcut_lambda_le_one_third": shortcut,
        "lambda_invalid_indices": [n for n in range(N + 1) if not ld.valid[n]],
    }
    return CriterionReport.assemble(LAMBDA_ROUTE, N, (ratio.done(), pair.done()), notes)


def check_y_route(family, N: int, margin: float = DEFAULT_MARGIN) -> CriterionReport:
    """Transformed route: with y_n = (1 + lambda_n)/(1 - lambda_n), the step
    condition becomes y_n <= y_{n-1} + 1. Requires every lambda_n (n <= N) to
    lie in (0, 1); raises InvalidLambda otherwise.

    The y-transform amplifies rounding in float coefficients (the 1 - lambda_n
    denominator), so boundary-tight families can flip to Violated in float
    mode; use exact coefficients or check_lambda_route's division-free form
    when the increments sit on the boundary."""
    if N < 1:
        raise ParamError("check_y_route needs N >= 1")
    return _y_route(lambda_data(family, N), family.exact, margin)


def _y_route(ld: LambdaData, exact: bool, margin: float) -> CriterionReport:
    """check_y_route on the step data ``ld``."""
    N = ld.N
    for n, ln in enumerate(ld.lam):
        if ln is None or not 0 < ln < 1:
            raise InvalidLambda(n, ln)
    y = ld.y
    cond = _Cond("y-increments-at-most-one")
    for n in range(1, N + 1):
        cond.record(n, less_equal(y[n], y[n - 1] + 1, exact, margin), (y[n], y[n - 1] + 1))
    return CriterionReport.assemble(Y_ROUTE, N, (cond.done(),))
