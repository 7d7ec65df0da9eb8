"""Sufficient criteria for nonnegativity of Turán determinants.

Each checker walks the coefficient sequences up to an index bound N and emits
a CriterionReport: per-condition verdicts with a first violation index and a
witness pair, plus an overall Satisfied/Violated/Inconclusive verdict. All of
them are one-sided — Violated means "hypotheses not met", never "determinant
negative".

Every decision is a comparison of exact values. Each public checker reads its
coefficients once through ``exact_value``: ints and Fractions pass through,
and a double or a Decimal is judged on the rational value it holds, so no
overshoot is forgiven. The comparisons cross-multiply the numerators and
positive denominators as ints instead of going through Fraction arithmetic.
The step conditions read one step table (``recurrence._StepTable``) of

    u_n = alpha_{n+1} - alpha_n,   v_n = gamma_n - gamma_{n+1},
    w_n = alpha_{n+1}*gamma_n - alpha_n*gamma_{n+1},

through these identities:

- Theorem 1 step at n: u_{n-1}/w_{n-1} <= w_n/v_n;
- ratio_sandwich upper bound: w_n/v_n;
- step ratios: lambda_n = v_n/u_n and y_n = (u_n + v_n)/(u_n - v_n);
- pair inequality: 4*u_{n-1}*v_n <= (u_{n-1} + v_{n-1})*(u_n + v_n).

Fractions are built only for what is printed or kept: a witness when its
condition keeps it, and the values of lambda_data.

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

from .arith import Num, exact_value, format_number
from .errors import InvalidLambda, ParamError, StructuralMismatch
from .recurrence import _step_table, _table

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


_HALF = Fraction(1, 2)


def _pair(x):
    """An exact value as its (numerator, positive denominator) ints."""
    return x.numerator, x.denominator


def check_theorem1(family, N: int) -> CriterionReport:
    """Main sufficient criterion on raw coefficients.

    Conditions: (a) alpha strictly increasing with alpha_n <= 1/2; (b) gamma
    positive and strictly decreasing; (c) alpha_n + gamma_n <= 1; the step
    inequality (alpha_n - alpha_{n-1})/(alpha_n*gamma_{n-1} - alpha_{n-1}*gamma_n)
    <= (alpha_{n+1}*gamma_n - alpha_n*gamma_{n+1})/(gamma_n - gamma_{n+1}) for
    1 <= n <= N, and the startup bound gamma_0 - gamma_1 <= alpha_1*gamma_0^2.
    Satisfied implies every Turan determinant of the normalized family is
    nonnegative on [-1, 1].

    The step inequality is u_{n-1}/w_{n-1} <= w_n/v_n on the step table,
    decided by cross-multiplication (denominators must be positive; a
    nonpositive one makes that index inconclusive, witnessing the two
    denominators).
    """
    if N < 2:
        raise ParamError("check_theorem1 needs N >= 2")
    t = _step_table(family, N)
    al, ga, ap, aq, gp, gq = t.alpha, t.gamma, t.ap, t.aq, t.gp, t.gq
    un, ud, vn, vd, wn, wd = t.steps
    one, zero = Fraction(1), Fraction(0)

    inc = _Cond(COND_ALPHA)
    for n in range(N + 1):
        if n >= 1:
            inc.record(n, un[n - 1] > 0, lambda: (al(n - 1), al(n)))
        inc.record(n, 2 * ap[n] <= aq[n], lambda: (al(n), _HALF))

    dec = _Cond(COND_GAMMA)
    for n in range(N + 1):
        if n >= 1:
            dec.record(n, vn[n - 1] > 0, lambda: (ga(n), ga(n - 1)))
        dec.record(n, gp[n] > 0, lambda: (zero, ga(n)))

    total = _Cond(COND_SUM)
    for n in range(N + 1):
        total.record(n, ap[n] * gq[n] + gp[n] * aq[n] <= aq[n] * gq[n],
                     lambda: (al(n) + ga(n), one))

    step = _Cond(COND_STEP)
    for n in range(1, N + 1):
        if not (wn[n - 1] > 0 and vn[n] > 0):
            step.record(n, None, lambda: (t.w_value(n - 1), t.v_value(n)))
            continue
        ok = un[n - 1] * vn[n] * wd[n - 1] * wd[n] <= wn[n] * wn[n - 1] * ud[n - 1] * vd[n]
        step.record(n, ok, lambda: (t.u_value(n - 1) / t.w_value(n - 1),
                                    t.w_value(n) / t.v_value(n)))

    init = _Cond(COND_INIT)
    init.record(0, vn[0] * aq[1] * gq[0] ** 2 <= ap[1] * gp[0] ** 2 * vd[0],
                lambda: (t.v_value(0), al(1) * ga(0) * ga(0)))

    return CriterionReport.assemble(
        THEOREM1, N, (inc.done(), dec.done(), total.done(), step.done(), init.done()))


def check_szw_normalized(nf, N: int) -> CriterionReport:
    """Criterion on normalized coefficients: alpha-tilde nondecreasing and <= 1/2.

    Accepts a NormalizedFamily or any family that is already normalized at 1
    (alpha + gamma = 1), whose plain alpha is then used.
    """
    if N < 1:
        raise ParamError("check_szw_normalized needs N >= 1")
    at = [exact_value(nf.alpha(n)) for n in range(N + 1)]
    p, q = [x.numerator for x in at], [x.denominator for x in at]

    mono = _Cond("alpha-tilde-nondecreasing")
    bound = _Cond("alpha-tilde-le-half")
    for n in range(N + 1):
        if n >= 1:
            mono.record(n, p[n - 1] * q[n] <= p[n] * q[n - 1], (at[n - 1], at[n]))
        bound.record(n, 2 * p[n] <= q[n], (at[n], _HALF))
    return CriterionReport.assemble(SZW_THEOREM1, N, (mono.done(), bound.done()))


@dataclass(frozen=True)
class DeltaSeq:
    """Positive decreasing sequence delta_n, optionally with a declared limit.

    ``limit`` records what the sequence tends to when that is known in closed
    form (builders set it); None means unknown, and the delta-limit-zero
    condition is then undecided (holds None): no finite table of values
    decides a limit.
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


def _shape_values(alpha_const, gamma_const, delta, N: int):
    """The exact values of A, G and delta_0..delta_N, each read once."""
    d = as_delta(delta)
    return (exact_value(alpha_const), exact_value(gamma_const), d,
            [exact_value(d(n)) for n in range(N + 1)])


def _delta_conditions(alpha_const, gamma_const, d: DeltaSeq, dv: list):
    """Conditions shared by both shifted-constant-shape criteria."""
    zero = Fraction(0)
    (ap, aq), (gp, gq) = _pair(alpha_const), _pair(gamma_const)
    order = _Cond("alpha-ge-gamma-positive")
    order.record(0, 0 < gp and gp * aq <= ap * gq, (gamma_const, alpha_const))

    dec = _Cond("delta-positive-decreasing")
    N = len(dv) - 1
    p, q = [x.numerator for x in dv], [x.denominator for x in dv]
    for n in range(N + 1):
        dec.record(n, p[n] > 0, (zero, dv[n]))
        if n >= 1:
            dec.record(n, p[n] * q[n - 1] < p[n - 1] * q[n], (dv[n], dv[n - 1]))

    lim = _Cond("delta-limit-zero")
    if d.limit is not None:
        lim.record(N, d.limit == 0, (d.limit, zero))
    else:
        lim.record(N, None, (dv[N], zero))
    return order, dec, lim


def check_corollary1(alpha_const, gamma_const, delta, N: int, *,
                     family=None) -> CriterionReport:
    """Shape alpha_n = 1/2 - A*delta_n, gamma_n = 1/2 + G*delta_n with A >= G > 0,
    delta decreasing to 0 and A*delta_0 = 1/2.

    When ``family`` is given, its coefficients are first matched against the
    shape (StructuralMismatch on failure).
    """
    if N < 1:
        raise ParamError("check_corollary1 needs N >= 1")
    A, G, d, dv = _shape_values(alpha_const, gamma_const, delta, N)
    if family is not None:
        _assert_corollary_shape(family, A, G, dv, first_shifted=0)

    order, dec, lim = _delta_conditions(A, G, d, dv)
    prod = _Cond("alpha-times-delta0-is-half")
    val = A * dv[0]
    prod.record(0, val == _HALF, (val, _HALF))

    return CriterionReport.assemble(
        COROLLARY1, N, (order.done(), dec.done(), lim.done(), prod.done()))


def check_corollary2(alpha_const, gamma_const, delta, N: int, *,
                     family=None) -> CriterionReport:
    """Same shape but alpha_0 = 0 directly, with delta_0 confined to the window
    (3G - A)/(2G(A + G)) <= delta_0 <= 1/(2A).

    The window is decided only when A >= G > 0 (alpha-ge-gamma-positive),
    which makes G, A and A + G positive; otherwise its bounds may not exist,
    and both window conditions are left undecided (holds None)."""
    if N < 1:
        raise ParamError("check_corollary2 needs N >= 1")
    A, G, d, dv = _shape_values(alpha_const, gamma_const, delta, N)
    if family is not None:
        _assert_corollary_shape(family, A, G, dv, first_shifted=1)

    order, dec, lim = _delta_conditions(A, G, d, dv)
    low = _Cond("delta0-above-lower-bound")
    up = _Cond("delta0-below-upper-bound")
    if 0 < G <= A:
        a_c, g_c = Fraction(A), Fraction(G)
        lower = (3 * g_c - a_c) / (2 * g_c * (a_c + g_c))
        upper = 1 / (2 * a_c)
        low.record(0, lower <= dv[0], (lower, dv[0]))
        up.record(0, dv[0] <= upper, (dv[0], upper))
    else:
        low.record(0, None, None)
        up.record(0, None, None)

    return CriterionReport.assemble(
        COROLLARY2, N, (order.done(), dec.done(), lim.done(), low.done(), up.done()))


def _assert_corollary_shape(family, A, G, deltas: list, first_shifted: int) -> None:
    """Raise StructuralMismatch unless alpha_n = 1/2 - A*delta_n (from index
    ``first_shifted``) and gamma_n = 1/2 + G*delta_n exactly, for the exact
    values A, G and ``deltas`` and the exact values of the coefficients.

    With A = a/b and delta_n = p/q, 1/2 - A*delta_n = (b*q - 2*a*p)/(2*b*q),
    so each equality is one cross-multiplication of ints; the Fractions of a
    mismatch are built only for its message."""
    (a, b), (c, d) = _pair(A), _pair(G)
    for n, dn in enumerate(deltas):
        p, q = _pair(dn)
        got_a = exact_value(family.alpha(n))
        if n < first_shifted:
            if got_a != 0:
                raise StructuralMismatch(n, "alpha", 0, got_a)
        elif 2 * got_a.numerator * b * q != got_a.denominator * (b * q - 2 * a * p):
            raise StructuralMismatch(n, "alpha", _HALF - A * dn, got_a)
        got_g = exact_value(family.gamma(n))
        if 2 * got_g.numerator * d * q != got_g.denominator * (d * q + 2 * c * p):
            raise StructuralMismatch(n, "gamma", _HALF + G * dn, got_g)


def matches_corollary1(family, alpha_const, gamma_const, delta, N: int) -> bool:
    """Whether the family's first N+1 coefficients follow the Corollary-1 shape."""
    A, G, _, dv = _shape_values(alpha_const, gamma_const, delta, N)
    try:
        _assert_corollary_shape(family, A, G, dv, first_shifted=0)
    except StructuralMismatch:
        return False
    return True


def matches_corollary2(family, alpha_const, gamma_const, delta, N: int) -> bool:
    """Same but with alpha_0 pinned to 0 instead of following the shape."""
    A, G, _, dv = _shape_values(alpha_const, gamma_const, delta, N)
    try:
        _assert_corollary_shape(family, A, G, dv, first_shifted=1)
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
    """Step data for indices 0..N (consumes coefficients up to N+1), formed
    from the exact values of the coefficients."""
    if N < 1:
        raise ParamError("lambda_data needs N >= 1")
    # lambda_n = L/D with L = vn*ud and D = un*vd, so y_n = (D + L)/(D - L)
    t = _step_table(family, N)
    un, ud, vn, vd, _, _ = t.steps
    u, v, lam, y, valid = [], [], [], [], []
    for n in range(N + 1):
        L, D = vn[n] * ud[n], un[n] * vd[n]
        u.append(Fraction(un[n], ud[n]))
        v.append(Fraction(vn[n], vd[n]))
        lam.append(Fraction(L, D) if D else None)
        y.append(Fraction(D + L, D - L) if D and D != L else None)
        valid.append(_valid_step(t.steps, n))
    return LambdaData(tuple(u), tuple(v), tuple(lam), tuple(y), tuple(valid), N)


def lambda_step_bound(x):
    """Largest admissible next step ratio after one of ratio x: (1 + x)/(3 - x)."""
    return (1 + x) / (3 - x)


def y_from_lambda(lam):
    """y = (1 + lambda)/(1 - lambda); inverse of lambda = (y - 1)/(y + 1)."""
    return (1 + lam) / (1 - lam)


def _valid_step(steps, n: int) -> bool:
    """Whether u_n > 0, v_n > 0 and lambda_n = v_n/u_n <= 1, for the ``steps``
    of a step table."""
    un, ud, vn, vd, _, _ = steps
    return un[n] > 0 and vn[n] > 0 and vn[n] * ud[n] <= un[n] * vd[n]


def check_lambda_route(family, N: int) -> CriterionReport:
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
    t = _step_table(family, N)
    al, ga, ap, aq, gp, gq = t.alpha, t.gamma, t.ap, t.aq, t.gp, t.gq
    un, ud, vn, vd, _, _ = t.steps

    # s_n = 1/2 - alpha_n = (aq - 2ap)/(2aq) and t_n = gamma_n - 1/2 =
    # (2gp - gq)/(2gq); the ratio is t_n/s_n
    ratio = _Cond("ratio-nondecreasing")
    for n in range(2, N + 1):
        s0, s1 = aq[n - 1] - 2 * ap[n - 1], aq[n] - 2 * ap[n]
        if not (s0 > 0 and s1 > 0):
            ratio.record(n, None, lambda: (_HALF - al(n - 1), _HALF - al(n)))
            continue
        t0, t1 = 2 * gp[n - 1] - gq[n - 1], 2 * gp[n] - gq[n]
        ratio.record(n, t0 * s1 * gq[n] * aq[n - 1] <= t1 * s0 * gq[n - 1] * aq[n],
                     lambda: ((ga(n - 1) - _HALF) / (_HALF - al(n - 1)),
                              (ga(n) - _HALF) / (_HALF - al(n))))

    pair = _Cond("pair-inequality")
    for n in range(1, N + 1):
        u0, ud0, v0, vd0 = un[n - 1], ud[n - 1], vn[n - 1], vd[n - 1]
        u1, ud1, v1, vd1 = un[n], ud[n], vn[n], vd[n]
        ok = 4 * u0 * v1 * vd0 * ud1 <= (u0 * vd0 + v0 * ud0) * (u1 * vd1 + v1 * ud1)
        if u0 and u1 and v0 * ud0 != 3 * u0 * vd0:
            pair.record(n, ok, lambda: (t.lam_value(n), lambda_step_bound(t.lam_value(n - 1))))
        else:
            pair.record(n, ok, lambda: (
                4 * t.u_value(n - 1) * t.v_value(n),
                (t.u_value(n - 1) + t.v_value(n - 1)) * (t.u_value(n) + t.v_value(n))))

    # lambda_n = L/D with L = vn*ud, D = un*vd; L/D <= 1/3 iff (3L - D)*D <= 0
    shortcut = all(un[n] and (3 * vn[n] * ud[n] - un[n] * vd[n]) * un[n] * vd[n] <= 0
                   for n in range(1, N + 1))
    notes = {
        "shortcut_lambda_le_one_third": shortcut,
        "lambda_invalid_indices": [n for n in range(N + 1) if not _valid_step(t.steps, n)],
    }
    return CriterionReport.assemble(LAMBDA_ROUTE, N, (ratio.done(), pair.done()), notes)


def check_y_route(family, N: int) -> CriterionReport:
    """Transformed route: with y_n = (1 + lambda_n)/(1 - lambda_n), the step
    condition becomes y_n <= y_{n-1} + 1. Requires every lambda_n (n <= N) to
    lie in (0, 1); raises InvalidLambda otherwise.

    The step data is formed from the exact values of the coefficients, so the
    y-route decides what check_lambda_route decides: a family whose doubles
    break the pair inequality is Violated on both routes."""
    if N < 1:
        raise ParamError("check_y_route needs N >= 1")
    # lambda_n = L/D as in check_lambda_route, so y_n = (D + L)/(D - L), kept
    # as yn[n]/yd[n] with a positive denominator
    t = _step_table(family, N)
    un, ud, vn, vd, _, _ = t.steps
    yn, yd = [], []
    for n in range(N + 1):
        L, D = vn[n] * ud[n], un[n] * vd[n]
        if not (0 < L < D or D < L < 0):
            raise InvalidLambda(n, t.lam_value(n) if un[n] else None)
        sign = 1 if D > 0 else -1
        yn.append(sign * (D + L))
        yd.append(sign * (D - L))

    cond = _Cond("y-increments-at-most-one")
    for n in range(1, N + 1):
        cond.record(n, yn[n] * yd[n - 1] <= (yn[n - 1] + yd[n - 1]) * yd[n],
                    lambda: (Fraction(yn[n], yd[n]), Fraction(yn[n - 1], yd[n - 1]) + 1))
    return CriterionReport.assemble(Y_ROUTE, N, (cond.done(),))
