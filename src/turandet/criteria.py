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
- step ratios: lambda_n = v_n/u_n = L/D and y_n = (D + L)/(D - L), with
  L = vn*ud and D = un*vd (``_StepTable.lambdas``);
- pair inequality: 4*D_{n-1}*L_n <= (D_{n-1} + L_{n-1})*(D_n + L_n).

Each condition is one pass over whole columns of the table: the products of
a comparison are formed by ``map`` over the int columns, and the comparison
gives a column of flags, one per index: True, False, or None where the
index is inconclusive. The condition's verdict is its first False, else its
first None, found by index (``_condition``). Fractions are built only for
what is kept: the witness of that index, or of the first comparison of a
condition that holds, and the values of lambda_data. The ``lambda`` command
prints its rows from the reduced int columns of the step data
(``_lambda_columns``), with no Fraction.

SzwTheorem1 compares the normalized alpha_tilde_n = alpha_n/g_{n-1}, whose
exact values grow past thousands of digits within a few thousand indices.
It decides in two tiers, a floating-point filter and then exact ints.
Doubles rounded one step outward (``recurrence._ratio_bounds``), carried
from the step table's ints, bound every alpha_tilde_n, and a comparison
whose two bounds separate is decided there; the NaN bounds of a quotient
outside the normal doubles separate nothing. The comparisons left open
are decided on the exact alpha_tilde_n, by cross-multiplying the int
pairs that the uncapped exact ratio pass forms only up to the last open
index. So this decision too is the one that the exact values give.

Witness convention: a witness is the pair (lhs, rhs) of the comparison the
condition makes at that index, oriented so the condition holds iff lhs < rhs
(strict conditions) or lhs <= rhs (non-strict ones). Satisfied conditions keep
the first comparison made as a representative witness.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .arith import Num, coprime_fraction, exact_value, format_number
from .errors import InvalidLambda, StructuralMismatch
from .recurrence import (
    NormalizedFamily,
    _coprime_columns,
    _ExactRatios,
    _ratio_bounds,
    _require_count,
    _step_table,
    _table,
)

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


def _first(flags: list, want, start: int = 0) -> int | None:
    """The first i >= start with flags[i] == want, or None."""
    try:
        return flags.index(want, start)
    except ValueError:
        return None


def _condition(label: str, *checks) -> ConditionCheck:
    """One condition from the flag columns of its comparisons.

    Each check is (first, flags, witness): flags[i] is the outcome of the
    comparison at index first + i (True, False, or None where it is
    inconclusive), and witness(n) forms the witness pair of that comparison
    at n. Where the condition makes several comparisons at one index, the
    checks come in the order it makes them. The verdict is the first False
    by index, else the first None; a condition with neither holds, and keeps
    its first comparison as a sample witness. Only the one witness kept is
    formed."""
    for want in (False, None):
        hits = [(first + i, k) for k, (first, flags, _) in enumerate(checks)
                if (i := _first(flags, want)) is not None]
        if hits:
            n, k = min(hits)
            return ConditionCheck(label, want, n, checks[k][2](n))
    made = [(first, k) for k, (first, flags, _) in enumerate(checks) if flags]
    if not made:
        return ConditionCheck(label, True, None, None)
    n, k = min(made)
    return ConditionCheck(label, True, None, checks[k][2](n))


def _unless(guard: list, flags: list) -> list:
    """``flags``, with None at each index where ``guard`` is False: an
    index whose comparison is not defined is inconclusive."""
    if all(guard):
        return flags
    return [f if g else None for f, g in zip(flags, guard)]


def _open(le: list, gt: list) -> list:
    """The indices i where neither le[i] nor gt[i] holds, in order, up to
    the first where gt[i] holds."""
    found = []
    i = _first(le, False)
    while i is not None and not gt[i]:
        found.append(i)
        i = _first(le, False, i + 1)
    return found


_HALF = Fraction(1, 2)
_ZEROS = itertools.repeat(0)


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
    N = _require_count("N", N, 2)
    t = _step_table(family, N)
    al, ga = t.alpha, t.gamma
    a, b, c, d = (col[:N + 1] for col in (t.ap, t.aq, t.gp, t.gq))
    un, ud, vn, vd, wn, wd = t.steps  # each map below stops at N with a [:N] operand
    mul, le, gt = operator.mul, operator.le, operator.gt
    one, zero = Fraction(1), Fraction(0)

    inc = _condition(
        COND_ALPHA,
        (1, list(map(gt, un[:N], _ZEROS)), lambda n: (al(n - 1), al(n))),
        (0, list(map(le, map(mul, a, itertools.repeat(2)), b)), lambda n: (al(n), _HALF)))
    dec = _condition(
        COND_GAMMA,
        (1, list(map(gt, vn[:N], _ZEROS)), lambda n: (ga(n), ga(n - 1))),
        (0, list(map(gt, c, _ZEROS)), lambda n: (zero, ga(n))))
    total = _condition(
        COND_SUM,
        (0, list(map(le, map(operator.add, map(mul, a, d), map(mul, c, b)), map(mul, b, d))),
         lambda n: (al(n) + ga(n), one)))

    # at n = 1..N: u_{n-1}*v_n*wd_{n-1}*wd_n <= w_n*w_{n-1}*ud_{n-1}*vd_n
    lhs = map(mul, map(mul, un[:N], vn[1:]), map(mul, wd[:N], wd[1:]))
    rhs = map(mul, map(mul, wn[1:], wn[:N]), map(mul, ud[:N], vd[1:]))
    guard = list(map(operator.and_, map(gt, wn[:N], _ZEROS), map(gt, vn[1:], _ZEROS)))
    flags = _unless(guard, list(map(le, lhs, rhs)))

    def step_witness(n):
        if flags[n - 1] is None:
            return t.w_value(n - 1), t.v_value(n)
        return t.u_value(n - 1) / t.w_value(n - 1), t.w_value(n) / t.v_value(n)
    step = _condition(COND_STEP, (1, flags, step_witness))

    init = _condition(
        COND_INIT,
        (0, [vn[0] * t.aq[1] * d[0] ** 2 <= t.ap[1] * c[0] ** 2 * vd[0]],
         lambda n: (t.v_value(0), al(1) * ga(0) * ga(0))))

    return CriterionReport.assemble(THEOREM1, N, (inc, dec, total, step, init))


def check_szw_normalized(family, N: int) -> CriterionReport:
    """Criterion on normalized coefficients: alpha-tilde nondecreasing and <= 1/2.

    ``family`` is decided as the base of its normalization at 1: a
    NormalizedFamily's ``base``, and any other family itself. The
    comparisons are made on bounds of alpha_tilde_0..alpha_tilde_N in
    doubles rounded outward (``recurrence._ratio_bounds``), carried from g_0
    over the exact values of the coefficients. A comparison is decided where
    its two bounds separate, which a NaN bound never does. Those that they
    leave open, up to each condition's first False, are decided on the exact
    alpha_tilde_n, by cross-multiplying the int pairs that the uncapped
    exact ratio pass forms up to the last such index. A nonpositive g_n
    raises NonpositiveRatio, and a zero gamma_n ParamError, as the exact
    pass does. Witnesses are exact, formed for the comparisons that are kept.
    """
    N = _require_count("N", N)
    table = _step_table(family.base if isinstance(family, NormalizedFamily) else family, N - 1)
    exact = _ExactRatios(table)
    le, gt = operator.le, operator.gt
    lo, hi, _, _ = zip(*_ratio_bounds(table, N, exact))
    halves = itertools.repeat(0.5)
    # alpha_tilde_{n-1} <= alpha_tilde_n at n = 1, 2, ...; alpha_tilde_n <= 1/2 at n = 0, 1, ...
    mono, bound = list(map(le, hi[:-1], lo[1:])), list(map(le, hi, halves))
    left_mono = _open(mono, list(map(gt, lo[:-1], hi[1:])))
    left_bound = _open(bound, list(map(gt, lo, halves)))
    # the exact alpha_tilde_n = A/B that those comparisons read, each formed once
    needed = {*left_bound, *left_mono, *(i + 1 for i in left_mono)}
    exact._extend(max(needed, default=0))
    pairs = {n: exact._tilde(n) for n in needed}
    for i in left_mono:  # alpha_tilde_i <= alpha_tilde_{i+1}
        (a, b), (c, d) = pairs[i], pairs[i + 1]
        mono[i] = a * d <= c * b
    for i in left_bound:
        a, b = pairs[i]
        bound[i] = 2 * a <= b
    at = exact.alpha_tilde
    return CriterionReport.assemble(SZW_THEOREM1, N, (
        _condition("alpha-tilde-nondecreasing", (1, mono, lambda n: (at(n - 1), at(n)))),
        _condition("alpha-tilde-le-half", (0, bound, lambda n: (at(n), _HALF)))))


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
    """The exact values of A and G, the sequence, and delta_0..delta_N as
    two columns of coprime ints p and q > 0, each value read once
    (``recurrence._coprime_columns``: a ``linear`` form column by column)."""
    d = as_delta(delta)
    return (exact_value(alpha_const), exact_value(gamma_const), d,
            *_coprime_columns(d.fn, N + 1))


def _delta_conditions(alpha_const, gamma_const, d: DeltaSeq, p: list, q: list):
    """Conditions shared by both shifted-constant-shape criteria."""
    zero = Fraction(0)
    (ap, aq), (gp, gq) = _pair(alpha_const), _pair(gamma_const)
    order = _condition("alpha-ge-gamma-positive",
                       (0, [0 < gp and gp * aq <= ap * gq], lambda n: (gamma_const, alpha_const)))

    N = len(p) - 1
    dv = lambda n: coprime_fraction(p[n], q[n])  # noqa: E731
    mul = operator.mul
    dec = _condition(
        "delta-positive-decreasing",
        (0, list(map(operator.gt, p, _ZEROS)), lambda n: (zero, dv(n))),
        (1, list(map(operator.lt, map(mul, p[1:], q), map(mul, p, q[1:]))),
         lambda n: (dv(n), dv(n - 1))))

    if d.limit is not None:
        lim = _condition("delta-limit-zero", (N, [d.limit == 0], lambda n: (d.limit, zero)))
    else:
        lim = _condition("delta-limit-zero", (N, [None], lambda n: (dv(N), zero)))
    return order, dec, lim


def check_corollary1(alpha_const, gamma_const, delta, N: int, *,
                     family=None) -> CriterionReport:
    """Shape alpha_n = 1/2 - A*delta_n, gamma_n = 1/2 + G*delta_n with A >= G > 0,
    delta decreasing to 0 and A*delta_0 = 1/2.

    When ``family`` is given, its coefficients are first matched against the
    shape (StructuralMismatch on failure).
    """
    N = _require_count("N", N)
    A, G, d, p, q = _shape_values(alpha_const, gamma_const, delta, N)
    if family is not None:
        _assert_corollary_shape(family, A, G, p, q, first_shifted=0)

    val = A * coprime_fraction(p[0], q[0])
    prod = _condition("alpha-times-delta0-is-half", (0, [val == _HALF], lambda n: (val, _HALF)))
    return CriterionReport.assemble(COROLLARY1, N, (*_delta_conditions(A, G, d, p, q), prod))


def check_corollary2(alpha_const, gamma_const, delta, N: int, *,
                     family=None) -> CriterionReport:
    """Same shape but alpha_0 = 0 directly, with delta_0 confined to the window
    (3G - A)/(2G(A + G)) <= delta_0 <= 1/(2A).

    The window is decided only when A >= G > 0 (alpha-ge-gamma-positive),
    which makes G, A and A + G positive; otherwise its bounds may not exist,
    and both window conditions are left undecided (holds None)."""
    N = _require_count("N", N)
    A, G, d, p, q = _shape_values(alpha_const, gamma_const, delta, N)
    if family is not None:
        _assert_corollary_shape(family, A, G, p, q, first_shifted=1)

    if 0 < G <= A:
        a_c, g_c, d0 = Fraction(A), Fraction(G), coprime_fraction(p[0], q[0])
        lower = (3 * g_c - a_c) / (2 * g_c * (a_c + g_c))
        upper = 1 / (2 * a_c)
        window = ((0, [lower <= d0], lambda n: (lower, d0)),
                  (0, [d0 <= upper], lambda n: (d0, upper)))
    else:
        window = ((0, [None], lambda n: None),) * 2
    low = _condition("delta0-above-lower-bound", window[0])
    up = _condition("delta0-below-upper-bound", window[1])
    return CriterionReport.assemble(COROLLARY2, N, (*_delta_conditions(A, G, d, p, q), low, up))


def _assert_corollary_shape(family, A, G, p: list, q: list, first_shifted: int) -> None:
    """Raise StructuralMismatch unless alpha_n = 1/2 - A*delta_n (from index
    ``first_shifted``; 0 before it) and gamma_n = 1/2 + G*delta_n exactly,
    for the exact values A, G and delta_n = p[n]/q[n] and the exact values
    of the coefficients, at the first index and coefficient that breaks the
    shape.

    The coefficients are read as the int columns of a step table (the one
    handed in, when ``family`` is one). With A = a/b, G = c/d and delta_n =
    p/q, 1/2 - A*delta_n = (b*q - 2*a*p)/(2*b*q) and 1/2 + G*delta_n =
    (d*q + 2*c*p)/(2*d*q), so each equality is one cross-multiplication of
    ints over whole columns; the Fractions of a mismatch are built only for
    its message."""
    (a, b), (c, d) = _pair(A), _pair(G)
    size, k = len(p), first_shifted
    t = _step_table(family, size - 2)
    ap, aq, gp, gq = (col[:size] for col in (t.ap, t.aq, t.gp, t.gq))
    mul, eq, twos = operator.mul, operator.eq, itertools.repeat(2)
    bq, dq = list(map(mul, q, itertools.repeat(b))), list(map(mul, q, itertools.repeat(d)))
    alpha_ok = list(map(eq, map(mul, ap, map(mul, bq, twos)),
                        map(mul, aq, map(operator.sub, bq, map(mul, p, itertools.repeat(2 * a))))))
    alpha_ok[:k] = [x == 0 for x in ap[:k]]
    gamma_ok = list(map(eq, map(mul, gp, map(mul, dq, twos)),
                        map(mul, gq, map(operator.add, dq, map(mul, p, itertools.repeat(2 * c))))))
    n_a, n_g = _first(alpha_ok, False), _first(gamma_ok, False)
    if n_a is not None and (n_g is None or n_a <= n_g):
        want = 0 if n_a < k else _HALF - A * coprime_fraction(p[n_a], q[n_a])
        raise StructuralMismatch(n_a, "alpha", want, t.alpha(n_a))
    if n_g is not None:
        want = _HALF + G * coprime_fraction(p[n_g], q[n_g])
        raise StructuralMismatch(n_g, "gamma", want, t.gamma(n_g))


def matches_corollary1(family, alpha_const, gamma_const, delta, N: int) -> bool:
    """Whether the family's first N+1 coefficients follow the Corollary-1 shape."""
    A, G, _, p, q = _shape_values(alpha_const, gamma_const, delta, N)
    try:
        _assert_corollary_shape(family, A, G, p, q, first_shifted=0)
    except StructuralMismatch:
        return False
    return True


def matches_corollary2(family, alpha_const, gamma_const, delta, N: int) -> bool:
    """Same but with alpha_0 pinned to 0 instead of following the shape."""
    A, G, _, p, q = _shape_values(alpha_const, gamma_const, delta, N)
    try:
        _assert_corollary_shape(family, A, G, p, q, first_shifted=1)
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


def _lambda_columns(t, N: int):
    """Yield the step data u_n, v_n, lambda_n = L/D and y_n = (D + L)/(D - L)
    of indices 0..N of the step table ``t``, with its ``lambdas``, in turn,
    each as a column of numerators and one of denominators in lowest terms
    (``_reduced``), None in both where the value is undefined. A caller
    that keeps what it forms from one quantity holds no int column past it."""
    un, ud, vn, vd, _, _ = t.steps
    L, D, _ = t.lambdas
    yield _reduced(un[:N + 1], ud[:N + 1])
    yield _reduced(vn[:N + 1], vd[:N + 1])
    L, D = L[:N + 1], D[:N + 1]
    yield _reduced(L, D)
    # y_n is undefined where lambda_n is (D = 0): its denominator is read as 0
    yield _reduced(list(map(operator.add, D, L)), [d - l if d else 0 for l, d in zip(L, D)])


def _reduced(P: list, Q: list):
    """P[n]/Q[n] in lowest terms with a positive denominator, the numerator
    and denominator of Fraction(P[n], Q[n]), as two columns; None in both
    where Q[n] = 0."""
    G = list(map(math.gcd, P, Q))
    if min(Q, default=1) > 0:
        return list(map(operator.floordiv, P, G)), list(map(operator.floordiv, Q, G))
    G = [g if q > 0 else -g for g, q in zip(G, Q)]
    return ([p // g if q else None for p, q, g in zip(P, Q, G)],
            [q // g if q else None for q, g in zip(Q, G)])


def lambda_data(family, N: int) -> LambdaData:
    """Step data for indices 0..N (consumes coefficients up to N+1), formed
    from the exact values of the coefficients: one Fraction per value, from
    the reduced ints of ``_lambda_columns``."""
    N = _require_count("N", N)
    t = _step_table(family, N)
    u, v, lam, y = (tuple(None if q is None else coprime_fraction(p, q) for p, q in zip(P, Q))
                    for P, Q in _lambda_columns(t, N))
    _, _, valid = t.lambdas
    return LambdaData(u, v, lam, y, tuple(valid[:N + 1]), N)


def lambda_step_bound(x):
    """Largest admissible next step ratio after one of ratio x: (1 + x)/(3 - x)."""
    return (1 + x) / (3 - x)


def y_from_lambda(lam):
    """y = (1 + lambda)/(1 - lambda); inverse of lambda = (y - 1)/(y + 1)."""
    return (1 + lam) / (1 - lam)


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
    N = _require_count("N", N)
    t = _step_table(family, N)
    L, D, valid = (c[:N + 1] for c in t.lambdas)
    ratio, pair = _ratio_condition(t, N), _pair_condition(t, N)
    # L/D <= 1/3 iff (3L - D)*D <= 0, for D != 0 (u_n != 0)
    mul = operator.mul
    shortcut = all(D[1:]) and all(map(operator.le, map(mul, map(
        operator.sub, map(mul, L[1:], itertools.repeat(3)), D[1:]), D[1:]), _ZEROS))
    notes = {
        "shortcut_lambda_le_one_third": shortcut,
        "lambda_invalid_indices": list(itertools.compress(range(N + 1),
                                                          map(operator.not_, valid))),
    }
    return CriterionReport.assemble(LAMBDA_ROUTE, N, (ratio, pair), notes)


def _ratio_condition(t, N: int) -> ConditionCheck:
    """Condition (i) of the lambda route on the step table ``t``, n = 2..N.

    s_n = 1/2 - alpha_n = S_n/(2aq_n) with S = aq - 2ap, and t_n = gamma_n -
    1/2 = T_n/(2gq_n) with T = 2gp - gq. Where S_{n-1}, S_n > 0, the ratio
    t_n/s_n does not fall at n iff T_{n-1}*aq_{n-1}*S_n*gq_n <=
    T_n*aq_n*S_{n-1}*gq_{n-1}, that is TA_{n-1}*SG_n <= TA_n*SG_{n-1}; other
    indices are inconclusive."""
    al, ga = t.alpha, t.gamma
    a, b, c, d = (col[:N + 1] for col in (t.ap, t.aq, t.gp, t.gq))
    mul, sub, twos = operator.mul, operator.sub, itertools.repeat(2)
    S = list(map(sub, b, map(mul, a, twos)))
    TA = list(map(mul, map(sub, map(mul, c, twos), d), b))
    SG = list(map(mul, S, d))
    pos = list(map(operator.gt, S, _ZEROS))
    flags = _unless(list(map(operator.and_, pos[1:N], pos[2:])),
                    list(map(operator.le, map(mul, TA[1:N], SG[2:]), map(mul, TA[2:], SG[1:N]))))

    def witness(n):
        if flags[n - 2] is None:
            return _HALF - al(n - 1), _HALF - al(n)
        return ((ga(n - 1) - _HALF) / (_HALF - al(n - 1)), (ga(n) - _HALF) / (_HALF - al(n)))
    return _condition("ratio-nondecreasing", (2, flags, witness))


def _pair_condition(t, N: int) -> ConditionCheck:
    """Condition (ii) of the lambda route on the step table ``t``, n = 1..N:
    u_n*vd_n + v_n*ud_n = D_n + L_n and u_{n-1}*v_n*vd_{n-1}*ud_n =
    D_{n-1}*L_n, so the pair inequality reads 4*D_{n-1}*L_n <= (D_{n-1} +
    L_{n-1})*(D_n + L_n)."""
    L, D, _ = t.lambdas
    mul = operator.mul
    DL = list(map(operator.add, D[:N + 1], L))
    flags = list(map(operator.le, map(mul, map(mul, D[:N], itertools.repeat(4)), L[1:N + 1]),
                     map(mul, DL[:N], DL[1:])))

    def witness(n):
        if D[n - 1] and D[n] and L[n - 1] != 3 * D[n - 1]:
            return t.lam_value(n), lambda_step_bound(t.lam_value(n - 1))
        return (4 * t.u_value(n - 1) * t.v_value(n),
                (t.u_value(n - 1) + t.v_value(n - 1)) * (t.u_value(n) + t.v_value(n)))
    return _condition("pair-inequality", (1, flags, witness))


def check_y_route(family, N: int) -> CriterionReport:
    """Transformed route: with y_n = (1 + lambda_n)/(1 - lambda_n), the step
    condition becomes y_n <= y_{n-1} + 1. Requires every lambda_n (n <= N) to
    lie in (0, 1); raises InvalidLambda otherwise.

    The step data is formed from the exact values of the coefficients, so the
    y-route decides what check_lambda_route decides: a family whose doubles
    break the pair inequality is Violated on both routes."""
    N = _require_count("N", N)
    t = _step_table(family, N)
    L, D, _ = (c[:N + 1] for c in t.lambdas)
    n = _first([0 < l < d or d < l < 0 for l, d in zip(L, D)], False)
    if n is not None:
        raise InvalidLambda(n, t.lam_value(n) if D[n] else None)
    # lambda_n = L/D in (0, 1): L and D have one sign, so y_n = (D + L)/(D - L)
    # = yn[n]/yd[n] with yn = |D| + |L| and yd = |D| - |L| > 0
    AD, AL = list(map(abs, D)), list(map(abs, L))
    yn, yd = list(map(operator.add, AD, AL)), list(map(operator.sub, AD, AL))
    mul = operator.mul
    flags = list(map(operator.le, map(mul, yn[1:], yd[:N]),
                     map(mul, map(operator.add, yn[:N], yd[:N]), yd[1:])))
    return CriterionReport.assemble(Y_ROUTE, N, (_condition(
        "y-increments-at-most-one",
        (1, flags, lambda n: (Fraction(yn[n], yd[n]), Fraction(yn[n - 1], yd[n - 1]) + 1))),))
