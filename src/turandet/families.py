"""Builders for the named coefficient families, plus the criterion dispatcher.

Every builder returns an exact CoefficientFamily (Fraction coefficients).
Families whose coefficients follow the shifted-constant shape
alpha_n = 1/2 - A*delta_n, gamma_n = 1/2 + G*delta_n carry that shape in
``meta`` so criterion_reports can run the matching corollary checker.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .arith import Num, is_exact, to_fraction
from .criteria import (
    COROLLARY1,
    COROLLARY2,
    CRITERION_NAMES,
    LAMBDA_ROUTE,
    SZW_THEOREM1,
    THEOREM1,
    THEOREM1_HYPOTHESES,
    Y_ROUTE,
    CriterionReport,
    DeltaSeq,
    Verdict,
    as_delta,
    check_corollary1,
    check_corollary2,
    check_lambda_route,
    check_szw_normalized,
    check_theorem1,
    check_y_route,
)
from .errors import (
    InvalidLambda,
    NonpositiveRatio,
    ParamError,
    StructuralMismatch,
    TableRangeError,
)
from .recurrence import CoefficientFamily, _step_table, _table, normalize

__all__ = [
    "FAMILY_KINDS",
    "FAMILY_INFO",
    "FamilySpec",
    "CorollaryShape",
    "build",
    "chebyshev_t",
    "chebyshev_u",
    "legendre",
    "gegenbauer",
    "pollaczek",
    "example2",
    "example3",
    "example4",
    "table_family",
    "corollary1_family",
    "corollary2_family",
    "criterion_reports",
    "certified",
    "classify",
]

FAMILY_KINDS = (
    "ChebyshevT", "ChebyshevU", "Legendre", "Gegenbauer", "Pollaczek",
    "Example2", "Example3", "Example4", "Table",
)

@dataclass(frozen=True)
class CorollaryShape:
    """Constants and delta sequence of the shifted-constant coefficient shape."""

    alpha_const: Num
    gamma_const: Num
    delta: DeltaSeq


@dataclass(frozen=True)
class FamilySpec:
    """Serializable family description (CLI/JSON entry point)."""

    kind: str
    params: Mapping[str, object] = None  # type: ignore[assignment]
    table: tuple[Sequence, Sequence] | None = None

    def __post_init__(self):
        if self.params is None:
            object.__setattr__(self, "params", {})
        if self.kind not in FAMILY_KINDS:
            raise ParamError(f"unknown family kind {self.kind!r}; known: {', '.join(FAMILY_KINDS)}")

    @classmethod
    def from_json(cls, obj) -> "FamilySpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ParamError("family spec must be an object with a 'kind' field")
        kind, params = obj["kind"], obj.get("params", {})
        if not isinstance(params, dict):
            raise ParamError(f"family spec 'params' must be an object (got {params!r})")
        table = None
        if kind == "Table":
            alpha, gamma = obj.get("alpha"), obj.get("gamma")
            if not (isinstance(alpha, list) and isinstance(gamma, list)):
                raise ParamError("Table spec needs 'alpha' and 'gamma' lists")
            table = (list(alpha), list(gamma))
        return cls(kind=kind, params=dict(params), table=table)

    def to_json(self):
        out: dict = {"kind": self.kind}
        if self.params:
            out["params"] = {k: v for k, v in self.params.items()}
        if self.table is not None:
            out["alpha"] = list(self.table[0])
            out["gamma"] = list(self.table[1])
        return out


def chebyshev_t() -> CoefficientFamily:
    half = Fraction(1, 2)
    return CoefficientFamily(
        name="ChebyshevT",
        alpha=lambda n: Fraction(0) if n == 0 else half,
        gamma=lambda n: Fraction(1) if n == 0 else half,
    )


def _halved(c, d):
    """n -> (n + c)/(2(n + d)) as one Fraction built from integers.

    ``c >= 0`` and ``d > 0`` are ints or Fractions; each coefficient costs one
    gcd instead of the several normalized Fractions of the closed form. The
    callable carries its integer form as ``linear`` = (a1, a0, b1, b0) =
    (v*q, u*q, 2*v*q, 2*v*p) for c = u/v and d = p/q, and as ``pair``:
    n -> (a1*n + a0, b1*n + b0), unreduced, with b1*n + b0 > 0 (see
    CoefficientFamily).
    """
    u, v, p, q = c.numerator, c.denominator, d.numerator, d.denominator
    a1, a0, b1, b0 = linear = v * q, u * q, 2 * v * q, 2 * v * p

    def pair(n: int):
        return a1 * n + a0, b1 * n + b0

    def at(n: int):
        return Fraction(*pair(n))

    at.pair = pair
    at.linear = linear
    return at


def chebyshev_u() -> CoefficientFamily:
    """alpha_n = n/(2(n+1)), gamma_n = (n+2)/(2(n+1))."""
    return CoefficientFamily(
        name="ChebyshevU",
        alpha=_halved(0, 1),
        gamma=_halved(2, 1),
    )


def legendre() -> CoefficientFamily:
    """alpha_n = n/(2n+1), gamma_n = (n+1)/(2n+1)."""
    half = Fraction(1, 2)
    return CoefficientFamily(
        name="Legendre",
        alpha=_halved(0, half),
        gamma=_halved(1, half),
    )


def gegenbauer(lam) -> CoefficientFamily:
    """alpha_n = n/(2(n+lambda)), gamma_n = (n+2*lambda)/(2(n+lambda))."""
    lam = to_fraction(lam)
    if not lam > 0:
        raise ParamError(f"Gegenbauer needs lambda > 0 (got {lam})")
    return CoefficientFamily(
        name="Gegenbauer",
        alpha=_halved(0, lam),
        gamma=_halved(2 * lam, lam),
        params={"lambda": lam},
    )


def pollaczek(lam, a) -> CoefficientFamily:
    """alpha_n = n/(2(n+lambda+a)), gamma_n = (n+2*lambda)/(2(n+lambda+a))."""
    lam, a = to_fraction(lam), to_fraction(a)
    if not lam > 0:
        raise ParamError(f"Pollaczek needs lambda > 0 (got {lam})")
    if not a > 0:
        raise ParamError(f"Pollaczek needs a > 0 (got {a})")
    s = lam + a
    meta: dict = {}
    if lam > a:
        # delta_n = 1/(2(n+lambda+a))
        meta["corollary1"] = CorollaryShape(
            alpha_const=s,
            gamma_const=lam - a,
            delta=DeltaSeq(lambda n, _p=s.numerator, _q=s.denominator:
                           Fraction(_q, 2 * (n * _q + _p)), limit=0),
        )
    else:
        meta["unchecked"] = ("a >= lambda branch: gamma_n does not strictly decrease, "
                             "so Theorem1 and Corollary1 do not apply; see SzwTheorem1")
    return CoefficientFamily(
        name="Pollaczek",
        alpha=_halved(0, s),
        gamma=_halved(2 * lam, s),
        params={"lambda": lam, "a": a},
        meta=meta,
    )


def example3(a) -> CoefficientFamily:
    """alpha_n = 1/2 - a/(2(n+a)), gamma_n = 1/2 + a/(2(n+a+1))."""
    a = to_fraction(a)
    if not a > 0:
        raise ParamError(f"Example3 needs a > 0 (got {a})")
    return CoefficientFamily(
        name="Example3",
        alpha=_halved(0, a),
        gamma=_halved(2 * a + 1, a + 1),
        params={"a": a},
    )


def example4(a, b) -> CoefficientFamily:
    """alpha_n as in example3; gamma_n = 1/2 + a/(2(n+a+b+1))."""
    a, b = to_fraction(a), to_fraction(b)
    if not a > 0:
        raise ParamError(f"Example4 needs a > 0 (got {a})")
    if b < 0:
        raise ParamError(f"Example4 needs b >= 0 (got {b})")
    return CoefficientFamily(
        name="Example4",
        alpha=_halved(0, a),
        gamma=_halved(2 * a + b + 1, a + b + 1),
        params={"a": a, "b": b},
    )


_PROBE = 8  # indices sampled when validating user-supplied sequences


def example2(eps, delta, delta0=None) -> CoefficientFamily:
    """alpha_n = 1/2 - 3*eps_n*(1+delta_n), gamma_n = 1/2 + eps_n.

    ``eps`` must decrease strictly to 0 and ``delta`` (used for n >= 1) must be
    nonincreasing with limit >= 0. delta_0 is pinned by the normalization
    constraint eps_0*(1 + delta_0) = 1/6: derived when omitted, verified when
    given. That constraint is exactly alpha_0 = 0.
    """
    eps_seq = as_delta(eps)
    tail = as_delta(delta)
    e0 = eps_seq(0)
    if not 0 < e0 <= Fraction(1, 6):
        raise ParamError(f"Example2 needs 0 < eps_0 <= 1/6 so that delta_0 >= 0 (got {e0})")
    exact = is_exact(e0) and (delta0 is None or is_exact(delta0))
    if delta0 is None:
        sixth = Fraction(1, 6) if is_exact(e0) else 1 / 6
        delta0 = sixth / e0 - 1
    else:
        prod = e0 * (1 + delta0)
        target = Fraction(1, 6) if exact else 1 / 6
        if prod != target:
            raise ParamError(
                f"Example2 needs eps_0*(1 + delta_0) = 1/6 (got {prod})")

    def delta_at(n: int, _d0=delta0, _t=tail):
        return _d0 if n == 0 else _t(n)

    # probe the user sequences for the declared monotonicity
    prev_e = e0
    prev_d = None
    for n in range(1, _PROBE + 1):
        try:
            en, dn = eps_seq(n), tail(n)
        except TableRangeError:
            break
        if not 0 < en < prev_e:
            raise ParamError(f"Example2 eps must decrease strictly through positive values "
                             f"(eps_{n} = {en} after {prev_e})")
        if dn < 0 or (prev_d is not None and dn > prev_d):
            raise ParamError(f"Example2 delta must be nonincreasing and >= 0 for n >= 1 "
                             f"(delta_{n} = {dn})")
        prev_e, prev_d = en, dn

    half = Fraction(1, 2) if exact else 0.5
    zero = Fraction(0) if exact else 0.0
    return CoefficientFamily(
        name="Example2",
        alpha=lambda n, _e=eps_seq, _d=delta_at, _h=half, _z=zero:
            _z if n == 0 else _h - 3 * _e(n) * (1 + _d(n)),
        gamma=lambda n, _e=eps_seq, _h=half: _h + _e(n),
        exact=exact,
        params={"eps0": e0, "delta0": delta0},
    )


def table_family(alphas: Sequence, gammas: Sequence, name: str = "Table") -> CoefficientFamily:
    """Finite coefficient tables; indices past the end raise TableRangeError."""
    if len(alphas) != len(gammas):
        raise ParamError(f"alpha and gamma tables differ in length ({len(alphas)} vs {len(gammas)})")
    if not alphas:
        raise ParamError("empty coefficient table")
    exact = not any(isinstance(v, float) for v in list(alphas) + list(gammas))
    if exact:
        al = tuple(to_fraction(v) for v in alphas)
        ga = tuple(to_fraction(v) for v in gammas)
    else:
        al = tuple(float(v) if isinstance(v, float) else float(to_fraction(v)) for v in alphas)
        ga = tuple(float(v) if isinstance(v, float) else float(to_fraction(v)) for v in gammas)
        for label, table in (("alpha", al), ("gamma", ga)):
            for n, v in enumerate(table):
                if not math.isfinite(v):
                    raise ParamError(f"{label}_{n} must be finite (got {v})")
    if al[0] != 0:
        raise ParamError(f"alpha_0 must be 0 by convention (got {al[0]})")
    for n, v in enumerate(al[1:], start=1):
        if not v > 0:
            raise ParamError(f"alpha_{n} must be positive (got {v})")
    for n, v in enumerate(ga):
        if not v > 0:
            raise ParamError(f"gamma_{n} must be positive (got {v})")

    return CoefficientFamily(name=name, alpha=_table(al), gamma=_table(ga), exact=exact,
                             params={"length": len(al)})


def corollary1_family(alpha_const, gamma_const, delta, name: str = "shape1") -> CoefficientFamily:
    """Family of the exact shape alpha_n = 1/2 - A*delta_n, gamma_n = 1/2 + G*delta_n.

    Requires A*delta_0 = 1/2 (that is alpha_0 = 0)."""
    d = as_delta(delta)
    exact = is_exact(alpha_const) and is_exact(gamma_const) and is_exact(d(0))
    half = Fraction(1, 2) if exact else 0.5
    prod = alpha_const * d(0)
    if prod != half:
        raise ParamError(f"need alpha_const*delta_0 = 1/2 for alpha_0 = 0 (got {prod})")
    return CoefficientFamily(
        name=name,
        alpha=lambda n, _A=alpha_const, _d=d, _h=half: _h - _A * _d(n),
        gamma=lambda n, _G=gamma_const, _d=d, _h=half: _h + _G * _d(n),
        exact=exact,
        params={"alpha_const": alpha_const, "gamma_const": gamma_const},
        meta={"corollary1": CorollaryShape(alpha_const, gamma_const, d)},
    )


def corollary2_family(alpha_const, gamma_const, delta, name: str = "shape2") -> CoefficientFamily:
    """Same shape but alpha_0 pinned to 0 (no constraint tying delta_0 to A)."""
    d = as_delta(delta)
    exact = is_exact(alpha_const) and is_exact(gamma_const) and is_exact(d(0))
    half = Fraction(1, 2) if exact else 0.5
    zero = Fraction(0) if exact else 0.0
    return CoefficientFamily(
        name=name,
        alpha=lambda n, _A=alpha_const, _d=d, _h=half, _z=zero:
            _z if n == 0 else _h - _A * _d(n),
        gamma=lambda n, _G=gamma_const, _d=d, _h=half: _h + _G * _d(n),
        exact=exact,
        params={"alpha_const": alpha_const, "gamma_const": gamma_const},
        meta={"corollary2": CorollaryShape(alpha_const, gamma_const, d)},
    )


# The kinds whose params are numbers: builder, parameter names (all required,
# passed in this order) and the constraints on them. Example2 and Table parse
# their own params in build.
_PLAIN_KINDS = {
    "ChebyshevT": (chebyshev_t, (), "none (gamma_0 = 1, alpha_n = gamma_n = 1/2)"),
    "ChebyshevU": (chebyshev_u, (), "none (normalized at 1)"),
    "Legendre": (legendre, (), "none (normalized at 1)"),
    "Gegenbauer": (gegenbauer, ("lambda",), "lambda > 0 (normalized at 1)"),
    "Pollaczek": (pollaczek, ("lambda", "a"), "lambda > 0, a > 0"),
    "Example3": (example3, ("a",), "a > 0"),
    "Example4": (example4, ("a", "b"), "a > 0, b >= 0"),
}

_INFO = {
    **{kind: {"params": ", ".join(names) or "none", "constraints": constraints}
       for kind, (_, names, constraints) in _PLAIN_KINDS.items()},
    "Example2": {
        "params": "eps, delta (sequence specs), optional delta0",
        "constraints": "eps strictly decreasing > 0, delta nonincreasing >= 0 for n >= 1, "
                       "eps_0*(1 + delta_0) = 1/6",
    },
    "Table": {"params": "alpha, gamma lists", "constraints": "alpha_0 = 0, alpha_n > 0 (n >= 1), gamma_n > 0"},
}
FAMILY_INFO: Mapping[str, Mapping[str, str]] = {kind: _INFO[kind] for kind in FAMILY_KINDS}


def _seq_from_spec(obj, role: str) -> DeltaSeq:
    """Sequence spec: geometric/harmonic closed forms or explicit tables."""
    if isinstance(obj, (list, tuple)):
        return DeltaSeq.from_values([to_fraction(v) for v in obj])
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParamError(f"{role}: sequence spec must be a list or an object with 'kind'")
    kind = obj["kind"]
    if kind == "geometric":
        first = to_fraction(obj.get("first", 1))
        ratio = to_fraction(obj.get("ratio", Fraction(1, 2)))
        if not first > 0 or not 0 < ratio < 1:
            raise ParamError(f"{role}: geometric needs first > 0 and 0 < ratio < 1")
        return DeltaSeq(lambda n, _f=first, _r=ratio: _f * _r ** n, limit=0)
    if kind == "harmonic":
        scale = to_fraction(obj.get("scale", 1))
        shift = to_fraction(obj.get("shift", 0))
        if not scale > 0 or shift < 0:
            raise ParamError(f"{role}: harmonic needs scale > 0 and shift >= 0")

        def at(n: int, _s=scale, _h=shift):
            if n + _h == 0:
                raise ParamError(f"{role}: harmonic term undefined at n = {n} with shift {_h}")
            return _s / (n + _h)

        return DeltaSeq(at, limit=0)
    if kind == "table":
        return DeltaSeq.from_values([to_fraction(v) for v in obj.get("values", [])])
    raise ParamError(f"{role}: unknown sequence kind {kind!r}")


def build(spec: FamilySpec) -> CoefficientFamily:
    """Construct the family a FamilySpec describes (ParamError on bad input)."""
    kind, p = spec.kind, dict(spec.params)

    def take(*names, required=()):
        unknown = set(p) - set(names)
        if unknown:
            raise ParamError(f"{kind}: unexpected params {sorted(unknown)}")
        for r in required:
            if r not in p:
                raise ParamError(f"{kind}: missing required param {r!r}")

    if kind in _PLAIN_KINDS:
        builder, names, _ = _PLAIN_KINDS[kind]
        take(*names, required=names)
        return builder(*(p[name] for name in names))
    if kind == "Example2":
        take("eps", "delta", "delta0", required=("eps", "delta"))
        d0 = to_fraction(p["delta0"]) if "delta0" in p else None
        return example2(_seq_from_spec(p["eps"], "eps"),
                        _seq_from_spec(p["delta"], "delta"), d0)
    if kind == "Table":
        take("name")
        if spec.table is None:
            raise ParamError("Table spec needs alpha/gamma lists")
        return table_family(spec.table[0], spec.table[1], name=p.get("name", "Table"))
    raise ParamError(f"unknown family kind {kind!r}")


def _error_report(criterion: str, N: int, exc: Exception) -> CriterionReport:
    return CriterionReport(criterion, N, (), Verdict.INCONCLUSIVE, {"error": str(exc)})


def _route_reports(table) -> list[CriterionReport]:
    """LambdaRoute and YRoute reports, both from the one step table ``table``."""
    reports = [check_lambda_route(table, table.N)]
    try:
        reports.append(check_y_route(table, table.N))
    except InvalidLambda as exc:
        reports.append(_error_report(Y_ROUTE, table.N, exc))
    return reports


def criterion_reports(family, N: int) -> list[CriterionReport]:
    """The report of every applicable checker up to N, each checker run once.

    The coefficients are read once, up to index N+1, as exact values into one
    step table, and every checker decides on that table. Order: Theorem1,
    SzwTheorem1, LambdaRoute, YRoute, then the corollary whose shape the
    family carries in ``meta``. A nonpositive ratio g_n, a step ratio lambda_n
    outside (0, 1), or coefficients off the declared shape (as the doubles of
    a float family are) turn the SzwTheorem1, YRoute or corollary report into
    an Inconclusive one whose notes carry the error.
    """
    if N < 2:
        raise ParamError("criterion_reports needs N >= 2")
    table = _step_table(family, N)
    # SzwTheorem1 goes first, so that the ratios it normalizes by are freed
    # before the step table builds its steps
    try:
        szw = check_szw_normalized(normalize(table, N), N)
    except NonpositiveRatio as exc:
        szw = _error_report(SZW_THEOREM1, N, exc)
    reports = [check_theorem1(table, N), szw, *_route_reports(table)]

    for key, name, check in (("corollary1", COROLLARY1, check_corollary1),
                             ("corollary2", COROLLARY2, check_corollary2)):
        shape = table.meta.get(key)
        if shape is not None:
            try:
                reports.append(check(shape.alpha_const, shape.gamma_const, shape.delta, N,
                                     family=table))
            except StructuralMismatch as exc:
                reports.append(_error_report(name, N, exc))
    return reports


def certified(reports) -> list[str]:
    """Names of the Satisfied criteria among ``reports``, in CRITERION_NAMES order.

    The routes (lambda/y) only decide the step inequality, so they certify
    only when the Theorem1 report among ``reports`` shows every other
    condition of the main criterion (THEOREM1_HYPOTHESES) holding.
    """
    by_name = {r.criterion: r for r in reports}
    t1 = by_name.get(THEOREM1)
    hyp_ok = t1 is not None and all(t1.condition(lbl).holds is True
                                    for lbl in THEOREM1_HYPOTHESES)
    return [name for name in CRITERION_NAMES
            if name in by_name and by_name[name].overall is Verdict.SATISFIED
            and (hyp_ok or name not in (LAMBDA_ROUTE, Y_ROUTE))]


def classify(family, N: int) -> list[str]:
    """Names of the criteria whose checkers certify the family up to N."""
    if N < 2:
        raise ParamError("classify needs N >= 2")
    return certified(criterion_reports(family, N))
