"""Oracles: what each op's output must be, judged one criterion at a time.

``summarize`` runs in the worker after a pass and keeps only what the oracles
read. ``reference`` builds the float-mode references (outside every timed
metric). ``check`` returns None for a correct op or a one-line reason.

Pinned verdicts (``PINNED``) are per family kind. They were measured with
the package's exact arithmetic for every candidate parameter in workloads.py
at N = 3000, 200, 40 and 12, so parameters do not enter them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

_S, _I = "Satisfied", "Inconclusive"
_RATIOS = {"all_bounds_hold": True, "code": 0}


def _pin(criteria: dict, certified: list, lambda_criteria: dict) -> dict:
    return {"check": {"criteria": criteria, "certified": certified, "code": 0},
            "lambda": {"criteria": lambda_criteria, "code": 0},
            "ratios": _RATIOS}


_MAIN = {"Theorem1": _S, "SzwTheorem1": _S, "LambdaRoute": _S, "YRoute": _S}
_MAIN_CERTIFIED = ["Theorem1", "SzwTheorem1", "LambdaRoute", "YRoute"]
# Legendre and Gegenbauer sit on the lambda = 1 boundary: the y-route cannot run.
_BOUNDARY = {"Theorem1": _S, "SzwTheorem1": _S, "LambdaRoute": _S, "YRoute": _I}

# kind -> expected exact outputs of check (both sizes), lambda and ratios.
PINNED = {
    "Example3": _pin(_MAIN, _MAIN_CERTIFIED, {"LambdaRoute": _S, "YRoute": _S}),
    "Example4": _pin(_MAIN, _MAIN_CERTIFIED, {"LambdaRoute": _S, "YRoute": _S}),
    "Legendre": _pin(_BOUNDARY, ["Theorem1", "SzwTheorem1", "LambdaRoute"],
                     {"LambdaRoute": _S, "YRoute": _I}),
    "Gegenbauer": _pin(_BOUNDARY, ["Theorem1", "SzwTheorem1", "LambdaRoute"],
                       {"LambdaRoute": _S, "YRoute": _I}),
    "Pollaczek": _pin({**_MAIN, "Corollary1": _S},
                      ["Theorem1", "SzwTheorem1", "Corollary1", "LambdaRoute", "YRoute"],
                      {"LambdaRoute": _S, "YRoute": _S}),
}


# The estimator's error is O(1/N^2); 1.22e-8 at N = 10^4, lambda = 3/2.
ACCURACY_LIMIT = 100.0


def summarize(op: dict, raw: dict) -> dict:
    """The parts of one op's raw output that the oracles read."""
    if "exception" in raw:
        return {"error": raw["exception"].strip().splitlines()[-1]}
    if op["call"] == "cli":
        out = {"code": raw["code"]}
        if raw["code"] == 2:
            out["error"] = raw["err"].strip()
            return out
        rep = json.loads(raw["out"])
        cmd = rep["command"]
        if cmd in ("check", "lambda"):
            out["criteria"] = {c["criterion"]: c["overall"] for c in rep["criteria"]}
        if cmd == "check":
            out["certified"] = rep["certified"]
        elif cmd == "ratios":
            out["all_bounds_hold"] = rep["all_bounds_hold"]
        elif cmd == "scan":
            out["negative_ns"] = [e["n"] for e in rep["per_n"] if not e["nonnegative"]]
        elif cmd == "density":
            out["invalid_xs"] = [p["x"] for p in rep["points"] if not p["valid"]]
        return out
    if op["call"] == "scaled_scan":
        rep = raw["report"]
        return {"nonnegative_ns": [e.n for e in rep.per_n if e.nonnegative],
                "min_values": [e.min_value for e in rep.per_n]}
    est = raw["estimate"]
    return {"all_valid": est.all_valid, "xs": list(est.xs), "density": list(est.density)}


def scaled_down_value_at_minus_one(n: int) -> Fraction:
    """Closed form of (s_n P_n)^2 - s_{n-1} s_{n+1} P_{n-1} P_{n+1} at x = -1 for
    normalized Legendre with s_n = 1/(2n+1): P_n(-1) = (-1)^n, so the value is
    s_n^2 - s_{n-1} s_{n+1} = -4/((2n+1)^2 (2n-1)(2n+3)) < 0."""
    return Fraction(-4, (2 * n + 1) ** 2 * (2 * n - 1) * (2 * n + 3))


def gegenbauer_weight(x: float, lam: float) -> float:
    """Probability-normalized Gegenbauer weight (1-x^2)^(lam-1/2) / B(1/2, lam+1/2)."""
    log_beta = math.lgamma(0.5) + math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0)
    return (1.0 - x * x) ** (lam - 0.5) / math.exp(log_beta)


def density_max_rel_err(op: dict, summary: dict) -> float:
    """Max |w_N - w|/w over the op's grid against the closed-form Gegenbauer weight."""
    lam = float(Fraction(op["spec"]["params"]["lambda"]))
    return max(abs(d - gegenbauer_weight(x, lam)) / gegenbauer_weight(x, lam)
               for x, d in zip(summary["xs"], summary["density"]))


def _compare(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got}, expected {want}"


def _float_verdicts(summary: dict, ref: dict, pinned: dict | None) -> str | None:
    """Each float verdict must equal the exact verdict on the same doubles, or be
    Inconclusive. A criterion the reference cannot run (a corollary shape the
    double table does not carry) is judged against the pinned exact verdict."""
    for name, got in summary["criteria"].items():
        want = ref["criteria"].get(name)
        if want is None and pinned is not None:
            want = pinned["check"]["criteria"].get(name)
        if got not in (want, "Inconclusive"):
            return f"{name}: float {got}, exact on the same doubles {want}"
    unreferenced = set(summary["criteria"]) - set(ref["criteria"])
    extra = sorted(set(summary["certified"]) - set(ref["certified"]) - unreferenced)
    if extra:
        return f"certified {extra} that the exact doubles do not certify"
    return None


def check(op: dict, summary: dict, ref: dict | None) -> str | None:
    """None if ``summary`` passes the op's oracle, else the reason it fails."""
    if "error" in summary:
        return f"error (exit {summary.get('code', 'raised')}): {summary['error']}"
    oracle = op["oracle"]
    pinned = PINNED.get(op["family"])
    if oracle == "check_exact":
        want = pinned["check"]
        return (_compare("criteria", summary["criteria"], want["criteria"])
                or _compare("certified", summary["certified"], want["certified"])
                or _compare("exit code", summary["code"], want["code"]))
    if oracle == "check_float":
        return _float_verdicts(summary, ref, pinned)
    if oracle == "lambda_exact":
        want = pinned["lambda"]
        return (_compare("criteria", summary["criteria"], want["criteria"])
                or _compare("exit code", summary["code"], want["code"]))
    if oracle == "ratios_exact":
        want = pinned["ratios"]
        return (_compare("all_bounds_hold", summary["all_bounds_hold"], want["all_bounds_hold"])
                or _compare("exit code", summary["code"], want["code"]))
    if oracle == "scan_exact":
        if summary["negative_ns"]:
            ns = summary["negative_ns"]
            return f"{len(ns)} degrees marked negative, first n = {ns[0]}"
        return _compare("exit code", summary["code"], 0)
    if oracle == "scaled_all_nonnegative":
        bad = sorted(set(range(1, op["n_max"] + 1)) - set(summary["nonnegative_ns"]))
        return f"{len(bad)} degrees marked negative, first n = {bad[0]}" if bad else None
    if oracle == "scaled_all_negative":
        if summary["nonnegative_ns"]:
            ns = summary["nonnegative_ns"]
            return f"{len(ns)} degrees marked nonnegative, first n = {ns[0]}"
        for n, v in enumerate(summary["min_values"], start=1):
            bound = float(scaled_down_value_at_minus_one(n))
            if v > bound * (1 - 1e-6):
                return f"grid minimum {v!r} at n = {n} above the value {bound!r} at x = -1"
        return None
    if oracle == "density_valid":
        if summary["invalid_xs"]:
            return f"{len(summary['invalid_xs'])} invalid points, first x = {summary['invalid_xs'][0]}"
        return _compare("exit code", summary["code"], 0)
    if oracle == "density_accuracy":
        if not summary["all_valid"]:
            return "invalid points in the density estimate"
        err, limit = density_max_rel_err(op, summary), ACCURACY_LIMIT / op["N"] ** 2
        return None if err <= limit else f"max relative error {err:.3g} above {limit:.3g}"
    raise ValueError(f"unknown oracle {oracle!r}")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def double_table_spec(build, spec: dict, length: int) -> dict:
    """Table spec holding the exact rational value of each double the float
    mode computes with: Fraction(float(v)) of every coefficient."""
    fam = build(spec)

    def exact_double(v) -> str:
        f = Fraction(float(v))
        return f"{f.numerator}/{f.denominator}"

    return {"kind": "Table",
            "alpha": [exact_double(fam.alpha(n)) for n in range(length)],
            "gamma": [exact_double(fam.gamma(n)) for n in range(length)]}


def reference(op: dict, build, cli_main) -> dict | None:
    """Exact verdicts on the doubles of a float-mode check; None for other ops."""
    if op["oracle"] != "check_float":
        return None
    N = int(op["argv"][op["argv"].index("--N") + 1])
    table = double_table_spec(build, op["spec"], N + 3)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["check", "--family", json.dumps(table), "--N", str(N)])
    return summarize({"call": "cli"}, {"code": code, "out": buf.getvalue(), "err": ""})
