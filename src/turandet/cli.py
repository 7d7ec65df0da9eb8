"""Command-line front end: family builders, criterion checks, grid scans,
ratio bounds, step-ratio data, and density estimation with JSON/CSV output.

Exit codes: 0 all verdicts Satisfied / all values nonnegative (Inconclusive
does not fail), 1 some Violated verdict or negative value, 2 usage or data
error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

from .arith import DEFAULT_MARGIN, format_number
from .criteria import Verdict, lambda_data
from .density import DEFAULT_N as DENSITY_DEFAULT_N
from .density import default_density_grid, estimate_density
from .errors import TableRangeError, TuranError
from .families import (
    FAMILY_INFO,
    FAMILY_KINDS,
    FamilySpec,
    _route_reports,
    build,
    certified,
    criterion_reports,
)
from .recurrence import _materialize, float_view, ratio_sandwich
from .turan import DEFAULT_GRID_POINTS, DEFAULT_TOLERANCE, grid_scan

__all__ = ["RunConfig", "run", "main"]


@dataclass(frozen=True)
class RunConfig:
    command: str
    family_spec: str | None = None
    N: int | None = None
    grid_points: int | None = None
    output: str | None = None
    format: str = "json"
    mode: str = "auto"
    tolerance: float | None = None
    reproducible: bool = False


def _load_family(text: str):
    """Accept inline JSON, a bare builtin kind name, or a path to a JSON file."""
    s = text.strip()
    if s.startswith("{"):
        obj = json.loads(s)
    elif s in FAMILY_KINDS:
        obj = {"kind": s}
    else:
        try:
            with open(s, encoding="utf-8") as fh:
                obj = json.load(fh)
        except FileNotFoundError:
            raise OSError(
                f"family spec not found: {s!r} (pass a file path, a kind name "
                f"among {', '.join(FAMILY_KINDS)}, or inline JSON)") from None
    return build(FamilySpec.from_json(obj))


def _apply_mode(family, mode: str):
    if mode == "rational":
        if not family.exact:
            raise TuranError("rational mode needs exact coefficients; "
                             "this family carries float data")
        return family
    if mode == "float":
        return float_view(family)
    return family


def _sanitize(obj):
    """JSON-safe copy: Fractions -> 'num/den', non-finite floats -> strings."""
    if isinstance(obj, Fraction):
        return format_number(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _family_echo(family):
    return {"name": family.name,
            "params": {k: format_number(v) if isinstance(v, (int, float, Fraction)) else str(v)
                       for k, v in family.params.items()}}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, cfg: RunConfig) -> None:
    if not cfg.reproducible:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _emit(json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n", cfg.output)


def _emit_csv(rows, cfg: RunConfig) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    _emit(buf.getvalue(), cfg.output)


def _margin(cfg: RunConfig) -> float:
    return DEFAULT_MARGIN if cfg.tolerance is None else cfg.tolerance


# Per command: highest coefficient index read, less its --N (--n-max for scan),
# and the smallest N it accepts.
_TABLE_REACH = {"check": (1, 2), "lambda": (1, 1), "ratios": (0, 1), "scan": (0, 1),
                "density": (1, 10)}


def _cmd_families(cfg: RunConfig) -> int:
    kinds = [{"kind": k, **FAMILY_INFO[k]} for k in FAMILY_KINDS]
    if cfg.format == "csv":
        rows = [["kind", "params", "constraints"]]
        rows += [[k["kind"], k["params"], k["constraints"]] for k in kinds]
        _emit_csv(rows, cfg)
    else:
        _emit_json({"command": "families", "kinds": kinds}, cfg)
    return 0


def _cmd_check(cfg: RunConfig) -> int:
    family = _apply_mode(_load_family(cfg.family_spec), cfg.mode)
    N = cfg.N
    reports = criterion_reports(family, N, _margin(cfg))
    payload = {
        "command": "check",
        "family": _family_echo(family),
        "N": N,
        "criteria": [r.to_json() for r in reports],
        "certified": certified(reports),
    }
    if "unchecked" in family.meta:
        payload["notes"] = {"unchecked": family.meta["unchecked"]}

    if cfg.format == "csv":
        rows = [["criterion", "overall", "label", "holds", "first_violation",
                 "witness_lhs", "witness_rhs"]]
        for r in reports:
            if not r.conditions:
                rows.append([r.criterion, r.overall.value, "", "", "", "", ""])
            for c in r.conditions:
                w = c.to_json()["witness"] or ["", ""]
                rows.append([r.criterion, r.overall.value, c.label, c.holds,
                             c.first_violation, w[0], w[1]])
        _emit_csv(rows, cfg)
    else:
        _emit_json(payload, cfg)
    return 1 if any(r.overall is Verdict.VIOLATED for r in reports) else 0


def _cmd_scan(cfg: RunConfig) -> int:
    family = _apply_mode(_load_family(cfg.family_spec), cfg.mode)
    report = grid_scan(family, cfg.N,
                       grid_points=cfg.grid_points or DEFAULT_GRID_POINTS,
                       tolerance=cfg.tolerance if cfg.tolerance is not None
                       else DEFAULT_TOLERANCE)
    if cfg.format == "csv":
        _emit_csv(report.csv_rows(), cfg)
    else:
        _emit_json({"command": "scan", "family": _family_echo(family),
                    **report.to_json()}, cfg)
    return 0 if report.all_nonnegative else 1


def _cmd_ratios(cfg: RunConfig) -> int:
    family = _apply_mode(_load_family(cfg.family_spec), cfg.mode)
    rows = ratio_sandwich(family, cfg.N, _margin(cfg))
    ok = all(r.lower_ok and r.upper_ok for r in rows)
    if cfg.format == "csv":
        out = [["n", "g", "upper", "lower_ok", "upper_ok", "gamma_step_decreasing"]]
        for r in rows:
            out.append([r.n, format_number(r.g), format_number(r.upper),
                        r.lower_ok, r.upper_ok, r.gamma_step_decreasing])
        _emit_csv(out, cfg)
    else:
        _emit_json({
            "command": "ratios",
            "family": _family_echo(family),
            "N": cfg.N,
            "all_bounds_hold": ok,
            "rows": [{"n": r.n, "g": format_number(r.g),
                      "upper": format_number(r.upper), "lower_ok": r.lower_ok,
                      "upper_ok": r.upper_ok,
                      "gamma_step_decreasing": r.gamma_step_decreasing}
                     for r in rows],
        }, cfg)
    return 0 if ok else 1


def _cmd_lambda(cfg: RunConfig) -> int:
    family = _apply_mode(_load_family(cfg.family_spec), cfg.mode)
    table = _materialize(family, cfg.N + 1)
    data = lambda_data(table, cfg.N)
    reports = _route_reports(table, data, _margin(cfg))
    if cfg.format == "csv":
        out = [["n", "u", "v", "lambda", "y", "valid"]]
        for row in data.rows():
            out.append([row["n"], row["u"], row["v"], row["lambda"], row["y"],
                        row["valid"]])
        _emit_csv(out, cfg)
    else:
        _emit_json({
            "command": "lambda",
            "family": _family_echo(family),
            "N": cfg.N,
            "rows": list(data.rows()),
            "criteria": [r.to_json() for r in reports],
        }, cfg)
    return 1 if any(r.overall is Verdict.VIOLATED for r in reports) else 0


def _cmd_density(cfg: RunConfig) -> int:
    if cfg.mode == "rational":
        raise TuranError("density estimation runs in float arithmetic; "
                         "use --mode auto or --mode float")
    family = _apply_mode(_load_family(cfg.family_spec), cfg.mode)
    xs = None if cfg.grid_points is None else default_density_grid(cfg.grid_points)
    kw = {} if cfg.tolerance is None else {"offdiag_tol": cfg.tolerance}
    est = estimate_density(family, N=cfg.N or DENSITY_DEFAULT_N, xs=xs, **kw)
    if cfg.format == "csv":
        _emit_csv(est.csv_rows(), cfg)
    else:
        _emit_json({"command": "density", "family": _family_echo(family),
                    **est.to_json()}, cfg)
    return 0 if est.all_valid else 1


_COMMANDS = {
    "families": _cmd_families,
    "check": _cmd_check,
    "scan": _cmd_scan,
    "ratios": _cmd_ratios,
    "lambda": _cmd_lambda,
    "density": _cmd_density,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    if cfg.command not in _COMMANDS:
        print(f"error: unknown command {cfg.command!r}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command](cfg)
    except TableRangeError as exc:
        flag = "--n-max" if cfg.command == "scan" else "--N"
        reach, least = _TABLE_REACH[cfg.command]
        largest = exc.size - 1 - reach
        advice = (f"the largest valid {flag} for {cfg.command} is {largest}" if largest >= least
                  else f"{cfg.command} needs at least {least + reach + 1}")
        print(f"error: the coefficient table has {exc.size} entries; {advice}", file=sys.stderr)
        return 2
    except (TuranError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _add_family_flags(sp, *, n_help: str, n_default: int | None,
                      n_flag: str = "--N", grid_default: int | None = None) -> None:
    sp.add_argument("--family", required=True,
                    help="family spec: path to JSON, inline JSON, or builtin kind name")
    sp.add_argument(n_flag, dest="N", type=int, default=n_default, help=n_help)
    if grid_default is not None:
        sp.add_argument("--grid", dest="grid_points", type=int, default=None,
                        help=f"grid point parameter (default {grid_default})")
    sp.add_argument("--mode", choices=("auto", "rational", "float"), default="auto",
                    help="arithmetic: rational = exact (requires exact input), "
                         "float = coerce, auto = as built")
    sp.add_argument("--tol", dest="tolerance", type=float, default=None,
                    help="tolerance override (comparison margin, scan tolerance, "
                         "or density convergence threshold, per command)")


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", dest="output", default=None,
                    help="write the report to this path instead of stdout")
    sp.add_argument("--reproducible", action="store_true",
                    help="suppress the timestamp field for byte-identical reruns")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="turandet",
        description="Turán-determinant nonnegativity criteria, grid scans, and "
                    "density estimation for symmetric orthogonal polynomials "
                    "given three-term recurrence coefficients.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("families", help="list builtin family kinds")
    _add_output_flags(sp)

    sp = sub.add_parser("check", help="run every applicable criterion checker")
    _add_family_flags(sp, n_help="check conditions for indices up to N", n_default=100)
    _add_output_flags(sp)

    sp = sub.add_parser("scan", help="grid-scan normalized Turán determinants")
    _add_family_flags(sp, n_help="largest degree to scan", n_default=50,
                      n_flag="--n-max", grid_default=DEFAULT_GRID_POINTS)
    _add_output_flags(sp)

    sp = sub.add_parser("ratios", help="ratio sequence g_n with two-sided bounds")
    _add_family_flags(sp, n_help="compute g_0..g_{N-1}", n_default=100)
    _add_output_flags(sp)

    sp = sub.add_parser("lambda", help="step ratios, route data, route verdicts")
    _add_family_flags(sp, n_help="check route conditions up to N", n_default=100)
    _add_output_flags(sp)

    sp = sub.add_parser("density", help="estimate the orthogonality density")
    _add_family_flags(sp, n_help="determinant degree used for the estimate",
                      n_default=DENSITY_DEFAULT_N, grid_default=199)
    _add_output_flags(sp)

    return p


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    cfg = RunConfig(
        command=ns.command,
        family_spec=getattr(ns, "family", None),
        N=getattr(ns, "N", None),
        grid_points=getattr(ns, "grid_points", None),
        output=ns.output,
        format=ns.format,
        mode=getattr(ns, "mode", "auto"),
        tolerance=getattr(ns, "tolerance", None),
        reproducible=ns.reproducible,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
