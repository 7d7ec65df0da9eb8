"""Command-line front end: family builders, criterion checks, grid scans,
ratio bounds, step-ratio data, and density estimation with JSON/CSV output.

JSON reports have the layout of ``json.dumps(report, indent=2,
sort_keys=True)``, ASCII escapes included, with exact values as "num/den"
strings and non-finite floats as the strings "inf", "-inf" and "nan". They
are written in pieces, never whole: the C encoder writes each row table in
batches of rows (``_json_pieces``).

Exit codes: 0 all verdicts Satisfied / all values nonnegative (Inconclusive
does not fail), 1 some Violated verdict or negative value, 2 usage or data
error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .arith import format_number, number_text
from .criteria import Verdict, _lambda_columns
from .density import DEFAULT_N as DENSITY_DEFAULT_N
from .density import DEFAULT_OFFDIAG_TOL as DENSITY_DEFAULT_TOL
from .density import DEFAULT_POINTS as DENSITY_DEFAULT_POINTS
from .density import default_density_grid, estimate_density
from .errors import ParamError, TableRangeError, TuranError
from .families import (
    FAMILY_INFO,
    FAMILY_KINDS,
    FamilySpec,
    _route_reports,
    build,
    certified,
    criterion_reports,
)
from .recurrence import _sandwich_columns, _step_table, float_view
from .turan import DEFAULT_GRID_POINTS, grid_scan

__all__ = ["main"]


def _load_family(text: str):
    """Accept inline JSON, a bare builtin kind name, or a path to a JSON file."""
    s = text.strip()
    if s.startswith("{"):
        try:
            obj = json.loads(s)
        except ValueError as exc:
            raise ParamError(f"inline family spec is not valid JSON: {exc}") from None
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
        except OSError as exc:
            raise OSError(f"cannot read family spec file {s!r}: {exc.strerror}") from None
        except ValueError as exc:  # a JSON syntax error, or bytes that are not UTF-8
            raise ParamError(f"family spec file {s!r} is not valid JSON: {exc}") from None
    return build(FamilySpec.from_json(obj))


_MODES = ("auto", "rational", "float")


def _apply_mode(family, mode: str):
    if mode == "rational" and not family.exact:
        raise TuranError("rational mode needs exact coefficients; "
                         "this family carries float data")
    return float_view(family) if mode == "float" else family


def _json_default(obj):
    if isinstance(obj, Fraction):
        return format_number(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# Rows of a row table per encoder call, so no piece of a report holds more.
# The C encoder keeps each token of a call as its own string until it joins
# them: 128 rows keep that near 0.2 MB, and wrote scan and ratios reports
# no slower than batches of 256 or 1024 rows.
_BATCH = 128


def _spell(value):
    """A non-finite float as the string a report prints: "inf", "-inf" or
    "nan"; any other value as it is."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if value != value else "inf" if value > 0 else "-inf"
    return value


def _encode(value, separator: str = ", ") -> str:
    """A scalar, or a list of flat rows, as JSON from the C encoder: sorted
    keys, ``separator`` between items, Fractions as "num/den" strings and
    non-finite floats spelled by ``_spell``."""
    encoder = json.JSONEncoder(separators=(separator, ": "), sort_keys=True,
                               allow_nan=False, default=_json_default)
    try:
        return encoder.encode(value)
    except ValueError:  # a non-finite float, which allow_nan=False refuses
        value = ([{k: _spell(v) for k, v in row.items()} for row in value]
                 if isinstance(value, list) else _spell(value))
        return encoder.encode(value)


def _flat_rows(batch) -> bool:
    """Whether each item of ``batch`` is a nonempty dict of scalars."""
    if not all(issubclass(t, dict) for t in set(map(type, batch))) or not all(batch):
        return False
    values = itertools.chain.from_iterable(map(dict.values, batch))
    return not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values)))


def _json_pieces(value, indent: str = ""):
    """The JSON text of ``value``, indented by two spaces a level from
    ``indent``, in pieces: what ``json.dumps(value, indent=2, sort_keys=True)``
    writes, but with string keys only, Fractions as "num/den" strings and
    non-finite floats as the strings "inf", "-inf" and "nan".

    Dicts and lists are walked here; scalars and each batch of _BATCH rows of
    a row table, a list of nonempty dicts of scalars, are written by the C
    encoder. A batch is encoded with its rows' own item separator and its
    row boundaries re-indented by one replace: the encoder escapes each
    newline inside a string, and no row holds a dict, so "},\n" + indent +
    "{" is only ever a boundary."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        head = "{\n" + inner
        for key, item in sorted(value.items()):
            yield head + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(item, inner)
            head = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(value, (list, tuple)) and value:
        head = "[\n" + inner
        key_indent = inner + "  "
        boundary = "},\n" + key_indent + "{"
        for start in range(0, len(value), _BATCH):
            batch = list(value[start:start + _BATCH])
            if _flat_rows(batch):
                text = _encode(batch, ",\n" + key_indent)[2:-2].replace(
                    boundary, "\n" + inner + "},\n" + inner + "{\n" + key_indent)
                yield head + "{\n" + key_indent + text + "\n" + inner + "}"
                head = ",\n" + inner
            else:
                for item in batch:
                    yield head
                    yield from _json_pieces(item, inner)
                    head = ",\n" + inner
        yield "\n" + indent + "]"
    else:
        yield _encode(value)


def _family_echo(family):
    return {"name": family.name,
            "params": {k: format_number(v) if isinstance(v, (int, float, Fraction)) else str(v)
                       for k, v in family.params.items()}}


def _emit(write, out: str | None) -> None:
    """Call ``write`` on the output stream: the file ``out``, or stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _emit_json(payload: dict, ns) -> None:
    if not ns.reproducible:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _emit(lambda fh: fh.writelines(itertools.chain(_json_pieces(payload), "\n")), ns.output)


def _emit_csv(rows, ns) -> None:
    _emit(lambda fh: csv.writer(fh, lineterminator="\n").writerows(rows), ns.output)


def _families(_, ns) -> int:
    kinds = [{"kind": k, **FAMILY_INFO[k]} for k in FAMILY_KINDS]
    if ns.format == "csv":
        rows = [["kind", "params", "constraints"]]
        rows += [[k["kind"], k["params"], k["constraints"]] for k in kinds]
        _emit_csv(rows, ns)
    else:
        _emit_json({"command": "families", "kinds": kinds}, ns)
    return 0


def _check(family, ns) -> int:
    reports = criterion_reports(family, ns.N)
    payload = {
        "command": "check",
        "family": _family_echo(family),
        "N": ns.N,
        "criteria": [r.to_json() for r in reports],
        "certified": certified(reports),
    }
    if "unchecked" in family.meta:
        payload["notes"] = {"unchecked": family.meta["unchecked"]}

    if ns.format == "csv":
        rows = [["criterion", "overall", "label", "holds", "first_violation",
                 "witness_lhs", "witness_rhs"]]
        for r in reports:
            if not r.conditions:
                rows.append([r.criterion, r.overall.value, "", "", "", "", ""])
            for c in r.conditions:
                w = c.to_json()["witness"] or ["", ""]
                rows.append([r.criterion, r.overall.value, c.label, c.holds,
                             c.first_violation, w[0], w[1]])
        _emit_csv(rows, ns)
    else:
        _emit_json(payload, ns)
    return 1 if any(r.overall is Verdict.VIOLATED for r in reports) else 0


def _scan(family, ns) -> int:
    report = grid_scan(family, ns.N, grid_points=ns.grid_points)
    if ns.format == "csv":
        _emit_csv(report.csv_rows(), ns)
    else:
        _emit_json({"command": "scan", "family": _family_echo(family),
                    **report.to_json()}, ns)
    return 0 if report.all_nonnegative else 1


def _lowest_terms(p: int, q: int) -> tuple[int, int]:
    """p/q in lowest terms, for q > 0."""
    d = math.gcd(p, q)
    return p // d, q // d


def _ratio_rows(family, N: int) -> list[dict]:
    """The rows of ``ratios`` as printed: the rows of
    ``ratio_sandwich(family, N)`` through ``format_number``, each exact value
    written as "num/den" from the columns' ints, with no Fraction, and each
    50-digit g_n past a digit-cap fallback as its double. The columns are
    freed on return."""
    printed, W, V, steps, decided = _sandwich_columns(family, N)
    if type(printed[0]) is tuple:  # no fallback
        g = _pair_texts(zip(*printed))
    else:
        g = list(map(float, printed))
    upper = _pair_texts(zip(*(_lowest_terms(w, v) if step else (None, None)
                              for w, v, step in zip(W, V, steps))))
    return [{"n": n, "g": a, "upper": math.inf if b is None else b,
             "lower_ok": lower_ok, "upper_ok": upper_ok, "gamma_step_decreasing": step}
            for n, a, b, step, (lower_ok, upper_ok) in zip(range(N), g, upper, steps, decided)]


def _ratios(family, ns) -> int:
    rows = _ratio_rows(family, ns.N)
    ok = all(r["lower_ok"] and r["upper_ok"] for r in rows)
    if ns.format == "csv":
        keys = ("n", "g", "upper", "lower_ok", "upper_ok", "gamma_step_decreasing")
        _emit_csv([keys, *([r[k] for k in keys] for r in rows)], ns)
    else:
        _emit_json({
            "command": "ratios",
            "family": _family_echo(family),
            "N": ns.N,
            "all_bounds_hold": ok,
            "rows": rows,
        }, ns)
    return 0 if ok else 1


def _pair_texts(column) -> list:
    """"p/q" of each pair of a column (P, Q), or None where q is None: by
    f-string, or by ``number_text`` when an int is past the interpreter's
    limit on int-to-str digits, which the f-string raises ValueError at."""
    P, Q = column
    try:
        return [None if q is None else f"{p}/{q}" for p, q in zip(P, Q)]
    except ValueError:
        return [None if q is None else f"{number_text(p)}/{number_text(q)}" for p, q in zip(P, Q)]


def _lambda_rows(family, N: int):
    """The rows of ``lambda`` as printed, and its route reports: the rows
    of ``lambda_data(family, N).rows()``, each exact value written as
    "num/den" from the reduced ints of the step data, with no Fraction.
    The step table is freed on return."""
    table = _step_table(family, N)
    u, v, lam, y = map(_pair_texts, _lambda_columns(table, N))
    _, _, valid = table.lambdas
    rows = [{"n": n, "u": a, "v": b, "lambda": c, "y": d, "valid": ok}
            for n, a, b, c, d, ok in zip(range(N + 1), u, v, lam, y, valid)]
    return rows, _route_reports(table)


def _lambda(family, ns) -> int:
    rows, reports = _lambda_rows(family, ns.N)
    if ns.format == "csv":
        keys = ("n", "u", "v", "lambda", "y", "valid")
        _emit_csv([keys, *([r[k] for k in keys] for r in rows)], ns)
    else:
        _emit_json({
            "command": "lambda",
            "family": _family_echo(family),
            "N": ns.N,
            "rows": rows,
            "criteria": [r.to_json() for r in reports],
        }, ns)
    return 1 if any(r.overall is Verdict.VIOLATED for r in reports) else 0


def _density(family, ns) -> int:
    if ns.mode == "rational":
        raise TuranError("density estimation runs in float arithmetic; "
                         "use --mode auto or --mode float")
    est = estimate_density(family, N=ns.N, xs=default_density_grid(ns.grid_points),
                           offdiag_tol=ns.tolerance)
    if ns.format == "csv":
        _emit_csv(est.csv_rows(), ns)
    else:
        _emit_json({"command": "density", "family": _family_echo(family),
                    **est.to_json()}, ns)
    return 0 if est.all_valid else 1


_FAMILY_HELP = "family spec: path to JSON, inline JSON, or builtin kind name"
_MODE_HELP = ("arithmetic: rational = exact (requires exact input), "
              "float = round each coefficient to a double, auto = as built")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Each subcommand with its flags, its handler and, when it reads a family,
    its table reach: the flag that sets N, the highest coefficient index read
    less N, and the smallest N it accepts. Built once: parsing leaves the
    parser unchanged, and argparse makes its help formatter at print time."""
    p = argparse.ArgumentParser(
        prog="turandet",
        description="Turán-determinant nonnegativity criteria, grid scans, and "
                    "density estimation for symmetric orthogonal polynomials "
                    "given three-term recurrence coefficients.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help, reach=None):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler, reach=reach)
        if reach is not None:
            sp.add_argument("--family", required=True, help=_FAMILY_HELP)
        return sp

    command("families", _families, "list builtin family kinds")

    sp = command("check", _check, "run every applicable criterion checker", ("--N", 1, 2))
    sp.add_argument("--N", type=int, default=100, help="check conditions for indices up to N")
    sp.add_argument("--mode", choices=_MODES, default="auto", help=_MODE_HELP)

    sp = command("scan", _scan, "grid-scan normalized Turán determinants", ("--n-max", 0, 1))
    sp.add_argument("--n-max", dest="N", type=int, default=50, help="largest degree to scan")
    sp.add_argument("--grid", dest="grid_points", type=int, default=DEFAULT_GRID_POINTS,
                    help=f"grid point parameter (default {DEFAULT_GRID_POINTS})")
    sp.add_argument("--mode", choices=_MODES, default="auto", help=_MODE_HELP)

    sp = command("ratios", _ratios, "ratio sequence g_n with two-sided bounds", ("--N", 0, 1))
    sp.add_argument("--N", type=int, default=100, help="compute g_0..g_{N-1}")
    sp.add_argument("--mode", choices=_MODES, default="auto", help=_MODE_HELP)

    sp = command("lambda", _lambda, "step ratios, route data, route verdicts", ("--N", 1, 1))
    sp.add_argument("--N", type=int, default=100, help="check route conditions up to N")
    sp.add_argument("--mode", choices=_MODES, default="auto", help=_MODE_HELP)

    sp = command("density", _density, "estimate the orthogonality density", ("--N", 1, 10))
    sp.add_argument("--N", type=int, default=DENSITY_DEFAULT_N,
                    help="determinant degree used for the estimate")
    sp.add_argument("--grid", dest="grid_points", type=int, default=DENSITY_DEFAULT_POINTS,
                    help=f"grid point parameter (default {DENSITY_DEFAULT_POINTS})")
    sp.add_argument("--mode", choices=_MODES, default="auto", help=_MODE_HELP)
    sp.add_argument("--tol", dest="tolerance", type=float, default=DENSITY_DEFAULT_TOL,
                    help="off-diagonal convergence threshold |a_N - 1/2| "
                         f"(default {DENSITY_DEFAULT_TOL})")

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", dest="output", default=None,
                        help="write the report to this path instead of stdout")
        sp.add_argument("--reproducible", action="store_true",
                        help="suppress the timestamp field for byte-identical reruns")
    return p


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    ns = _parser().parse_args(argv)
    if ns.reach is not None:
        flag, _, least = ns.reach
        if ns.N < least:
            print(f"error: the smallest valid {flag} for {ns.command} is {least}",
                  file=sys.stderr)
            return 2
    try:
        family = None if ns.reach is None else _apply_mode(_load_family(ns.family), ns.mode)
        return ns.handler(family, ns)
    except TableRangeError as exc:
        flag, reach, least = ns.reach
        largest = exc.size - 1 - reach
        advice = (f"the largest valid {flag} for {ns.command} is {largest}" if largest >= least
                  else f"{ns.command} needs at least {least + reach + 1}")
        print(f"error: the coefficient table has {exc.size} entries; {advice}", file=sys.stderr)
        return 2
    except (TuranError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
