"""Golden outputs: check, lambda, ratios, scans, scaled scans, density,
families, eval_polys, the --help text of turandet and of each subcommand and
the stdout of every demo, byte for byte, and the SHA-256 digests of check,
lambda and ratios at the benchmark's N = 3000, of its scans at n_max = 5000
and of its density sweeps at N = 10^5, with three more density sweeps at
N = 10^5 whose off-diagonals are not read from int64 chunks.

Each case renders one output as text and compares it with the file of the
same name under tests/golden. Refresh the files only for an intended change
of output, naming the cases whose output changed:

    PYTHONPATH=src python tests/test_golden.py eval_polys.json families.csv

With no names, every file is rewritten.
"""
import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest

from turandet import eval_polys, example3, legendre, pollaczek, recurrence, scaled_scan
from turandet.arith import format_number
from turandet.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"

FAMILIES = {
    "legendre": '{"kind": "Legendre"}',
    "example3": '{"kind": "Example3", "params": {"a": 1}}',
    "pollaczek": '{"kind": "Pollaczek", "params": {"lambda": 2, "a": 1}}',
    "example3_third": '{"kind": "Example3", "params": {"a": "1/3"}}',
}


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main([*argv, "--reproducible"])
    return buf.getvalue()


# (spec, N) of the check/lambda/ratios cases: Pollaczek(2, 1) carries a
# Corollary1 shape, Legendre's YRoute is an InvalidLambda error report,
# ChebyshevT is Violated, the table's g_1 = -1/5 makes SzwTheorem1 an error
# report, Example3(1/3) passes its digit-cap fallback at N = 990, and
# Example4(2, 1/2) and Gegenbauer(3) are two more families the benchmark runs.
CRITERIA_FAMILIES = {
    "example3": (FAMILIES["example3"], 60),
    "pollaczek": (FAMILIES["pollaczek"], 60),
    "legendre": (FAMILIES["legendre"], 60),
    "chebyshev_t": ('{"kind": "ChebyshevT"}', 60),
    "nonpositive_table": ('{"kind": "Table", "alpha": [0, "3/5", "1/2", "1/2", "1/2", "1/2"], '
                          '"gamma": [2, 1, 1, 1, 1, 1]}', 4),
    "example3_third": (FAMILIES["example3_third"], 1000),
    "example4": ('{"kind": "Example4", "params": {"a": 2, "b": "1/2"}}', 60),
    "gegenbauer": ('{"kind": "Gegenbauer", "params": {"lambda": 3}}', 60),
}


def _criteria(command, kind, fmt, *extra):
    spec, N = CRITERIA_FAMILIES[kind]
    return lambda: _cli(command, "--family", spec, "--N", str(N), "--format", fmt, *extra)


# The benchmark-size runs, kept as digests: N = 3000 reaches the digit-cap
# fallback of Example3(2) (at g_1329) and Pollaczek(3/2, 1) (at g_1631), and
# the 4000-digit exact values before it, which the N = 60 cases do not.
BENCHMARK_SIZE_RUNS = {
    **{f"{command} {kind} {fmt}": [command, "--family", spec, "--N", "3000", "--format", fmt]
       for command in ("check", "lambda", "ratios")
       for kind, spec in (("Example3(2)", '{"kind": "Example3", "params": {"a": 2}}'),
                          ("Pollaczek(3/2,1)",
                           '{"kind": "Pollaczek", "params": {"lambda": "3/2", "a": 1}}'),
                          ("Legendre", FAMILIES["legendre"]))
       for fmt in ("json", "csv")},
    **{f"check-float Example4(3,1/2) {fmt}": [
        "check", "--family", '{"kind": "Example4", "params": {"a": 3, "b": "1/2"}}',
        "--N", "3000", "--mode", "float", "--format", fmt] for fmt in ("json", "csv")},
    # the scans of the sweeps workload, at its n_max = 5000
    **{f"scan {kind} {fmt}": ["scan", "--family", spec, "--n-max", "5000", "--format", fmt]
       for kind, spec in (("Example3(2)", '{"kind": "Example3", "params": {"a": 2}}'),
                          ("Legendre", FAMILIES["legendre"]),
                          ("Pollaczek(3/2,1)",
                           '{"kind": "Pollaczek", "params": {"lambda": "3/2", "a": 1}}'))
       for fmt in ("json", "csv")},
    # and its density sweeps, at N = 10^5
    **{f"density {kind} json": ["density", "--family", spec, "--N", "100000"]
       for kind, spec in (("Legendre", FAMILIES["legendre"]),
                          ("Gegenbauer(3/2)",
                           '{"kind": "Gegenbauer", "params": {"lambda": "3/2"}}'),
                          ("Pollaczek(3/2,1)",
                           '{"kind": "Pollaczek", "params": {"lambda": "3/2", "a": 1}}'))},
    # density sweeps at N = 10^5 off the int64 chunks of the linear forms:
    # Gegenbauer(1/10^9), whose products pass 2^53, ChebyshevT, which has no
    # integer form, and the float view of Legendre
    **{f"density {kind} json": ["density", "--family", spec, "--N", "100000", *extra]
       for kind, spec, extra in (
           ("Gegenbauer(1/10^9)",
            '{"kind": "Gegenbauer", "params": {"lambda": "1/1000000000"}}', ()),
           ("ChebyshevT", '{"kind": "ChebyshevT"}', ()),
           ("Legendre float", FAMILIES["legendre"], ("--mode", "float")))},
}


def _benchmark_size_digests():
    """One line per run: the SHA-256 of its stdout, its exit code, its name."""
    lines = []
    for name, argv in BENCHMARK_SIZE_RUNS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([*argv, "--reproducible"])
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        lines.append(f"{digest}  exit {code}  {name}\n")
    return "".join(lines)


def _help():
    """The --help text of turandet and of each subcommand, at 80 columns."""
    buf = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(buf):
        for command in ((), ("families",), ("check",), ("scan",), ("ratios",), ("lambda",),
                        ("density",)):
            print("$", " ".join(("turandet", *command, "--help")))
            with pytest.raises(SystemExit):
                main([*command, "--help"])
    return buf.getvalue()


def _scan(kind, fmt, n_max=300):
    return lambda: _cli("scan", "--family", FAMILIES[kind], "--n-max", str(n_max), "--format", fmt)


def _scaled_scan(sigma):
    rep = scaled_scan(legendre(), sigma, 300)
    lines = [",".join(str(v) for v in row) for row in rep.csv_rows()]
    return json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n" + "\n".join(lines) + "\n"


def _text(v):
    if isinstance(v, F):
        return format_number(v)
    return repr(v) if isinstance(v, float) else str(v)  # a Decimal, exactly


def _eval_polys():
    with mock.patch.object(recurrence, "DEFAULT_DIGIT_CAP", 25):
        fallback = eval_polys(example3(1), 60, F(2, 7))
    modes = {
        "fraction": eval_polys(example3(1), 40, F(1, 3)),
        "float": eval_polys(pollaczek(2, 1), 200, 0.37),
        "dps40": eval_polys(legendre(), 60, F(1, 3), dps=40),
        "digit_cap_fallback": fallback,
    }
    return json.dumps({k: [_text(v) for v in p] for k, p in modes.items()}, indent=1) + "\n"


def _demo(path):
    def render():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            runpy.run_path(str(path), run_name="__main__")
        return buf.getvalue()
    return render


CASES = {
    # ratios of the table stops at g_1 <= 0 with exit code 2 and no output
    **{f"{command}_{kind}.{fmt}": _criteria(command, kind, fmt)
       for command in ("check", "lambda", "ratios") for kind in CRITERIA_FAMILIES
       for fmt in ("json", "csv") if (command, kind) != ("ratios", "nonpositive_table")},
    **{f"check_example3_float.{fmt}": _criteria("check", "example3", fmt, "--mode", "float")
       for fmt in ("json", "csv")},
    **{f"scan_{kind}.{fmt}": _scan(kind, fmt)
       for kind in ("legendre", "example3", "pollaczek") for fmt in ("json", "csv")},
    # the normalized coefficients past the digit-cap fallback at g_989 reach
    # the scan and its confirmation as Decimals
    **{f"scan_example3_third.{fmt}": _scan("example3_third", fmt, 1200)
       for fmt in ("json", "csv")},
    "scaled_scan_legendre_2n+1.txt": lambda: _scaled_scan(lambda n: 2 * n + 1),
    # every degree is a confirmed negative: -4/((2n+1)^2(2n-1)(2n+3)) at x = -1
    "scaled_scan_legendre_1_over_2n+1.txt": lambda: _scaled_scan(lambda n: F(1, 2 * n + 1)),
    "density_gegenbauer.json": lambda: _cli(
        "density", "--family", '{"kind": "Gegenbauer", "params": {"lambda": "3/2"}}',
        "--N", "2000"),
    "density_pollaczek.json": lambda: _cli(
        "density", "--family", FAMILIES["pollaczek"], "--N", "2000"),
    # the per-index paths of orthonormal_offdiag: the doubles of a float
    # view, and ChebyshevT, which has no closed integer form
    "density_gegenbauer_float.json": lambda: _cli(
        "density", "--family", '{"kind": "Gegenbauer", "params": {"lambda": "3/2"}}',
        "--N", "2000", "--mode", "float"),
    "density_chebyshev_t.json": lambda: _cli(
        "density", "--family", '{"kind": "ChebyshevT"}', "--N", "2000"),
    "families.json": lambda: _cli("families"),
    "families.csv": lambda: _cli("families", "--format", "csv"),
    "eval_polys.json": _eval_polys,
    "help.txt": _help,
    "benchmark_size.sha256": _benchmark_size_digests,
    **{f"demo_{path.stem}.txt": _demo(path) for path in sorted(DEMOS.glob("*.py"))},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / name).write_text(CASES[name](), encoding="utf-8")
