"""Golden outputs: check, lambda, ratios, scans, a scaled scan, density and
eval_polys, byte for byte.

Each case renders one output as text and compares it with the file of the
same name under tests/golden. Refresh the files only for an intended change
of output:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from turandet import eval_polys, example3, legendre, pollaczek, scaled_scan
from turandet.arith import format_number
from turandet.cli import main

GOLDEN = Path(__file__).parent / "golden"

FAMILIES = {
    "legendre": '{"kind": "Legendre"}',
    "example3": '{"kind": "Example3", "params": {"a": 1}}',
    "pollaczek": '{"kind": "Pollaczek", "params": {"lambda": 2, "a": 1}}',
}


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main([*argv, "--reproducible"])
    return buf.getvalue()


# (spec, N) of the check/lambda/ratios cases: Pollaczek(2, 1) carries a
# Corollary1 shape, Legendre's YRoute is an InvalidLambda error report,
# ChebyshevT is Violated, the table's g_1 = -1/5 makes SzwTheorem1 an error
# report, and Example3(1/3) passes its digit-cap fallback at N = 990.
CRITERIA_FAMILIES = {
    "example3": (FAMILIES["example3"], 60),
    "pollaczek": (FAMILIES["pollaczek"], 60),
    "legendre": (FAMILIES["legendre"], 60),
    "chebyshev_t": ('{"kind": "ChebyshevT"}', 60),
    "nonpositive_table": ('{"kind": "Table", "alpha": [0, "3/5", "1/2", "1/2", "1/2", "1/2"], '
                          '"gamma": [2, 1, 1, 1, 1, 1]}', 4),
    "example3_third": ('{"kind": "Example3", "params": {"a": "1/3"}}', 1000),
}


def _criteria(command, kind, fmt, *extra):
    spec, N = CRITERIA_FAMILIES[kind]
    return lambda: _cli(command, "--family", spec, "--N", str(N), "--format", fmt, *extra)


def _scan(kind, fmt):
    return lambda: _cli("scan", "--family", FAMILIES[kind], "--n-max", "300", "--format", fmt)


def _scaled_scan():
    rep = scaled_scan(legendre(), lambda n: 2 * n + 1, 300)
    lines = [",".join(str(v) for v in row) for row in rep.csv_rows()]
    return json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n" + "\n".join(lines) + "\n"


def _text(v):
    if isinstance(v, F):
        return format_number(v)
    if isinstance(v, float):
        return repr(v)
    man, exp = v.man_exp  # an mpf, exactly
    return f"{man}*2^{exp}"


def _eval_polys():
    modes = {
        "fraction": eval_polys(example3(1), 40, F(1, 3)),
        "float": eval_polys(pollaczek(2, 1), 200, 0.37),
        "dps40": eval_polys(legendre(), 60, F(1, 3), dps=40),
        "digit_cap_fallback": eval_polys(example3(1), 60, F(2, 7), digit_cap=25),
    }
    return json.dumps({k: [_text(v) for v in p] for k, p in modes.items()}, indent=1) + "\n"


CASES = {
    # ratios of the table stops at g_1 <= 0 with exit code 2 and no output
    **{f"{command}_{kind}.{fmt}": _criteria(command, kind, fmt)
       for command in ("check", "lambda", "ratios") for kind in CRITERIA_FAMILIES
       for fmt in ("json", "csv") if (command, kind) != ("ratios", "nonpositive_table")},
    **{f"check_example3_float.{fmt}": _criteria("check", "example3", fmt, "--mode", "float")
       for fmt in ("json", "csv")},
    **{f"scan_{kind}.{fmt}": _scan(kind, fmt)
       for kind in FAMILIES for fmt in ("json", "csv")},
    "scaled_scan_legendre_2n+1.txt": _scaled_scan,
    "density_gegenbauer.json": lambda: _cli(
        "density", "--family", '{"kind": "Gegenbauer", "params": {"lambda": "3/2"}}',
        "--N", "2000"),
    "density_pollaczek.json": lambda: _cli(
        "density", "--family", FAMILIES["pollaczek"], "--N", "2000"),
    "eval_polys.json": _eval_polys,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, render in CASES.items():
        (GOLDEN / name).write_text(render(), encoding="utf-8")
