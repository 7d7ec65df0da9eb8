import collections
import csv
import io
import json

import pytest

from turandet import build, cli
from turandet.cli import RunConfig, main, run

EX3 = '{"kind": "Example3", "params": {"a": 1}}'


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_check_example3_exits_zero(capsys):
    code = main(["check", "--family", EX3, "--N", "100", "--reproducible"])
    assert code == 0
    payload = _json_out(capsys)
    assert payload["command"] == "check"
    assert "Theorem1" in payload["certified"]
    by_name = {r["criterion"]: r for r in payload["criteria"]}
    assert by_name["Theorem1"]["overall"] == "Satisfied"
    assert by_name["LambdaRoute"]["overall"] == "Satisfied"
    assert "timestamp" not in payload


def test_check_chebyshev_t_exits_one_but_scan_exits_zero(capsys):
    assert main(["check", "--family", "ChebyshevT", "--N", "50",
                 "--reproducible"]) == 1
    capsys.readouterr()
    assert main(["scan", "--family", "ChebyshevT", "--n-max", "20",
                 "--reproducible"]) == 0
    payload = _json_out(capsys)
    assert payload["all_nonnegative"] is True
    assert payload["grid"]["points"] == 4002


def test_alpha0_convention_violation_exits_two(capsys):
    code = main(["check", "--family",
                 '{"kind": "Table", "alpha": [0.1, 0.3], "gamma": [0.9, 0.6]}',
                 "--N", "2"])
    assert code == 2
    assert "alpha_0 must be 0" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ['"Infinity"', '"-Infinity"', '"NaN"', "Infinity"])
def test_non_finite_table_value_exits_two(capsys, bad):
    spec = f'{{"kind": "Table", "alpha": [0, {bad}, 0.3, 0.4], "gamma": [1, 0.6, 0.5, 0.5]}}'
    assert main(["check", "--family", spec, "--N", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_malformed_spec_exits_two(capsys):
    assert main(["check", "--family", "{not json", "--N", "10"]) == 2
    assert main(["check", "--family", "/nonexistent/path.json", "--N", "10"]) == 2
    assert main(["check", "--family", '{"kind": "Unknown"}', "--N", "10"]) == 2
    capsys.readouterr()


def test_reproducible_outputs_are_identical(capsys):
    main(["scan", "--family", "Legendre", "--n-max", "10", "--reproducible"])
    first = capsys.readouterr().out
    main(["scan", "--family", "Legendre", "--n-max", "10", "--reproducible"])
    assert capsys.readouterr().out == first


def test_timestamp_present_by_default(capsys):
    main(["families"])
    assert "timestamp" in _json_out(capsys)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["check", "--family", EX3, "--N", "20", "--reproducible",
                 "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["N"] == 20


def test_families_listing(capsys):
    assert main(["families", "--reproducible"]) == 0
    payload = _json_out(capsys)
    assert len(payload["kinds"]) == 9
    assert payload["kinds"][0]["kind"] == "ChebyshevT"


def test_scan_csv_parses(capsys):
    main(["scan", "--family", "ChebyshevU", "--n-max", "5", "--grid", "25",
          "--format", "csv", "--reproducible"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["n", "x_min", "delta_min", "nonnegative"]
    assert len(rows) == 6
    assert all(float(r[2]) >= -1e-12 for r in rows[1:])


def test_lambda_csv_matches_closed_form(capsys):
    main(["lambda", "--family", EX3, "--N", "4", "--format", "csv",
          "--reproducible"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["n", "u", "v", "lambda", "y", "valid"]
    lams = [r[3] for r in rows[1:]]
    assert lams == ["1/3", "1/2", "3/5", "2/3", "5/7"]


def test_ratios_violation_exits_one(capsys):
    code = main(["ratios", "--family",
                 '{"kind": "Table", "alpha": [0, "1/2"], "gamma": [1, "1/4"]}',
                 "--N", "1", "--reproducible"])
    assert code == 1
    payload = _json_out(capsys)
    assert payload["all_bounds_hold"] is False
    assert payload["rows"][0]["upper_ok"] is False


def test_ratios_exact_values(capsys):
    main(["ratios", "--family", EX3, "--N", "3", "--reproducible"])
    payload = _json_out(capsys)
    assert payload["rows"][0]["g"] == "4/3"
    assert payload["rows"][0]["upper"] == "9/4"


def test_rational_mode_requires_exact_family(capsys):
    code = main(["check", "--family",
                 '{"kind": "Table", "alpha": [0, 0.25, 0.3, 0.35], '
                 '"gamma": [0.8, 0.7, 0.6, 0.5]}',
                 "--N", "2", "--mode", "rational"])
    assert code == 2
    assert "rational mode" in capsys.readouterr().err


def test_float_mode_coerces(capsys):
    # Example-4 has slack in every inequality, so float mode stays Satisfied
    code = main(["check", "--family",
                 '{"kind": "Example4", "params": {"a": 1, "b": 1}}',
                 "--N", "20", "--mode", "float", "--reproducible"])
    assert code == 0
    payload = _json_out(capsys)
    step = [c for r in payload["criteria"] if r["criterion"] == "Theorem1"
            for c in r["conditions"] if c["label"] == "step-inequality"][0]
    assert "/" not in str(step["witness"][0])  # floats, not rationals


def test_float_mode_scan_stays_nonnegative(capsys):
    assert main(["scan", "--family", "Legendre", "--n-max", "300", "--mode", "float",
                 "--reproducible"]) == 0
    assert _json_out(capsys)["all_nonnegative"] is True


def test_float_mode_boundary_tight_y_route_flips(capsys):
    """Example-3's y-increments equal 1 exactly; the y-transform amplifies
    coefficient rounding past the margin, so float mode may honestly report
    the y-route Violated while the division-free lambda-route stays green."""
    code = main(["check", "--family", EX3, "--N", "20", "--mode", "float",
                 "--reproducible"])
    payload = _json_out(capsys)
    by_name = {r["criterion"]: r for r in payload["criteria"]}
    assert by_name["Theorem1"]["overall"] == "Satisfied"
    assert by_name["LambdaRoute"]["overall"] == "Satisfied"
    assert code == (1 if by_name["YRoute"]["overall"] == "Violated" else 0)


def test_density_cli(capsys):
    code = main(["density", "--family", "ChebyshevU", "--N", "60", "--grid", "7",
                 "--format", "csv", "--reproducible"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["x", "f_N", "density", "last_change", "valid"]
    assert len(rows) == 8
    assert all(r[4] == "True" for r in rows[1:])


def test_density_rejects_rational_mode(capsys):
    assert main(["density", "--family", "Legendre", "--mode", "rational"]) == 2
    capsys.readouterr()


def test_lambda_y_route_error_degrades_to_note(capsys):
    # U has lambda = 1 everywhere: y-route inapplicable, reported not raised
    code = main(["lambda", "--family", "ChebyshevU", "--N", "5",
                 "--reproducible"])
    assert code == 0
    payload = _json_out(capsys)
    y = [r for r in payload["criteria"] if r["criterion"] == "YRoute"][0]
    assert y["overall"] == "Inconclusive"
    assert "outside (0, 1)" in y["notes"]["error"]


def test_pollaczek_unchecked_note_surfaces(capsys):
    main(["check", "--family",
          '{"kind": "Pollaczek", "params": {"lambda": 1, "a": 2}}',
          "--N", "30", "--reproducible"])
    payload = _json_out(capsys)
    assert "unchecked" in payload.get("notes", {})


def test_run_config_direct():
    cfg = RunConfig(command="scan", family_spec="ChebyshevT", N=5,
                    grid_points=25, format="json", reproducible=True)
    assert run(cfg) == 0
    assert run(RunConfig(command="bogus")) == 2


def test_certified_agrees_with_the_reports_under_tol(capsys):
    """certified is derived from the listed reports, judged with the same --tol."""
    code = main(["check", "--family", "Legendre", "--N", "600", "--mode", "float",
                 "--tol", "1e-3", "--reproducible"])
    payload = _json_out(capsys)
    overall = {r["criterion"]: r["overall"] for r in payload["criteria"]}
    assert overall["Theorem1"] == "Violated"
    assert all(overall[name] == "Satisfied" for name in payload["certified"])
    assert code == (1 if "Violated" in overall.values() else 0)


@pytest.mark.parametrize("command, flag, largest", [
    ("check", "--N", 3), ("lambda", "--N", 3), ("ratios", "--N", 4), ("scan", "--n-max", 4),
])
def test_table_too_short_names_the_largest_valid_n(capsys, command, flag, largest):
    spec = ('{"kind": "Table", "alpha": [0, "1/8", "1/4", "5/16", "3/8"], '
            '"gamma": [1, "3/4", "5/8", "9/16", "17/32"]}')
    assert main([command, "--family", spec, flag, str(largest), "--reproducible"]) in (0, 1)
    capsys.readouterr()
    assert main([command, "--family", spec, flag, str(largest + 1)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: the coefficient table has 5 entries; "
                   f"the largest valid {flag} for {command} is {largest}\n")


def test_table_too_short_for_any_check(capsys):
    spec = '{"kind": "Table", "alpha": [0, "1/4", "1/4"], "gamma": ["3/4", "1/2", "1/2"]}'
    assert main(["check", "--family", spec, "--N", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: the coefficient table has 3 entries; check needs at least 4\n")


@pytest.mark.parametrize("command", ["check", "lambda", "ratios", "scan", "density"])
def test_each_coefficient_is_read_once(monkeypatch, capsys, command):
    """Every command reads each coefficient index at most once, and exactly the
    indices 0..N+reach of its table reach (density reads alpha_1.. and gamma_..N)."""
    reads = collections.Counter()

    def counted(kind, fn):
        def at(n):
            reads[kind, n] += 1
            return fn(n)
        return at

    def build_counted(spec):
        family = build(spec)
        object.__setattr__(family, "alpha", counted("alpha", family.alpha))
        object.__setattr__(family, "gamma", counted("gamma", family.gamma))
        return family

    monkeypatch.setattr(cli, "build", build_counted)
    spec = '{"kind": "Pollaczek", "params": {"lambda": 2, "a": 1}}'
    flag = "--n-max" if command == "scan" else "--N"
    main([command, "--family", spec, flag, "50", "--reproducible"])
    capsys.readouterr()
    hi = 50 + cli._TABLE_REACH[command][0]
    expected = {(kind, n) for kind in ("alpha", "gamma") for n in range(hi + 1)}
    if command == "density":
        expected -= {("alpha", 0), ("gamma", hi)}
    assert set(reads) == expected
    assert max(reads.values()) == 1
