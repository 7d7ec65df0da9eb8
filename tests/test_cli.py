import collections
import contextlib
import csv
import functools
import io
import json
import sys
from fractions import Fraction

import pytest

import fraction_reference as ref
from turandet import (
    FamilySpec,
    InvalidLambda,
    NonpositiveRatio,
    ParamError,
    StructuralMismatch,
    Verdict,
    build,
    cli,
    criterion_reports,
    example3,
    example4,
    families,
)
from turandet.arith import format_number, number_text, to_fraction
from turandet.cli import main

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
    assert main(["check", "--family", "/nonexistent/path.json", "--N", "10"]) == 2
    assert main(["check", "--family", '{"kind": "Unknown"}', "--N", "10"]) == 2
    capsys.readouterr()
    for spec, message in (
            ("{not json", "inline family spec is not valid JSON: Expecting property name "
                          "enclosed in double quotes: line 1 column 2 (char 1)"),
            ('{"kind": "Legendre", "params": 5}', "family spec 'params' must be an object (got 5)"),
            ('{"kind": "Legendre", "params": [1]}',
             "family spec 'params' must be an object (got [1])"),
            ('{"kind": "Table", "alpha": 5, "gamma": [1]}',
             "Table spec needs 'alpha' and 'gamma' lists")):
        assert main(["check", "--family", spec, "--N", "10"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
    # the witness is the exact rational compared at n = 1: the step ratios
    # of the exact values of the doubles
    fam = example4(1, 1)
    al = [Fraction(float(fam.alpha(n))) for n in range(3)]
    ga = [Fraction(float(fam.gamma(n))) for n in range(3)]
    lhs = (al[1] - al[0]) / (al[1] * ga[0] - al[0] * ga[1])
    rhs = (al[2] * ga[1] - al[1] * ga[2]) / (ga[1] - ga[2])
    assert step["witness"] == [format_number(lhs), format_number(rhs)]


def test_float_mode_corollary_off_its_shape_is_inconclusive(capsys):
    """The doubles of Pollaczek(2, 1) miss its Corollary1 shape by an ulp:
    the corollary report says so instead of failing the command."""
    code = main(["check", "--family", '{"kind": "Pollaczek", "params": {"lambda": 2, "a": 1}}',
                 "--N", "30", "--mode", "float", "--reproducible"])
    payload = _json_out(capsys)
    by_name = {r["criterion"]: r for r in payload["criteria"]}
    cor = by_name["Corollary1"]
    assert cor["overall"] == "Inconclusive"
    assert cor["conditions"] == []
    assert "does not match the declared shape" in cor["notes"]["error"]
    assert "Corollary1" not in payload["certified"]
    assert by_name["LambdaRoute"]["overall"] == "Violated"  # on the doubles
    assert code == 1


@pytest.mark.parametrize("command", ["check", "ratios", "lambda"])
def test_criterion_commands_take_no_tol(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "Legendre", "--N", "10", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_float_mode_scan_stays_nonnegative(capsys):
    assert main(["scan", "--family", "Legendre", "--n-max", "300", "--mode", "float",
                 "--reproducible"]) == 0
    assert _json_out(capsys)["all_nonnegative"] is True


def test_float_mode_boundary_tight_y_route_flips(capsys):
    """Example-3's step ratios sit exactly on the admissible boundary; the
    doubles of its coefficients cross it at n = 2, so both routes are
    Violated on them, while the step inequality keeps its slack."""
    code = main(["check", "--family", EX3, "--N", "20", "--mode", "float",
                 "--reproducible"])
    payload = _json_out(capsys)
    by_name = {r["criterion"]: r for r in payload["criteria"]}
    assert by_name["Theorem1"]["overall"] == "Satisfied"
    assert by_name["LambdaRoute"]["overall"] == "Violated"
    pair = [c for c in by_name["LambdaRoute"]["conditions"]
            if c["label"] == "pair-inequality"][0]
    assert pair["first_violation"] == 2
    assert by_name["YRoute"]["overall"] == "Violated"
    assert code == 1


def test_density_cli(capsys):
    code = main(["density", "--family", "ChebyshevU", "--N", "60", "--grid", "7",
                 "--format", "csv", "--reproducible"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["x", "f_N", "density", "last_change", "valid"]
    assert len(rows) == 8
    assert all(r[4] == "True" for r in rows[1:])


@pytest.mark.parametrize("argv, message", [
    (["scan", "--grid", "0"], "grid needs at least 3 points"),
    (["density", "--N", "0"], "the smallest valid --N for density is 10"),
])
def test_zero_grid_and_zero_n_exit_two(capsys, argv, message):
    """An explicit 0 is passed on as given, not replaced by the default."""
    assert main([*argv, "--family", "Legendre"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, least", [
    (["check", "--N", "1"], 2),
    (["ratios", "--N", "0"], 1),
    (["scan", "--n-max", "0"], 1),
    (["density", "--N", "5"], 10),
    (["lambda", "--N", "0"], 1),
])
def test_an_n_below_the_least_names_the_flag(capsys, argv, least):
    """An N below a command's least is refused before the family is read,
    with the flag to change and its smallest valid value."""
    assert main([*argv, "--family", "no-such-spec.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the smallest valid {argv[1]} for {argv[0]} is {least}\n"


@pytest.mark.parametrize("argv", [["scan", "--n-max", "20", "--mode", "float"],
                                  ["density", "--N", "100"]])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, argv, tol):
    assert main([*argv, "--family", "Legendre", f"--tol={tol}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite and >= 0" in err


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
    assert "SzwTheorem1" in payload["notes"]["unchecked"]


def test_certified_agrees_with_the_reports(capsys):
    """certified is derived from the listed reports."""
    code = main(["check", "--family", "Legendre", "--N", "600", "--mode", "float",
                 "--reproducible"])
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
    _, reach, _ = cli._parser().parse_args([command, "--family", spec]).reach
    hi = 50 + reach
    expected = {(kind, n) for kind in ("alpha", "gamma") for n in range(hi + 1)}
    if command == "density":
        expected -= {("alpha", 0), ("gamma", hi)}
    assert set(reads) == expected
    assert max(reads.values()) == 1


def test_family_spec_read_from_a_file(tmp_path, capsys):
    """--family takes the path of a JSON spec file, as in the README."""
    path = tmp_path / "spec.json"
    path.write_text('{"kind": "Example3", "params": {"a": "1/2"}}', encoding="utf-8")
    assert main(["check", "--family", str(path), "--N", "20", "--reproducible"]) == 0
    from_file = capsys.readouterr().out
    assert json.loads(from_file)["family"] == {"name": "Example3", "params": {"a": "1/2"}}
    main(["check", "--family", path.read_text(encoding="utf-8"), "--N", "20", "--reproducible"])
    assert capsys.readouterr().out == from_file


def test_unreadable_family_spec_file_names_the_path(tmp_path, capsys):
    """A spec file that is not JSON, or a directory, exits 2 with a message
    that names the path and says it was read as a family spec."""
    bad = tmp_path / "spec.json"
    bad.write_text('{"kind": "Example3"\n "params": {"a": 1}}', encoding="utf-8")
    assert main(["check", "--family", str(bad), "--N", "10"]) == 2
    assert capsys.readouterr().err == (
        f"error: family spec file {str(bad)!r} is not valid JSON: "
        "Expecting ',' delimiter: line 2 column 2 (char 21)\n")
    assert main(["check", "--family", str(tmp_path), "--N", "10"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read family spec file {str(tmp_path)!r}: Is a directory\n")


@pytest.mark.parametrize("value, want", [("0.5", Fraction(1, 2)), ("[1, 3]", Fraction(1, 3))])
def test_float_and_pair_params_build_exact_families(value, want):
    family = build(FamilySpec.from_json(json.loads(
        f'{{"kind": "Example3", "params": {{"a": {value}}}}}')))
    assert family.params == {"a": want}
    closed = example3(want)
    for n in range(6):
        assert (family.alpha(n), family.gamma(n)) == (closed.alpha(n), closed.gamma(n))
        assert type(family.alpha(n)) is Fraction and type(family.gamma(n)) is Fraction


@pytest.mark.parametrize("value, message", [
    ("[1, 0]", "rational pair must be two ints with nonzero denominator: [1, 0]"),
    ("[1.5, 2]", "rational pair must be two ints with nonzero denominator: [1.5, 2]"),
    ("[1, 2, 3]", "cannot interpret [1, 2, 3] as a rational number"),
    ("true", "cannot interpret True as a number"),
])
def test_bad_numeric_params_exit_two(capsys, value, message):
    spec = f'{{"kind": "Example3", "params": {{"a": {value}}}}}'
    assert main(["check", "--family", spec, "--N", "10"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_example2_list_and_table_sequence_specs(capsys):
    """eps as a plain list and delta as a "table" spec: finite tables that
    bound the --N a command accepts."""
    spec = json.dumps({"kind": "Example2", "params": {
        "eps": ["1/6", "1/12", "1/24", "1/48"],
        "delta": {"kind": "table", "values": [0, "1/2", "1/4", "1/8"]}}})
    family = build(FamilySpec.from_json(json.loads(spec)))
    assert [family.alpha(n) for n in range(4)] == [0, Fraction(1, 8), Fraction(11, 32),
                                                   Fraction(55, 128)]
    assert [family.gamma(n) for n in range(4)] == [Fraction(2, 3), Fraction(7, 12),
                                                   Fraction(13, 24), Fraction(25, 48)]
    assert main(["lambda", "--family", spec, "--N", "2", "--reproducible"]) in (0, 1)
    capsys.readouterr()
    assert main(["lambda", "--family", spec, "--N", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: the coefficient table has 4 entries; the largest valid --N for lambda is 2\n")


@pytest.mark.parametrize("eps, message", [
    ('{"kind": "cubic"}', "eps: unknown sequence kind 'cubic'"),
    ("3", "eps: sequence spec must be a list or an object with 'kind'"),
    ('{"kind": "harmonic", "scale": 0}', "eps: harmonic needs scale > 0 and shift >= 0"),
    ('{"kind": "harmonic", "shift": -1}', "eps: harmonic needs scale > 0 and shift >= 0"),
    ('{"kind": "harmonic"}', "eps: harmonic term undefined at n = 0 with shift 0"),
])
def test_bad_example2_sequence_specs_exit_two(capsys, eps, message):
    spec = f'{{"kind": "Example2", "params": {{"eps": {eps}, "delta": [0, 1, 1]}}}}'
    assert main(["check", "--family", spec, "--N", "10"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_routes_run_through_the_public_checkers(monkeypatch, capsys):
    """check, lambda and classify decide both routes through the
    check_lambda_route and check_y_route that families binds: one entry point
    per route criterion."""
    calls = collections.Counter()
    for name in ("check_lambda_route", "check_y_route"):
        def counted(family, N, _name=name, _check=getattr(families, name)):
            calls[_name] += 1
            return _check(family, N)
        monkeypatch.setattr(families, name, counted)
    for command in ("check", "lambda"):
        assert main([command, "--family", EX3, "--N", "10", "--reproducible"]) == 0
    capsys.readouterr()
    assert families.classify(example3(1), 10) == ["Theorem1", "SzwTheorem1", "LambdaRoute",
                                                  "YRoute"]
    assert calls == {"check_lambda_route": 3, "check_y_route": 3}


@contextlib.contextmanager
def _int_str_limit(limit: int):
    """The interpreter's limit on the digits of an int-to-str conversion set
    to ``limit`` (0: none) while the block runs. Python before 3.10.7 has
    no such limit, and the block then runs as it is."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(limit)
    try:
        yield
    finally:
        set_limit(old)


def test_number_text_has_no_digit_limit():
    """What str writes with no int-to-str digit limit, under the default
    one: ints, Fractions (an int-valued one as its int) and what else str
    writes."""
    values = (0, -7, 10**4299, 10**4300, Fraction(-(3**20000), 2**20001),
              Fraction(-(10**5000)), Fraction(1, 3), 0.5)
    with _int_str_limit(0):
        want = list(map(str, values))
        fraction = f"{values[4].numerator}/{values[4].denominator}"
    with _int_str_limit(4300):
        assert list(map(number_text, values)) == want
        assert format_number(values[4]) == fraction


def test_ratio_strings_parse_past_the_int_str_limit():
    """A "p/q" string whose ints have 4401 digits reads as the exact p/q
    under the default limit; a string that is not a rational is still
    refused with the parse message."""
    p, q = -(10**4400 + 7), 3 * 10**4400 + 1
    with _int_str_limit(0):
        text = f"{p}/{q}"
    with _int_str_limit(4300):
        assert to_fraction(text) == Fraction(p, q)
        assert to_fraction(text[1:]) == Fraction(-p, q)
        for bad in ("1.5/2", "3/-4", "3/0", "1/2/3", f"{text}x"):
            with pytest.raises(ParamError, match="cannot parse .* as a finite rational"):
                to_fraction(bad)


@functools.lru_cache(maxsize=None)
def _example3_table_text(edit: str):
    """Example3(2)'s coefficients 0..3001 with alpha_2500 multiplied by
    999/1000 (edit "dip") or set to 3 ("three"), as a Table spec, and the
    texts the check must print for SzwTheorem1: the witness of the first
    violation of "dip" and the note of "three", formed with no int-to-str
    digit limit."""
    family = example3(2)
    al = [Fraction(family.alpha(n)) for n in range(3002)]
    ga = [Fraction(family.gamma(n)) for n in range(3002)]
    al[2500] = al[2500] * Fraction(999, 1000) if edit == "dip" else Fraction(3)
    spec = json.dumps({"kind": "Table", "alpha": list(map(str, al)), "gamma": list(map(str, ga))})
    table = ref.exact_table(build(FamilySpec.from_json(json.loads(spec))), 3001)
    with _int_str_limit(0):
        try:
            _, at = ref.normalized_ratios(table, 3000)
        except NonpositiveRatio as exc:
            return spec, f"g_{exc.n} is not positive (value {exc.value})"
        return spec, [f"{v.numerator}/{v.denominator}" for v in at[2499:2501]]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("edit", ["dip", "three"])
def test_check_writes_exact_values_past_the_int_str_limit(tmp_path, capsys, edit, fmt):
    """An exact witness or note of SzwTheorem1 past 4300 digits is written
    whole under the interpreter's default limit, which the CLI leaves as it
    is. With alpha_2500*999/1000 the exact alpha_tilde_2500 drops below
    alpha_tilde_2499, whose witness has 16,803 characters; with alpha_2500 =
    3 the exact g_2500 < 0 and SzwTheorem1 is Inconclusive with its note.
    Theorem1 is Violated at n = 2500 in both, so the check exits 1."""
    spec, want = _example3_table_text(edit)
    path = tmp_path / "table.json"
    path.write_text(spec, encoding="utf-8")
    with _int_str_limit(4300):
        code = main(["check", "--family", str(path), "--N", "3000", "--reproducible",
                     "--format", fmt])
        assert getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 4300
    out = capsys.readouterr().out
    assert code == 1
    if fmt == "csv":
        rows = [r for r in csv.reader(io.StringIO(out)) if r[0] == "SzwTheorem1"]
        if edit == "dip":
            assert rows[0][1:] == ["Violated", "alpha-tilde-nondecreasing", "False", "2500", *want]
        else:
            assert rows == [["SzwTheorem1", "Inconclusive", "", "", "", "", ""]]
        return
    szw = next(r for r in json.loads(out)["criteria"] if r["criterion"] == "SzwTheorem1")
    if edit == "dip":
        mono = szw["conditions"][0]
        assert (szw["overall"], mono["first_violation"]) == ("Violated", 2500)
        assert mono["witness"] == want
        assert len(want[0]) == 16803
    else:
        assert (szw["overall"], szw["notes"]) == ("Inconclusive", {"error": want})


def _big_table_values():
    """alpha_i = (q_i//2 - 7i)/q_i over three coprime 4401-digit odd q_i,
    gamma_i = 1 - alpha_i and gamma_0 = 1/2: lambda_0 = (-15/2)/(q_1//2 - 7)
    lies outside (0, 1) and has ints past 4300 digits, as have the step
    data of every lambda row."""
    qs = [10**4400 + 1, 10**4400 + 3, 10**4400 + 7]
    al = [Fraction(0)] + [Fraction(q // 2 - 7 * i, q) for i, q in enumerate(qs, 1)]
    return al, [Fraction(1, 2)] + [1 - a for a in al[1:]]


def test_errors_write_exact_values_past_the_int_str_limit():
    """InvalidLambda, StructuralMismatch and table_family's messages carry
    the exact value's text, as str writes it with no int-to-str digit limit."""
    big = Fraction(-1, 10**4400 + 1)
    with _int_str_limit(0):
        text = str(big)
    with _int_str_limit(4300):
        assert str(InvalidLambda(0, big)) == f"lambda_0 = {text} outside (0, 1)"
        assert str(StructuralMismatch(3, "alpha", big, -big)) == (
            f"alpha_3 does not match the declared shape: expected {text}, got {text[1:]}")
        with pytest.raises(ParamError) as exc:
            families.table_family([0, big], [Fraction(1, 2), Fraction(1, 2)])
        assert str(exc.value) == f"alpha_1 must be positive (got {text})"


def test_big_table_reports_past_the_int_str_limit(tmp_path, capsys):
    """The table's YRoute is Inconclusive with the exact lambda_0 in its
    note, and the ``lambda`` rows are those written with no digit limit;
    as a spec of "p/q" strings past the limit, the table is read whole, and
    check, lambda and ratios exit 0 or 1."""
    al, ga = _big_table_values()
    table = families.table_family(al, ga)
    with _int_str_limit(0):
        lam0 = str(Fraction(ga[0] - ga[1], al[1] - al[0]))
        want_rows = cli._lambda_rows(table, 2)[0]
    with _int_str_limit(4300):
        reports = {r.criterion: r for r in criterion_reports(table, 2)}
        rows = cli._lambda_rows(table, 2)[0]
        spec = json.dumps({"kind": "Table", "alpha": [format_number(v) for v in al],
                           "gamma": [format_number(v) for v in ga]})
        path = tmp_path / "big.json"
        path.write_text(spec, encoding="utf-8")
        codes = [main([command, "--family", str(path), "--N", "2", "--reproducible"])
                 for command in ("check", "lambda", "ratios")]
    y_route = reports["YRoute"]
    assert y_route.overall is Verdict.INCONCLUSIVE
    assert y_route.notes == {"error": f"lambda_0 = {lam0} outside (0, 1)"}
    assert rows == want_rows and rows[0]["lambda"] == lam0
    assert all(code in (0, 1) for code in codes), codes
    capsys.readouterr()
