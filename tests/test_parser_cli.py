import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from itergcd.cli import main
from itergcd.emit import _fmt_cell, _json_text, _round_floats, emit
from itergcd.errors import (
    LIMITS,
    DegenerateInputError,
    ParseError,
    ResourceLimitError,
)
from itergcd.gcdlab import gcd_grid, reference_suite
from itergcd.parser import parse_poly
from itergcd.polys import Poly, _fmt_coeff, render_poly

X = Poly.x()


def test_parse_examples():
    assert parse_poly("x^2-2") == X ** 2 - 2
    assert parse_poly("x") == X
    assert parse_poly("7") == Poly.const(7)
    assert parse_poly("-x") == -X
    assert parse_poly("2*x+1") == 2 * X + 1
    assert parse_poly("x^2/2 - 3/2") == Poly([Fraction(-3, 2), 0, Fraction(1, 2)])
    assert parse_poly("(x+1)^3") == (X + 1) ** 3
    assert parse_poly("-(x+1)") == -(X + 1)
    assert parse_poly(" x ^ 2 - 3 / 2 * x + 1 ") == \
        Poly([1, Fraction(-3, 2), 1])
    assert parse_poly("y^2-y") == X ** 2 - X  # any single letter works


def test_parse_precedence_and_unary():
    assert parse_poly("2*x^3") == 2 * X ** 3        # ^ binds before *
    assert parse_poly("-x^2") == -(X ** 2)          # ^ binds before unary -
    assert parse_poly("2-3*x") == Poly([2, -3])
    assert parse_poly("--x") == X
    assert parse_poly("x^0") == Poly.const(1)


def test_parse_negative_exponent_offset():
    with pytest.raises(ParseError) as ei:
        parse_poly("x^-1")
    assert ei.value.offset == 2
    assert "nonnegative" in str(ei.value)


def test_parse_power_respects_the_caps():
    with pytest.raises(ResourceLimitError):
        parse_poly("x^70000")
    with pytest.raises(ResourceLimitError):
        parse_poly("2^5000000")


def test_parse_power_refuses_exactly_past_the_bit_cap(monkeypatch):
    # 2^198 has 199 numerator bits plus 1 denominator bit, at either end of
    # a nonconstant base too; 3^150 passes the bound taken before powering
    # and is refused once measured, as is the middle of (x+1)^210, whose
    # ends are 1
    monkeypatch.setattr(LIMITS, "max_coeff_bits", 200)
    assert parse_poly("2^198") == Poly.const(2 ** 198)
    assert parse_poly("1^100000") == Poly.const(1)
    assert parse_poly("(x+1)^3") == (X + 1) ** 3
    assert parse_poly("(x+2^66)^3") == (X + 2 ** 66) ** 3
    assert parse_poly("(x/2^99+1)^2") == \
        (X * Poly.const(Fraction(1, 2 ** 99)) + 1) ** 2
    assert parse_poly("(x+1)^200") == (X + 1) ** 200
    for text in ("2^199", "3^150", "(1/2)^199", "(x+2^67)^3",
                 "(x/2^100+1)^2", "(x+3)^126", "(x+1)^210"):
        with pytest.raises(ResourceLimitError):
            parse_poly(text)


def test_parse_power_refuses_a_wide_end_before_powering(monkeypatch):
    # the constant term 2^300 of (x+2^100)^3 and the leading coefficient
    # 1/2^300 of (x/2^150+1)^2 pass the cap; only 2^k itself is built
    monkeypatch.setattr(LIMITS, "max_coeff_bits", 200)
    powered = []
    power = Poly.__pow__

    def spy(base, e):
        powered.append((base, e))
        return power(base, e)

    monkeypatch.setattr(Poly, "__pow__", spy)
    for text, k in (("(x+2^100)^3", 100), ("(x/2^150+1)^2", 150)):
        powered.clear()
        with pytest.raises(ResourceLimitError,
                           match="coefficient size 302 bits exceeds cap 200"):
            parse_poly(text)
        assert powered == [(Poly.const(2), k)]


def test_parse_two_variables_rejected():
    with pytest.raises(ParseError) as ei:
        parse_poly("x + y")
    assert "second variable" in str(ei.value)


def test_parse_division_rules():
    assert parse_poly("x/2") == Poly([0, Fraction(1, 2)])
    with pytest.raises(ParseError):
        parse_poly("1/x")
    with pytest.raises(ParseError):
        parse_poly("x/0")


def test_parse_error_positions():
    with pytest.raises(ParseError) as ei:
        parse_poly("x + ")
    assert "end of input" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse_poly("(x+1")
    assert ")" in ei.value.expected
    with pytest.raises(ParseError):
        parse_poly("x 2")  # trailing junk


@pytest.mark.parametrize("text, caret", [
    ("2 3", True), ("x)", True), ("x^2^3", False), ("(x+1)^2 x", False)])
def test_trailing_junk_expects_caret_only_without_an_exponent(text, caret):
    with pytest.raises(ParseError) as ei:
        parse_poly(text)
    assert ei.value.expected == (
        ("+", "-", "*", "/") + ("^",) * caret + ("end of input",))


def test_render_parse_round_trip_random():
    rng = random.Random(31)
    for _ in range(300):
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                  for _ in range(rng.randint(1, 11))]
        f = Poly(coeffs)
        assert parse_poly(render_poly(f)) == f


def test_emit_json_deterministic_and_sorted():
    rep = {"b": 1.0 / 3.0, "a": Fraction(3, 2), "c": [1, 2]}
    one = emit(rep, "json")
    two = emit(rep, "json")
    assert one == two
    d = json.loads(one)
    assert list(d) == ["a", "b", "c"]
    assert d["a"] == "3/2"
    assert d["b"] == 0.333333333333


def _random_json(rng, depth=0):
    if depth > 3 or rng.random() < 0.4:
        return rng.choice((rng.randint(-10 ** 30, 10 ** 30), rng.random() * 1e10,
                           -0.0, 1e-300, float("nan"), float("inf"),
                           float("-inf"), True, False, None, 0, "",
                           "q\"b\\c\n\u00e9\u2603\U0001F600\x7f"))
    if rng.random() < 0.5:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {rng.choice(("k", "b", "\u00e9", "z\"", "")) + str(rng.randint(0, 9)):
            _random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def test_emit_json_writes_the_bytes_of_indented_json_dumps():
    # the writer lays out the containers itself; json.dumps with an indent
    # is the reference for nesting, empty containers, escapes, non-finite
    # floats, bools, None and keys that are not strings
    rng = random.Random(27)
    cases = [{"v": _random_json(rng)} for _ in range(2000)]
    cases += [{1: 2, 3: [4]}, {1.5: {}, 2.5: []}, {None: 1},
              {True: 0}, {float("nan"): -1}, {}, rep_grid_dict()]
    for d in cases:
        want = json.dumps(_round_floats(d), sort_keys=True, indent=2) + "\n"
        assert _json_text(d) == want, d


def rep_grid_dict():
    return gcd_grid(X ** 2 - 1, X ** 2 + X - 1, X, 4).to_json_dict()


def test_emit_grid_csv_schema():
    rep = gcd_grid(2 * X, X + 1, X ** 2, 2)
    lines = emit(rep, "csv").decode().splitlines()
    assert lines[0] == "m,n,degree,gcd,factors,millis"
    assert len(lines) == 5  # header + 4 cells
    cell12 = [ln for ln in lines if ln.startswith("1,2,")]
    assert len(cell12) == 1
    assert "x-2" in cell12[0]


def test_emit_empty_grid_csv_header_only():
    # f^(1) equals c, so the single cell is degenerate and no rows remain
    rep = gcd_grid(X ** 2, X ** 2 + 1, X ** 2, 1)
    lines = emit(rep, "csv").decode().splitlines()
    assert lines == ["m,n,degree,gcd,factors,millis"]


def test_emit_md_suite():
    text = emit(reference_suite(), "md").decode()
    assert text.startswith("| family | n | claim | ok |")
    assert "all pass: true" in text


def test_emit_rejects_unknown_format():
    with pytest.raises(DegenerateInputError):
        emit({}, "xml")
    with pytest.raises(DegenerateInputError):
        emit(object(), "json")


def test_emit_renders_through_the_report_methods():
    class Report:
        def to_json_dict(self):
            return {"b": 0.1 + 0.2, "a": Fraction(-1, 3)}

        def table(self):
            return ("x", "y"), [(1.0 / 3.0, None), ("p,q", True)]

        def to_md(self):
            return "free text\n"

    assert emit(Report(), "json") == b'{\n  "a": "-1/3",\n  "b": 0.3\n}\n'
    assert emit(Report(), "csv") == b'x,y\n0.333333333333,\n"p,q",true\n'
    assert emit(Report(), "md") == b"free text\n"


def _oracle_round_floats(obj):
    """emit._round_floats as it was with isinstance tests only."""
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, Fraction):
        text = _fmt_coeff(abs(obj))
        return "-" + text if obj < 0 else text
    if isinstance(obj, dict):
        return {k: _oracle_round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_oracle_round_floats(v) for v in obj]
    return obj


def _oracle_fmt_cell(v) -> str:
    """emit._fmt_cell as it was with isinstance tests only."""
    if isinstance(v, float):
        return "%.12g" % v
    if isinstance(v, Fraction):
        return _oracle_round_floats(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    return str(v)


def test_emit_dispatch_on_exact_types_matches_isinstance_dispatch():
    # a bool is an int: testing isinstance(v, int) first would print True
    values = [True, False, 0, -3, 2 ** 70, "x", "", Fraction(-2, 3),
              Fraction(4), 0.1 + 0.2, 1e300, None]
    values.append({"a": values[:], "b": tuple(values), "c": {"d": [None]}})
    for v in values:
        # repr tells True from 1, a list from a tuple and 0.3 from 0.1 + 0.2
        assert repr(_round_floats(v)) == \
            repr(_oracle_round_floats(v))
        assert repr(_fmt_cell(v)) == repr(_oracle_fmt_cell(v))
    assert [_fmt_cell(v) for v in values[:2]] == ["true", "false"]


def test_emit_dict_list_cells_are_json(capsys):
    rep = {"points": [Fraction(1, 2), -2], "c": 0,
           "certs": [{"r": None, "e": [1.0 / 3.0], "ok": True}]}
    want = {"points": ["1/2", -2],
            "certs": [{"r": None, "e": [0.333333333333], "ok": True}]}
    row = next(csv.DictReader(io.StringIO(emit(rep, "csv").decode())))
    assert row["c"] == "0"
    assert {k: json.loads(row[k]) for k in want} == want
    lines = emit(rep, "md").decode().splitlines()[2:]
    cells = dict(ln[2:-2].split(" | ") for ln in lines)
    assert {k: json.loads(cells[k]) for k in want} == want
    # a CLI report, through csv
    code, out, _ = run_cli(capsys, "orbit", "--q", "x^2-3/4", "--x", "1/2",
                           "--format", "csv")
    row = next(csv.DictReader(io.StringIO(out)))
    assert code == 0 and json.loads(row["points"]) == ["1/2", "-1/2", "-1/2"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_suite_md(capsys):
    code, out, err = run_cli(capsys, "paper-suite")
    assert code == 0
    assert "all pass: true" in out


def test_cli_gcd_grid_csv_default(capsys):
    code, out, _ = run_cli(capsys, "gcd-grid", "--f", "2*x", "--g", "x+1",
                           "--c", "x^2", "--N", "2")
    assert code == 0
    assert out.splitlines()[0] == "m,n,degree,gcd,factors,millis"


def test_cli_mult_cert_json(capsys):
    code, out, _ = run_cli(capsys, "mult-cert", "--q", "x^2-2", "--c", "2",
                           "--lambda-minpoly", "t+2")
    assert code == 0
    d = json.loads(out)
    assert d["case"] == "constant-c"
    assert d["bound"] == 1
    assert d["congruence"] == "1 mod 1"


def test_cli_height_value(capsys):
    code, out, _ = run_cli(capsys, "height", "--f", "x^2+1", "--x", "1",
                           "--steps", "20")
    assert code == 0
    d = json.loads(out)
    assert abs(d["value"] - 0.4074) < 1e-3


def test_cli_hypothesis_violation_exit_1(capsys):
    code, _, err = run_cli(capsys, "mult-cert", "--q", "x^2", "--c", "0",
                           "--lambda-minpoly", "t")
    assert code == 1
    assert "HypothesisViolationError" in err


def test_cli_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "gcd-grid", "--f", "x^-1", "--g", "x",
                           "--c", "0", "--N", "1")
    assert code == 2
    assert "parse error" in err
    assert "byte 2" in err


def test_cli_degenerate_exit_2(capsys):
    code, _, err = run_cli(capsys, "linear", "--alpha", "2", "--beta", "2",
                           "--gamma", "1", "--n", "3")
    assert code == 2
    assert "DegenerateInputError" in err


def test_cli_resource_limit_exit_3(capsys, monkeypatch):
    import itergcd.cli as cli_mod

    def blow_up(*a, **k):
        raise ResourceLimitError("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "canonical_height", blow_up)
    code, _, err = run_cli(capsys, "height", "--f", "x^2", "--x", "2")
    assert code == 3
    assert "ResourceLimitError" in err


def test_cli_coefficient_cap_exit_3(capsys, monkeypatch):
    # under a 200-bit cap x^3 + x^2/3 answers as with none (its orbits stay
    # below the cap); the orbits of x^3 + x^2/7 at N = 6 pass it
    def grid(f, n):
        code, out, err = run_cli(capsys, "gcd-grid", "--f", f, "--g",
                                 "x^3+5*x^2", "--c", "0", "--N", n,
                                 "--format", "json")
        if code == 0:
            out = json.loads(out)
            for cell in out["cells"]:
                cell.pop("millis")
        return code, out, err

    uncapped = grid("x^3+x^2/3", "5")
    monkeypatch.setattr(LIMITS, "max_coeff_bits", 200)
    assert grid("x^3+x^2/3", "5") == uncapped
    assert uncapped[0] == 0 and uncapped[1]["cells"]
    code, out, err = grid("x^3+x^2/7", "6")
    assert code == 3
    assert out == ""
    assert "ResourceLimitError" in err


def test_cli_word_cap_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(LIMITS, "indep_words", 100)
    code, out, err = run_cli(capsys, "indep", "--f", "2*x", "--g", "3*x+1",
                             "--max-len", "30")
    assert code == 3
    assert out == ""
    assert "ResourceLimitError" in err and "past the cap 100" in err


def test_cli_out_file_atomic(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "mult-cert", "--q", "x^2-2", "--c", "2",
                           "--lambda-minpoly", "t+2",
                           "--out", str(target))
    assert code == 0
    assert out == ""  # nothing on stdout when --out is used
    d = json.loads(target.read_text())
    assert d["bound"] == 1
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".itergcd-")]
    assert leftovers == []


@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_cli_out_unwritable_is_a_usage_error(tmp_path, capsys, where):
    # a missing directory fails in mkstemp, a directory as target in replace
    target = tmp_path / where
    code, out, err = run_cli(capsys, "gcd-grid", "--f", "x^2", "--g",
                             "x^2+1", "--c", "0", "--N", "2",
                             "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("itergcd: cannot write %s: " % target)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == []


def test_cli_format_override(capsys):
    code, out, _ = run_cli(capsys, "mult-cert", "--q", "x^2-2", "--c", "2",
                           "--lambda-minpoly", "t+2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("case,bound,congruence")


def test_cli_linear_normal_form_path(capsys):
    code, out, _ = run_cli(capsys, "linear", "--f", "x+5", "--g", "3*x-1",
                           "--n", "2")
    assert code == 0
    d = json.loads(out)
    assert d["lambda"] == "7/4"


def test_cli_orbit(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--q", "x^2-1", "--x", "0")
    assert code == 0
    d = json.loads(out)
    assert d["period"] == 2 and d["preperiod"] == 0


def test_cli_orbit_escaping_past_int_str_limit(capsys):
    # the orbit of 1/3 under x^2+1/4 escapes by size; its last points have
    # more than the 4300 decimal digits str(int) allows by default
    code, out, _ = run_cli(capsys, "orbit", "--q", "x^2+1/4", "--x", "1/3")
    assert code == 0
    d = json.loads(out)
    assert d["escape_reason"] == "size cap"
    y = Fraction(1, 3)
    for point in d["points"][1:]:
        y = y * y + Fraction(1, 4)
        num, den = point.split("/")
        assert 10 ** (len(num) - 1) <= y.numerator < 10 ** len(num)
        assert int(num[-40:]) == y.numerator % 10 ** 40
        assert int(den[-40:]) == y.denominator % 10 ** 40
    assert len(num) > 4300


def test_cli_linear_root_past_int_str_limit(capsys):
    # lambda = (3^n - 1) / (2 (2^n - 3^n)) has about 9500 digits at n = 20000
    n = 20000
    want = Fraction(3 ** n - 1, 2 * (2 ** n - 3 ** n))
    code, out, _ = run_cli(capsys, "linear", "--alpha", "2", "--beta", "3",
                           "--gamma", "1", "--n", str(n))
    assert code == 0
    text = json.loads(out)["lambda"]
    num, den = text.split("/")
    assert num[0] == "-" and 10 ** (len(num) - 2) <= -want.numerator
    assert -want.numerator < 10 ** (len(num) - 1)
    assert int(num[-40:]) == -want.numerator % 10 ** 40
    assert int(den[-40:]) == want.denominator % 10 ** 40
    assert len(den) > 4300
    for fmt in ("csv", "md"):
        code, out, _ = run_cli(capsys, "linear", "--alpha", "2", "--beta",
                               "3", "--gamma", "1", "--n", str(n),
                               "--format", fmt)
        assert code == 0 and text in out


def test_cli_linear_power_cap_exit_3(capsys):
    # 2^5000000 has more than the default 2^22 coefficient bits
    code, out, err = run_cli(capsys, "linear", "--alpha", "2", "--beta", "3",
                             "--gamma", "1", "--n", "5000000")
    assert code == 3
    assert out == ""
    assert "ResourceLimitError" in err


def test_cli_linear_built_power_cap_exit_3(capsys):
    # 3^3000000 passes the default cap, though the bound checked before
    # powering, 3000002 bits, does not
    code, out, err = run_cli(capsys, "linear", "--alpha", "2", "--beta", "3",
                             "--gamma", "1", "--n", "3000000")
    assert code == 3
    assert out == ""
    assert "ResourceLimitError" in err and "4754889 bits" in err


def test_cli_indep_witness(capsys):
    code, out, _ = run_cli(capsys, "indep", "--f", "2*x", "--g", "x+1",
                           "--max-len", "4")
    assert code == 0
    d = json.loads(out)
    assert d["status"] == "dependent"
    assert sorted(d["witness"]) == ["FG", "G^2F"]


@pytest.mark.parametrize("argv", [
    ("orbit", "--q", "x^2-1", "--x", "0", "--step-cap", "0"),
    ("orbit", "--q", "x^2-1", "--x", "0", "--step-cap", "-3"),
    ("orbit", "--q", "x^2-1", "--x", "0", "--size-cap", "0"),
    ("indep", "--f", "x^2", "--g", "x^2+1", "--max-len", "0"),
    ("indep", "--f", "x^2", "--g", "x^2+1", "--max-len", "-1"),
])
def test_cli_refuses_a_vacuous_search(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "DegenerateInputError" in err


@pytest.mark.parametrize("argv, listed", [
    (("divisor", "--f", "x^2-2", "--g", "x^2-1", "--c", "0", "--N", "3"),
     "certificates"),
    (("orbit", "--q", "x^2-3/4", "--x", "1/2"), "points"),
    (("indep", "--f", "2*x", "--g", "x+1", "--max-len", "4"), "witness"),
])
def test_cli_plain_report_csv_parses(capsys, argv, listed):
    # a list-valued field prints as a Python list, whose commas are quoted
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == 1 and len(rows[0]) == len(header)
    assert rows[0][header.index(listed)].startswith("[")


@pytest.mark.parametrize("command, f", [
    ("height", "--f"), ("orbit", "--q"), ("ramified", "--q")])
def test_cli_point_from_x_or_minpoly_not_both(capsys, command, f):
    code, out, err = run_cli(capsys, command, f, "x^2-1", "--x", "0",
                             "--lambda-minpoly", "t-5")
    assert (code, out) == (2, "")
    assert "give --x or --lambda-minpoly, not both" in err
    for point in (("--x", "0"), ("--lambda-minpoly", "t-5")):
        assert run_cli(capsys, command, f, "x^2-1", *point)[0] == 0


def test_cli_reused_parser_matches_fresh_processes(capsys):
    # the argparse tree is built once per process; a usage error must leave
    # it fit for the next calls, so each in-process result equals a fresh
    # interpreter's
    argvs = (["gcd-grid", "--f", "x^2", "--N", "three"],
             ["height", "--f", "x^2+5", "--x", "61", "--steps", "6"],
             ["orbit", "--q", "x^2-2", "--x", "0", "--format", "csv"])
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["itergcd"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    codes = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from itergcd.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env)
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr)
        codes.append(code)
    assert codes == [2, 0, 0]
