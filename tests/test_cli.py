"""Command line behavior: schemas, exit codes, tolerance plumbing."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ladder_forge
from ladder_forge import cli, opalgebra as oa, opdsl
from ladder_forge.generators import LADDERS

from _gen import operators

ZERO = "0.000000000000e+00"
ROW_KEYS = {"name", "expected", "actual", "residual", "pass"}
TOP_KEYS = {"command", "params", "rows", "pass"}
UNINVERTIBLE = {  # parse text -> the reason its error message gives
    "(r + 1)^-1": "a sum of operator terms",
    "(s + s^2)^-1": "a sum of operator terms",
    "(d/dr)^-1": "an operator containing derivatives",
    "0^-1": "zero",
}


def run_json(capsys, argv):
    code = cli.main(["--format", "json", *argv])
    report = json.loads(capsys.readouterr().out)
    assert set(report) == TOP_KEYS
    for row in report["rows"]:
        assert set(row) == ROW_KEYS
        for key in ("expected", "actual", "residual"):
            assert row[key] is None or isinstance(row[key], str)
    return code, report


class TestExpressionCommands:
    def test_parse_normal_form(self, capsys):
        code, report = run_json(capsys, ["parse", "d/dr*r"])
        assert code == 0 and report["pass"]
        assert report["rows"][0]["actual"] == "1 + r*d/dr"

    def test_commutator_of_displayed_ladders(self, capsys):
        plus = "exp(i*eta)*(-r*d/dr+i*d/deta+s*r)"
        minus = "exp(-i*eta)*(r*d/dr+i*d/deta+s*r)"
        code, report = run_json(capsys, ["commutator", plus, minus])
        assert code == 0
        rendered = report["rows"][0]["actual"]
        assert opdsl.parse(rendered) == 2 * oa.imag() * oa.deriv("eta")

    def test_parse_error_exits_2(self, capsys):
        assert cli.main(["parse", "r +"]) == 2
        assert "position 3" in capsys.readouterr().err

    def test_lex_error_exits_2(self, capsys):
        assert cli.main(["parse", "r # s"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_denominator_exits_2(self, capsys):
        assert cli.main(["parse", "1/0*r"]) == 2
        assert "number '1/0' has a zero denominator at position 0" in capsys.readouterr().err

    def test_number_past_digit_limit_exits_2(self, capsys):
        assert cli.main(["parse", "1" * 5000 + "*r"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: number {'1' * 12!r}... has too many digits at position 0\n"

    def test_result_past_digit_limit_exits_2(self, capsys):
        # the number is within the limit, its square is not: refused at the ^
        assert cli.main(["parse", "9" * 3000 + "^2"]) == 2
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == f"error: a result coefficient has more than {limit} digits at position 3000\n"
        # a product of two such numbers is refused where render prints it
        assert cli.main(["parse", "9" * 3000 + "*" + "9" * 3000]) == 2
        assert capsys.readouterr().err == f"error: a result coefficient has more than {limit} digits\n"
        # u^e carries 2**(e div 2): refused at the ^ before that int is built
        start = time.perf_counter()
        assert cli.main(["parse", "u^99999999999999999999"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"error: a result coefficient has more than {limit} digits at position 1\n"

    @pytest.mark.parametrize("text", ["sqrt(r)^16777215", "r^-8388608", "s^-16777216", "exp(-16777216*i*beta)",
                                      "d/dr^16777215", "s^-1000*r^1000*d/dr^1000"])
    def test_exponent_at_the_bound_parses(self, capsys, text):
        # every exponent in [-2**24, 2**24) is accepted, and renders as it was written
        code, report = run_json(capsys, ["parse", text])
        assert code == 0 and report["rows"][0]["actual"] == text

    @pytest.mark.parametrize("text,message", [
        ("r^8388608", "r2 = 16777216 is outside the exponent bound [-2**24, 2**24) at position 1"),
        ("sqrt(r)^-16777217", "r2 = -16777217 is outside the exponent bound [-2**24, 2**24) at position 7"),
        ("s^16777216", "s_power = 16777216 is outside the exponent bound [-2**24, 2**24) at position 1"),
        ("exp(16777216*i*eta)", "ke = 16777216 is outside the exponent bound [-2**24, 2**24) at position 4"),
        ("exp(-16777217*i*beta)", "kb = -16777217 is outside the exponent bound [-2**24, 2**24) at position 4"),
        ("d/dr^16777216", "dr = 16777216 is outside the exponent bound [-2**24, 2**24) at position 4"),
        ("r^99999999999999999999",
         "r2 = 199999999999999999998 is outside the exponent bound [-2**24, 2**24) at position 1"),
        # a product of atoms inside the bound whose fold is not: no single factor to point at
        ("sqrt(r)^16777215*sqrt(r)", "r2 = 16777216 is outside the exponent bound [-2**24, 2**24)"),
        # the earlier refusals keep their order: the digit limit, then an uninvertible base
        ("u^99999999999999999999", f"a result coefficient has more than {sys.get_int_max_str_digits()} digits "
                                   "at position 1"),
        ("d/dr^-99999999", "cannot invert an operator containing derivatives at position 4"),
    ])
    def test_exponent_past_the_bound_exits_2(self, capsys, text, message):
        assert cli.main(["parse", text]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text", list(UNINVERTIBLE))
    def test_uninvertible_power_exits_2(self, capsys, text):
        assert cli.main(["parse", text]) == 2
        assert f"cannot invert {UNINVERTIBLE[text]}" in capsys.readouterr().err

    def test_pair_past_the_bound_exits_2_before_any_term(self, capsys, monkeypatch):
        # d/deta^20000 meeting exp(i*eta) would form 20,001 terms: the count is read off the pair's key, so
        # the refusal comes before _phase_pass builds any (the text ran past 20 s before the bound)
        passes = []
        phase_pass = oa._phase_pass
        monkeypatch.setattr(oa, "_phase_pass", lambda d, k: passes.append((d, k)) or phase_pass(d, k))
        assert cli.main(["parse", "d/deta^20000*exp(i*eta)"]) == 2
        assert capsys.readouterr().err == ("error: a product of two atoms would form 20001 interaction terms, "
                                           f"past the pair bound PAIR_BOUND = {oa.PAIR_BOUND}\n")
        assert [(d, k) for d, k in passes if d == 20000] == []

    def test_pair_at_the_bound_parses(self):
        # two axes of 64 terms each form 64 * 64 = PAIR_BOUND terms and parse; 17 * 241, one more, are refused
        assert oa.PAIR_BOUND == 64 * 64
        value = opdsl.parse("d/deta^63*d/dalpha^63*(exp(i*eta)*exp(i*alpha))")
        assert len(list(value.terms())) == oa.PAIR_BOUND
        with pytest.raises(ValueError, match=f"^a product of two atoms would form {oa.PAIR_BOUND + 1} interaction"):
            opdsl.parse("d/deta^16*d/dalpha^240*(exp(i*eta)*exp(i*alpha))")

    def test_high_order_meeting_a_low_power_is_counted_where_it_stops(self):
        # d/dr^5000 meets r^3 in 4 terms, as the falling factorial of 3 stops:
        # the sum over j <= 3 of C(5000, j) 3!/(3 - j)! r^(3 - j) d/dr^(5000 - j)
        expected = oa.OperatorExpr({(oa.Mono(6 - 2 * j, 0, 0, 0, 5000 - j, 0, 0, 0), 0, 0): math.comb(5000, j)
                                    * math.perm(3, j) for j in range(4)})
        assert opdsl.parse("d/dr^5000*r^3") == oa.deriv("r", 5000) * oa.r_power(3) == expected


class TestAlgebraCommands:
    @pytest.mark.parametrize("which,rows", [("su11", 4), ("weyl", 7), ("sp4", 1)])
    def test_verify_algebra(self, capsys, which, rows):
        code, report = run_json(capsys, ["verify-algebra", which])
        assert code == 0 and report["pass"]
        assert len(report["rows"]) == rows
        assert all(row["pass"] for row in report["rows"])

    def test_casimir(self, capsys):
        code, report = run_json(capsys, ["casimir"])
        assert code == 0 and len(report["rows"]) == 4

    def test_unknown_algebra_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify-algebra", "su2"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'su2'" in err
        assert all(f"'{name}'" in err for name in ("su11", "weyl", "sp4"))

    def test_verify_algebra_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify-algebra", "--help"])
        assert info.value.code == 0
        assert "usage: ladder-forge verify-algebra" in capsys.readouterr().out


class TestTransformCommand:
    def test_f2b_example(self, capsys):
        code, report = run_json(
            capsys, ["transform", "f2b", "--q", "-1", "--l", "0", "--m", "0"])
        assert code == 0
        rows = {row["name"]: row["actual"] for row in report["rows"]}
        assert rows["target.family"] == "B"
        assert rows["target.d"] == "1" and rows["target.a"] == "1"
        assert rows["mbar+cbar"] == "1/2" and rows["lbar+cbar"] == "1/2"

    def test_f2c_branch(self, capsys):
        code, report = run_json(
            capsys, ["transform", "f2c", "--q", "-1", "--l", "0", "--m", "0",
                     "--eps", "-1"])
        assert code == 0
        rows = {row["name"]: row["actual"] for row in report["rows"]}
        assert rows["mhat+chat"] == "-3/2" and rows["lhat+chat"] == "-1/2"

    def test_b2c_route_agrees_with_direct(self, capsys):
        _, via_b = run_json(
            capsys, ["transform", "b2c", "--q", "-3", "--l", "2", "--m", "1"])
        _, direct = run_json(
            capsys, ["transform", "f2c", "--q", "-3", "--l", "2", "--m", "1"])
        pick = lambda rep: {row["name"]: row["actual"] for row in rep["rows"]
                            if row["name"] in ("target.b", "mhat+chat", "lhat+chat")}
        assert pick(via_b) == pick(direct)

    def test_rational_coupling(self, capsys):
        # a fraction after a space trips argparse's negative-number check,
        # so rational couplings use the --q= form
        code, report = run_json(
            capsys, ["transform", "f2b", "--q=-3/2", "--l", "1", "--m", "0"])
        assert code == 0
        rows = {row["name"]: row["actual"] for row in report["rows"]}
        assert rows["target.d"] == "3/4"

    @pytest.mark.parametrize("argv,code", [
        (["transform", "f2b", "--q", "-3/2", "--l", "1", "--m", "0"], 2),
        (["transform", "f2b", "--q=-3/2", "--l", "1", "--m", "0"], 0),
        (["coulomb-residual", "--n", "3", "--L", "1", "--shift", "-1e-1"], 2),
        (["coulomb-residual", "--n", "3", "--L", "1", "--shift=-1e-1"], 0),
    ], ids=["q-spaced", "q-joined", "shift-spaced", "shift-joined"])
    def test_negative_values_take_the_joined_form_the_help_shows(self, capsys, argv, code):
        # argparse reads "-3/2" or "-1e-1" after a space as an option, so the help texts show the joined form
        try:
            assert cli.main(argv) == code
        except SystemExit as exit_:
            assert exit_.code == code
        help_text = {"transform": "--q=-3/2", "coulomb-residual": "--shift=-1e-1"}[argv[0]]
        with pytest.raises(SystemExit):
            cli.main([argv[0], "--help"])
        assert help_text in " ".join(capsys.readouterr().out.split())

    def test_invalid_labels_exit_2(self, capsys):
        assert cli.main(["transform", "f2b", "--q", "-1", "--l", "0", "--m", "1"]) == 2

    @pytest.mark.parametrize("argv,bad", [
        (["transform", "f2b", "--q", "1/0", "--l", "0", "--m", "0"], "'1/0'"),
        (["transform", "f2c", "--q", "abc", "--l", "0", "--m", "0"], "'abc'"),
        (["coulomb-verify", "--Z", "1/0"], "'1/0'"),
        (["coulomb-residual", "--n", "3", "--L", "1", "--Z", "1/0"], "'1/0'"),
        # past int's digit limit: rejected before any map, echoed truncated
        (["transform", "f2b", "--q", "1e5000", "--l", "0", "--m", "0"], "'1e5000'"),
        (["transform", "f2b", "--q", "1" * 5000, "--l", "0", "--m", "0"], repr("1" * 40 + "...")),
        (["coulomb-verify", "--Z", "1e5000"], "'1e5000'"),
    ])
    def test_bad_rational_is_a_usage_error(self, capsys, argv, bad):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert f"must be a rational number, got {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["1e10000000", "1e-10000000"])
    def test_huge_exponent_is_rejected_before_fraction(self, raw):
        # Fraction would build 10**10000000 (about 18 s) before the digit limit bites
        start = time.perf_counter()
        with pytest.raises(argparse.ArgumentTypeError):
            cli._rational(raw)
        assert time.perf_counter() - start < 1.0


class TestCoulombCommands:
    def test_verify_passes(self, capsys):
        code, report = run_json(capsys, ["coulomb-verify", "--t-max", "4"])
        assert code == 0 and report["pass"]
        # 2 ops per su11 state, 4 per weyl state, plus 4 summary rows
        su11 = 2 * sum(range(1, 5))
        weyl = 4 * sum(len(range(mu + 1, 8, 2)) for mu in range(6))
        assert len(report["rows"]) == su11 + weyl + 4

    def test_verify_grid_flags(self, capsys):
        code, report = run_json(
            capsys, ["coulomb-verify", "--t-max", "2", "--mu-max", "1",
                     "--nu-max", "3"])
        assert code == 0
        assert len(report["rows"]) == 6 + 4 * 3 + 4

    def test_residual_rows(self, capsys):
        code, report = run_json(
            capsys, ["coulomb-residual", "--n", "3", "--L", "1"])
        assert code == 0 and report["pass"]
        names = [row["name"] for row in report["rows"]]
        assert names == ["schrodinger residual", "detuned control", "normalization"]

    def test_residual_passes_at_a_large_charge(self, capsys):
        code, report = run_json(capsys, ["coulomb-residual", "--n", "3", "--L", "1", "--Z", "100000"])
        assert code == 0 and report["pass"]

    def test_negative_shift_control_measures_its_size(self, capsys):
        code, report = run_json(
            capsys, ["coulomb-residual", "--n", "2", "--L", "0", "--shift", "-0.5"])
        assert code == 0
        row = next(r for r in report["rows"] if r["name"] == "detuned control")
        assert float(row["expected"]) == 0.5
        assert float(row["actual"]) == pytest.approx(0.5, rel=1e-6)
        assert float(row["residual"]) <= 1e-6

    def test_residual_dump_and_out(self, capsys, tmp_path):
        dump = tmp_path / "samples.csv"
        out = tmp_path / "report.json"
        code = cli.main(["--format", "json", "--out", str(out),
                         "coulomb-residual", "--n", "2", "--L", "0",
                         "--dump", str(dump)])
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "rho,psi"
        assert len(lines) == 1 + 40
        report = json.loads(out.read_text())
        assert report["pass"]

    @pytest.mark.parametrize("argv", [
        ["--out", "{missing}/report.txt", "parse", "r"],
        ["coulomb-residual", "--n", "2", "--L", "0", "--dump", "{missing}/samples.csv"],
    ])
    def test_unwritable_path_exits_2(self, capsys, tmp_path, argv):
        argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2]")

    @pytest.mark.parametrize("shift", ["1e308", "-1e308", "1.7976931348623157e308"])
    def test_huge_shift_control_stays_finite(self, capsys, shift):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_json(capsys, ["coulomb-residual", "--n", "3", "--L", "1",
                                             f"--shift={shift}"])
        assert code == 0
        row = next(r for r in report["rows"] if r["name"] == "detuned control")
        assert row["actual"] == row["expected"] == f"{abs(float(shift)):.12e}"

    @pytest.mark.parametrize("Z", ["1e400", "1e-400", str(2**64 + 1)])
    def test_charge_outside_float_range_exits_2(self, capsys, Z):
        assert cli.main(["coulomb-residual", "--n", "3", "--L", "1", "--Z", Z]) == 2
        assert "charge must lie in [2**-64, 2**64]" in capsys.readouterr().err

    @pytest.mark.parametrize("n,L", [("2", "2"), ("0", "0"), ("2", "-1")])
    def test_labels_outside_the_state_range_exit_2(self, capsys, n, L):
        # the refusal names the flags the command takes, not the library's (t, m)
        assert cli.main(["coulomb-residual", "--n", n, "--L", L]) == 2
        assert capsys.readouterr().err == f"error: need --n >= 1 and 0 <= --L <= --n - 1, got --n {n} --L {L}\n"

    @pytest.mark.parametrize("refused,accepted", [(str(2**64), str(2**63)),
                                                  (f"1/{2**64}", f"1/{2**63}")])
    def test_verify_charge_leaves_room_for_the_sweep(self, capsys, refused, accepted):
        # a sweep step drags Z by n'/n in [1/2, 2], so coulomb-verify refuses a --Z
        # within a factor 2 of the state range up front, naming the charge it was given
        assert cli.main(["coulomb-verify", "--Z", refused, "--t-max", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: a sweep's charge must lie in [2**-63, 2**63], so that every charge its steps "
            f"drag it to stays in [2**-64, 2**64], got {refused}\n")
        assert cli.main(["coulomb-verify", "--Z", accepted, "--t-max", "2"]) == 0

    def test_impossible_tolerance_exits_1(self, capsys):
        # (2, 0)'s residual cancels exactly, so no tolerance fails it
        _, report = run_json(capsys, ["coulomb-residual", "--n", "2", "--L", "0"])
        assert report["rows"][0]["actual"] == ZERO
        assert cli.main(["coulomb-residual", "--n", "3", "--L", "0",
                         "--tol", "1e-30"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "overall: FAIL" in out

    @pytest.mark.parametrize("argv,bad", [
        (["coulomb-verify", "--tol", "nan"], "'nan'"),
        (["coulomb-residual", "--n", "2", "--L", "0", "--tol", "0"], "'0'"),
        (["coulomb-verify", "--t-max", "0"], "'0'"),
        (["coulomb-verify", "--t-max", "-2"], "'-2'"),
        (["coulomb-verify", "--mu-max", "-1"], "'-1'"),
        (["coulomb-verify", "--nu-max", "-1"], "'-1'"),
        (["coulomb-residual", "--n", "2", "--L", "0", "--shift", "nan"], "'nan'"),
        (["coulomb-residual", "--n", "2", "--L", "0", "--shift", "inf"], "'inf'"),
        (["coulomb-residual", "--n", "2", "--L", "0", "--shift", "abc"], "'abc'"),
        (["coulomb-verify", "--t-max", "abc"], "'abc'"),
    ])
    def test_out_of_range_flag_exits_2(self, capsys, argv, bad):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert bad in capsys.readouterr().err

    def test_tolerance_reaches_action_rows(self, capsys):
        grid = ["coulomb-verify", "--t-max", "2", "--mu-max", "1", "--nu-max", "2"]
        code, report = run_json(capsys, [*grid, "--tol", "1e-30"])
        actions = [row for row in report["rows"] if row["name"].split()[0] in LADDERS]
        assert code == 1 and len(actions) == 14
        annihilated = [row for row in actions if row["name"].endswith("annihilated")]
        assert len(annihilated) == 3 and all(row["actual"] == ZERO for row in annihilated)
        assert not any(row["pass"] for row in actions if row not in annihilated)
        assert run_json(capsys, [*grid, "--tol", "1e-6"])[0] == 0

    def test_tolerance_variable_changes_nothing(self, capsys, monkeypatch):
        # --tol is the only tolerance override: LADDER_FORGE_TOL in the environment changes nothing
        argvs = (["coulomb-verify", "--t-max", "2", "--mu-max", "1", "--nu-max", "2"],
                 ["coulomb-residual", "--n", "3", "--L", "0"])
        monkeypatch.delenv("LADDER_FORGE_TOL", raising=False)
        unset = [(cli.main(argv), capsys.readouterr()) for argv in argvs]
        assert [code for code, _ in unset] == [0, 0]
        for value in ("1e-30", "nan"):
            monkeypatch.setenv("LADDER_FORGE_TOL", value)
            assert [(cli.main(argv), capsys.readouterr()) for argv in argvs] == unset

    def test_quadrature_ceiling_exits_2(self, capsys, monkeypatch):
        # normalization at n = 200 needs quadrature order 201
        assert cli.main(["coulomb-residual", "--n", "200", "--L", "3"]) == 2
        assert "order 201 is past the float limit 184" in capsys.readouterr().err
        monkeypatch.setattr(ladder_forge.coulomb, "sweep_su11", None)  # rejected before any sweep
        for t_max in ("200", "184"):
            assert cli.main(["coulomb-verify", "--t-max", t_max]) == 2
            assert "past the float limit 184" in capsys.readouterr().err

    def test_residual_past_the_quadrature_ceiling_grows_no_column(self, capsys, monkeypatch):
        # the normalization refuses order 200001 before the Schrodinger check grows a degree-199999 column,
        # or the radial profile steps one afresh
        steps = []

        def recurrence(n, alpha, x, first, start):
            steps.append((n, alpha))
            raise ValueError("a Laguerre recurrence ran")

        monkeypatch.setattr("ladder_forge.coulomb._recurrence", recurrence)
        assert cli.main(["coulomb-residual", "--n", "200000", "--L", "0"]) == 2
        assert capsys.readouterr().err == "error: quadrature order 200001 is past the float limit 184\n"
        assert steps == []

    def test_weyl_grid_quadrature_ceiling_exits_2(self, capsys, monkeypatch):
        # B+ on (0, 1001) reaches n = 1003/2, which needs quadrature order 502
        monkeypatch.setattr(ladder_forge.coulomb, "sweep_su11", None)  # rejected before any sweep
        assert cli.main(["coulomb-verify", "--t-max", "1", "--mu-max", "0", "--nu-max", "1001"]) == 2
        assert capsys.readouterr().err == ("error: --mu-max 0 with --nu-max 1001 needs quadrature order 502, "
                                           "past the float limit 184\n")

    def test_fold_rows_at_the_default_order_pass(self, capsys):
        # A+ (39, 40) and B- (40, 41) land on (40, 40), whose profile vanishes at every order-40 node
        code, report = run_json(capsys, ["coulomb-verify", "--t-max", "1", "--mu-max", "40", "--nu-max", "41"])
        assert code == 0 and report["pass"]
        names = {row["name"] for row in report["rows"]}
        assert {"A+ (39, 40)", "B- (40, 41)"} <= names


def test_json_output_deterministic(capsys):
    argv = ["--format", "json", "coulomb-verify", "--t-max", "3"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_text_mode_marks_rows(capsys):
    assert cli.main(["verify-algebra", "weyl"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 7 and "overall: PASS" in out


def test_installed_entry_point():
    exe = shutil.which("ladder-forge")
    argv = [exe] if exe else [sys.executable, "-m", "ladder_forge"]
    package_root = str(Path(ladder_forge.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([*argv, "parse", "s*r"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "s*r" in proc.stdout


# -- every argv ends in a verdict or a usage error ------------------------

_DSL_PIECES = ["r", "s", "u", "i", "q", "sqrt(r)", "sqrt(s)", "exp(i*eta)", "exp(-2*i*alpha)",
               "exp(1/2*i*beta)", "exp(", "d/dr", "d/dbeta", "d/dx", "0", "1", "3", "1/2",
               "1/0", "+", "-", "*", "^", "^2", "^-1", "^3", "(", ")", "$"]
# pieces are joined by spaces, so no two digits fuse into an exponent above 3
_dsl_texts = st.one_of(
    st.lists(st.sampled_from(_DSL_PIECES), max_size=12).map(" ".join),
    operators(max_terms=2).map(opdsl.render),
)
_rationals = st.one_of(
    st.fractions().map(str),
    st.sampled_from(["1/0", "0/0", "abc", "", "1.5", "-0", "nan", "inf", "1e400", "1e-400"]),
)
_argvs = st.one_of(
    st.tuples(st.just("parse"), _dsl_texts),
    st.tuples(st.just("transform"), st.sampled_from(["f2b", "f2c", "b2c"]),
              _rationals.map("--q={}".format),
              st.integers(-2, 4).map("--l={}".format), st.integers(-2, 4).map("--m={}".format)),
    st.tuples(st.just("coulomb-residual"), st.integers(max_value=8).map("--n={}".format),
              st.integers(min_value=-1).map("--L={}".format), _rationals.map("--Z={}".format),
              st.floats(allow_nan=False, allow_infinity=False).map("--shift={!r}".format)),
)


@settings(max_examples=200, deadline=None)
@given(_argvs.map(list), st.booleans(), st.sampled_from(["text", "json"]))
def test_every_argv_ends_in_a_verdict_or_exit_2(argv, missing_out, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        out = ["--out", os.path.join(tmp, "missing", "report.txt")] if missing_out else []
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(["--format", fmt, *out, *argv])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert "error" in stderr.getvalue()
        return
    assert not missing_out
    if fmt == "json":
        report = json.loads(stdout.getvalue())
        fields = [*report["params"].values(),
                  *(row[key] for row in report["rows"] for key in ("expected", "actual", "residual"))]
        assert not [f for f in fields if isinstance(f, str) and f.lstrip("-") in ("inf", "nan")]
    else:
        assert not re.search(r"=-?(inf|nan)\b", stdout.getvalue())
