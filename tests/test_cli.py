"""Command line behavior: schemas, exit codes, tolerance plumbing."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ladder_forge
from ladder_forge import cli, opalgebra as oa, opdsl

ROW_KEYS = {"name", "expected", "actual", "residual", "pass"}
TOP_KEYS = {"command", "params", "rows", "pass"}


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

    @pytest.mark.parametrize("text", ["(r + 1)^-1", "(s + s^2)^-1", "(d/dr)^-1"])
    def test_uninvertible_power_exits_2(self, capsys, text):
        assert cli.main(["parse", text]) == 2
        assert "cannot invert" in capsys.readouterr().err


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

    def test_unknown_algebra_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify-algebra", "su2"])
        assert info.value.code == 2


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

    def test_invalid_labels_exit_2(self, capsys):
        assert cli.main(["transform", "f2b", "--q", "-1", "--l", "0", "--m", "1"]) == 2


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

    def test_impossible_tolerance_exits_1(self, capsys):
        assert cli.main(["coulomb-residual", "--n", "2", "--L", "0",
                         "--tol", "1e-30"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "overall: FAIL" in out

    def test_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.TOL_ENV, "1e-30")
        assert cli.main(["coulomb-residual", "--n", "2", "--L", "0"]) == 1
        monkeypatch.setenv(cli.TOL_ENV, "1e-6")
        capsys.readouterr()
        assert cli.main(["coulomb-residual", "--n", "2", "--L", "0"]) == 0

    @pytest.mark.parametrize("argv,bad", [
        (["coulomb-verify", "--tol", "nan"], "'nan'"),
        (["coulomb-residual", "--n", "2", "--L", "0", "--tol", "0"], "'0'"),
        (["coulomb-verify", "--t-max", "0"], "'0'"),
        (["coulomb-verify", "--t-max", "-2"], "'-2'"),
        (["coulomb-verify", "--mu-max", "-1"], "'-1'"),
        (["coulomb-verify", "--nu-max", "-1"], "'-1'"),
        (["coulomb-residual", "--n", "2", "--L", "0", "--shift", "nan"], "'nan'"),
        (["coulomb-residual", "--n", "2", "--L", "0", "--shift", "inf"], "'inf'"),
    ])
    def test_out_of_range_flag_exits_2(self, capsys, argv, bad):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert bad in capsys.readouterr().err

    def test_nan_env_tolerance_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.TOL_ENV, "nan")
        assert cli.main(["coulomb-residual", "--n", "2", "--L", "0"]) == 2
        assert "'nan'" in capsys.readouterr().err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.TOL_ENV, "1e-30")
        assert cli.main(["coulomb-residual", "--n", "2", "--L", "0",
                         "--tol", "1e-6"]) == 0


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
