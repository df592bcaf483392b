"""The README's command lines and library sketch run as written, and its
tolerance table matches the acceptance pins and ``coulomb``'s named bounds.

``golden_cli.json`` holds the exact ``--format text`` and ``--format json``
stdout of each algebra command line, recorded before B+- and check2 were
derived as the alpha <-> beta mirrors of A+- and check1; a refactor of the
algebra must reproduce it byte for byte.  The ``coulomb-*`` lines are left
out: their float digits may differ across numpy builds.
"""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

import test_acceptance as acceptance
from ladder_forge import cli, coulomb

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in _block("Command line", "sh").splitlines() if line.strip()]
ALGEBRA_COMMANDS = [line.partition("#")[0].strip() for line in COMMANDS
                    if not line.startswith("ladder-forge coulomb-")]
GOLDEN_CLI = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line(line, tmp_path, monkeypatch, capsys):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "ladder-forge"
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv[1:]) == 0
    if comment.startswith(" -> "):
        rows = [row for row in capsys.readouterr().out.splitlines() if row.startswith("  ")]
        assert len(rows) == 1
        assert re.fullmatch(r"  \S+  actual=(.*)  PASS", rows[0]).group(1) == comment[4:].strip()


def test_golden_cli_covers_the_algebra_lines():
    assert list(GOLDEN_CLI) == ALGEBRA_COMMANDS


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ALGEBRA_COMMANDS)
def test_command_output_matches_golden(command, fmt, capsys):
    assert cli.main(["--format", fmt] + shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == GOLDEN_CLI[command][fmt]


def test_library_sketch(capsys):
    exec(compile(_block("Library sketch", "python"), "README.md", "exec"), {})
    assert float(capsys.readouterr().out) == -math.sqrt(6)  # its "# -sqrt(6)"


# each float row of the README tolerance table: its pin in tests/test_acceptance.py
# and the named bound of ``coulomb`` that the library and the CLI check
TOLERANCE_ROWS = {
    "ladder action coefficients": ("COEFF_TOL", "COEFF_TOL"),
    "pointwise profile comparisons, residuals": ("POINTWISE_TOL", "PROFILE_TOL"),
    "state normalization": ("NORM_TOL", "NORM_TOL"),
    "annihilation norms": ("ANNIHILATION_TOL", "COEFF_TOL"),
    "detuned negative control (must exceed)": ("CONTROL_FLOOR", "DETUNED_FLOOR"),
}


def test_tolerance_table_matches_pins_and_bounds():
    table = dict(re.findall(r"^\| (.+?)\s*\| (1e-\d+)\s*\|$", README, re.M))
    assert set(table) == set(TOLERANCE_ROWS)
    for check, (pin, bound) in TOLERANCE_ROWS.items():
        assert float(table[check]) == getattr(acceptance, pin) == getattr(coulomb, bound), check
