"""The README's command lines and library sketch run as written."""

import math
import re
import shlex
from pathlib import Path

import pytest

from ladder_forge import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in _block("Command line", "sh").splitlines() if line.strip()]


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


def test_library_sketch(capsys):
    exec(compile(_block("Library sketch", "python"), "README.md", "exec"), {})
    assert float(capsys.readouterr().out) == -math.sqrt(6)  # its "# -sqrt(6)"
