"""The exact algebra runs without numpy; only the float layer loads it.

No subcommand loads ``dataclasses``, and the algebra ones load neither
``inspect`` nor ``typing``: importing them would cost every CLI call 7-12 ms
(``dataclasses`` with ``inspect``) and about 3.5 ms (``typing``).  Each check
runs in a fresh interpreter, because the test process itself has long since
imported ``coulomb`` and numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ladder_forge

PACKAGE_ROOT = str(Path(ladder_forge.__file__).parents[1])
# None in sys.modules makes every import of that module, direct or transitive, raise
BLOCKED_CLI = ("import sys; sys.modules.update(numpy=None, dataclasses=None, inspect=None, typing=None); "
               "from ladder_forge import cli; sys.exit(cli.main(sys.argv[1:]))")
# numpy imports inspect and typing itself, so the float subcommands run with dataclasses alone blocked
DATACLASSES_BLOCKED_MAIN = ("import runpy, sys; sys.modules['dataclasses'] = None; "
                            "runpy.run_module('ladder_forge', run_name='__main__')")
ALGEBRA_ARGVS = [
    ["parse", "d/dr*r"],
    ["commutator", "exp(i*eta)*(-r*d/dr+i*d/deta+s*r)", "exp(-i*eta)*(r*d/dr+i*d/deta+s*r)"],
    ["verify-algebra", "su11"],
    ["verify-algebra", "weyl"],
    ["verify-algebra", "sp4"],
    ["casimir"],
    ["transform", "f2b", "--q=-1", "--l", "0", "--m", "0"],
    ["transform", "f2c", "--q=-1", "--l", "0", "--m", "0", "--eps", "-1"],
    ["transform", "b2c", "--q=-3", "--l", "2", "--m", "1"],
]


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("argv", ALGEBRA_ARGVS, ids=lambda argv: "-".join(
    argv[:2] if argv[0] in ("verify-algebra", "transform") else argv[:1]))
def test_algebra_subcommand_runs_with_numpy_blocked(argv):
    proc = fresh_python("-c", BLOCKED_CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout


def test_the_block_stops_the_float_layer():
    proc = fresh_python("-c", BLOCKED_CLI, "coulomb-residual", "--n", "3", "--L", "1")
    assert proc.returncode == 1
    assert "import of numpy halted" in proc.stderr


def test_bare_import_loads_no_numpy():
    proc = fresh_python("-c", "import sys, ladder_forge; sys.exit('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_float_names_load_on_first_use():
    script = """
import sys
from ladder_forge import state_tm
assert 'numpy' in sys.modules
import ladder_forge
from ladder_forge.coulomb import QuantumState
assert ladder_forge.QuantumState is QuantumState
assert ladder_forge.coulomb.state_tm(2, 1).munu == state_tm(2, 1).munu
namespace = {}
exec('from ladder_forge import *', namespace)
assert set(ladder_forge.__all__) <= set(namespace)
assert namespace['make_state'] is ladder_forge.coulomb.make_state
try:
    ladder_forge.no_such_name
except AttributeError as exc:
    assert 'no_such_name' in str(exc)
else:
    raise AssertionError('unknown attribute did not raise')
"""
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["coulomb-verify", "--t-max", "3", "--mu-max", "2", "--nu-max", "2"],
    ["coulomb-residual", "--n", "3", "--L", "1"],
], ids=lambda argv: argv[0])
def test_float_subcommands_run_in_a_fresh_process(argv):
    proc = fresh_python("-c", DATACLASSES_BLOCKED_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout
