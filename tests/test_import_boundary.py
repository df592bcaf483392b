"""Each layer loads on first use; only the float layer loads numpy.

A bare ``import ladder_forge`` loads no submodule, and each name of
``__all__`` loads its home module, and what that imports, when first read.
Each subcommand loads only the layers it reads: ``parse`` and ``commutator``
run with ``generators`` and ``factorizations`` blocked, and every
``transform`` route with ``generators`` and ``opdsl`` blocked, so none of
them compiles the generator layer (5-9 ms of a fresh call without bytecode).
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


def blocked_cli(*modules: str) -> str:
    """A script that runs the CLI on its argv with each of ``modules`` blocked: None in
    sys.modules makes every import of that module, direct or transitive, raise."""
    return (f"import sys; sys.modules.update(dict.fromkeys({modules!r})); "
            "from ladder_forge import cli; sys.exit(cli.main(sys.argv[1:]))")


BLOCKED_CLI = blocked_cli("numpy", "dataclasses", "inspect", "typing")
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
# the layers each subcommand must not load, by subcommand
UNREAD_LAYERS = {"parse": ("ladder_forge.generators", "ladder_forge.factorizations"),
                 "commutator": ("ladder_forge.generators", "ladder_forge.factorizations"),
                 "transform": ("ladder_forge.generators", "ladder_forge.opdsl")}
# each name of __all__ but __version__ by home module, each home after the modules it imports
HOMES = {
    "opalgebra": ("OperatorExpr", "commutator"),
    "factorizations": ("TypeB", "TypeC", "TypeF", "b_to_c", "f_to_b", "f_to_c"),
    "opdsl": ("parse", "render"),
    "generators": ("build_AB", "build_T", "casimir"),
    "coulomb": ("QuantumState", "action_coefficient", "make_state", "state_munu", "state_tm"),
}


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


@pytest.mark.parametrize("argv", [argv for argv in ALGEBRA_ARGVS if argv[0] in UNREAD_LAYERS],
                         ids=lambda argv: "-".join(argv[:2] if argv[0] == "transform" else argv[:1]))
def test_subcommand_runs_without_the_layers_it_does_not_read(argv):
    proc = fresh_python("-c", blocked_cli(*UNREAD_LAYERS[argv[0]]), *argv)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout


def test_the_block_stops_the_float_layer():
    proc = fresh_python("-c", BLOCKED_CLI, "coulomb-residual", "--n", "3", "--L", "1")
    assert proc.returncode == 1
    assert "import of numpy halted" in proc.stderr


def test_bare_import_loads_no_numpy():
    proc = fresh_python("-c", "import sys, ladder_forge; sys.exit('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_bare_import_loads_no_layer():
    proc = fresh_python("-c", "import sys, ladder_forge; "
                              "sys.exit(' '.join(m for m in sys.modules if m.startswith('ladder_forge.')) or None)")
    assert proc.returncode == 0, proc.stderr


def test_float_names_load_on_first_use():
    script = f"HOMES = {HOMES!r}\n" + """
import sys
import ladder_forge
for home, names in HOMES.items():  # a home is loaded only once one of its names is read
    module = 'ladder_forge.' + home
    assert module not in sys.modules and 'numpy' not in sys.modules, home
    for name in names:
        assert getattr(ladder_forge, name) is getattr(sys.modules[module], name), name
assert set(ladder_forge.__all__) == {'__version__', *(name for names in HOMES.values() for name in names)}
from ladder_forge import state_tm
assert 'numpy' in sys.modules
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
