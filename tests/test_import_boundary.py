"""Each layer loads on first use, and numpy at the first float check.

A bare ``import ladder_forge`` loads no submodule, and each name of
``__all__`` loads its home module, and what that imports, when first read.
Importing ``coulomb`` loads no numpy: states, their exact properties and the
exact ladder steps run with numpy blocked, and the first quadrature, profile,
action or residual imports it, in whichever thread comes first.
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
    assert module not in sys.modules, home
    for name in names:
        assert getattr(ladder_forge, name) is getattr(sys.modules[module], name), name
assert set(ladder_forge.__all__) == {'__version__', *(name for names in HOMES.values() for name in names)}
from ladder_forge import state_tm
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
assert 'numpy' not in sys.modules  # every name read and a state built: numpy waits for a float check
assert ladder_forge.coulomb.normalization_residual(state_tm(2, 1)) < 1e-12
assert 'numpy' in sys.modules and ladder_forge.coulomb.np is sys.modules['numpy']
"""
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_exact_state_work_runs_with_numpy_blocked():
    # states, their exact properties and the exact ladder steps read no numpy; the first float
    # check raises numpy's own ImportError
    script = """
import math, sys
sys.modules['numpy'] = None
from fractions import Fraction
from ladder_forge import coulomb
state = coulomb.state_tm(2, 1)
assert state.energy == Fraction(-1, 8) and state.munu == (0, 3)
assert coulomb.state_munu(0, 3).munu == state.munu
assert coulomb.make_state('weyl', (0, 3), 2) == coulomb.QuantumState('weyl', (0, 3), Fraction(2))
assert coulomb.action_radicand(state, 'T+') == (-1, 6)
assert coulomb.action_coefficient(state, 'T+') == -math.sqrt(6)
assert coulomb.shifted_state(state, 'T+') == coulomb.state_tm(3, 1, Fraction(3, 2))
assert coulomb.shifted_state(state, 'T+').energy == state.energy
try:
    coulomb.normalization_residual(state)
except ImportError as exc:
    assert 'import of numpy halted' in str(exc), exc
else:
    raise AssertionError('a float check ran without numpy')
"""
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr


# four first float checks on different states, each printed as its repr, which reads back bit for bit
FIRST_CHECKS = """
import sys, threading
from ladder_forge import coulomb
calls = [(coulomb.normalization_residual, coulomb.state_tm(3, 1)),
         (coulomb.action_report, coulomb.state_tm(2, 0), 'T+'),
         (coulomb.normalization_residual, coulomb.state_munu(1, 4, 3)),
         (coulomb.action_report, coulomb.state_munu(0, 3), 'B-')]
assert 'numpy' not in sys.modules
results = [None] * len(calls)
if sys.argv[1] == 'threads':
    sys.setswitchinterval(1e-6)  # switch threads often, inside numpy's import too
    start = threading.Barrier(len(calls))

    def run(k):
        check, *args = calls[k]
        start.wait()  # every thread's first numpy read comes at once
        results[k] = check(*args)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
else:
    results = [check(*args) for check, *args in calls]
assert None not in results, results  # a thread that raised left its None
print(repr(results))
"""


def test_first_float_checks_in_four_threads_equal_a_serial_run():
    threaded, serial = (fresh_python("-c", FIRST_CHECKS, mode) for mode in ("threads", "serial"))
    assert threaded.returncode == 0 and not threaded.stderr, threaded.stderr
    assert serial.returncode == 0, serial.stderr
    assert threaded.stdout == serial.stdout


@pytest.mark.parametrize("argv", [
    ["coulomb-verify", "--t-max", "3", "--mu-max", "2", "--nu-max", "2"],
    ["coulomb-residual", "--n", "3", "--L", "1"],
], ids=lambda argv: argv[0])
def test_float_subcommands_run_in_a_fresh_process(argv):
    proc = fresh_python("-c", DATACLASSES_BLOCKED_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout
