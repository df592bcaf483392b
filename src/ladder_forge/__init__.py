"""Exact ladder-operator algebra with numerical verification.

The package has three layers:

* ``opalgebra`` and ``opdsl``: an exact noncommutative operator algebra over
  Gaussian rationals extended by a formal scale s, each operator one flat map
  from atoms (monomial, s power, u parity) to coefficients, with a small
  expression language for building and printing operators.
* ``factorizations`` and ``generators``: ladder-operator families for three
  solvable radial problems, the maps between them, and the su(1,1) and
  Heisenberg-Weyl generators they assemble into, all checked symbolically.
* ``coulomb``: hydrogen-like bound states and quadrature-exact numerical
  confirmation of the closed-form generator actions.  Only this layer imports
  numpy, at its first float check.

``cli`` exposes the same checks as a command line tool.

Every layer loads on first use: a bare ``import ladder_forge`` loads no
submodule, and each name of ``__all__`` loads its home module (``_HOMES``), and
what that module imports, the first time it is read.  So ``parse`` loads
``opalgebra`` and ``opdsl``, ``f_to_b`` ``opalgebra`` and ``factorizations``,
and ``state_tm`` ``coulomb`` with the algebra layers.  No name loads numpy:
``coulomb`` imports it at its first float check.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "OperatorExpr",
    "QuantumState",
    "TypeB",
    "TypeC",
    "TypeF",
    "action_coefficient",
    "b_to_c",
    "build_AB",
    "build_T",
    "casimir",
    "commutator",
    "f_to_b",
    "f_to_c",
    "make_state",
    "parse",
    "render",
    "state_munu",
    "state_tm",
    "__version__",
]

# each submodule, and each name of __all__ but __version__, mapped to its home module
_HOMES = {name: home for home, names in {
    "opalgebra": "OperatorExpr commutator",
    "opdsl": "parse render",
    "factorizations": "TypeB TypeC TypeF b_to_c f_to_b f_to_c",
    "generators": "build_AB build_T casimir",
    "coulomb": "QuantumState action_coefficient make_state state_munu state_tm",
    "cli": "",
}.items() for name in (home, *names.split())}


def __getattr__(name):  # PEP 562: each name loads its home module on first use
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)
