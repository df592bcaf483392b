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
  numpy; it loads on first use of ``coulomb`` or the five names taken from it.

``cli`` exposes the same checks as a command line tool.
"""

import importlib

from .factorizations import TypeB, TypeC, TypeF, b_to_c, f_to_b, f_to_c
from .generators import build_AB, build_T, casimir
from .opalgebra import OperatorExpr, commutator
from .opdsl import parse, render

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


def __getattr__(name):  # the names of __all__ not bound above come from the float layer
    if name != "coulomb" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    coulomb = importlib.import_module(".coulomb", __name__)
    return coulomb if name == "coulomb" else getattr(coulomb, name)
