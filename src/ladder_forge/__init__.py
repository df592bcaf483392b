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
  confirmation of the closed-form generator actions.

``cli`` exposes the same checks as a command line tool.
"""

from .coulomb import (
    QuantumState,
    action_coefficient,
    make_state,
    state_munu,
    state_tm,
)
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
