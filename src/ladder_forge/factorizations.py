"""Infeld-Hull factorization families B, C, F and the maps between them.

Each family is defined by a triple ``(r(x, m), k(x, m), L(m))`` such that the
first-order operators ``H+ = +D + k`` and ``H- = -D + k`` satisfy the exact
factorization identities

    H-(m) H+(m) + L(m) = -D**2 - r(x, m)
    H+(m) H-(m) + L(m) = -D**2 - r(x, m-1)

with ``D = d/dx``.  The triples handled here:

    type B:  r = -d**2 exp(2ax) + 2ad(m+c+1/2) exp(ax)
             k = d exp(ax) - (m+c) a            L = -a**2 (m+c)**2
    type C:  r = -(m+c)(m+c+1)/x**2 - b**2 x**2 / 4 + b(m-c)
             k = (m+c)/x + b x / 2              L = -2bm + b/2
    type F:  r = -2q/x - m(m+1)/x**2
             k = m/x + q/m                      L = -q**2 / m**2

Bound-state eigenvalues follow the class rules: class I (types C, F) takes
``lambda = L(l+1)``, class II (type B) takes ``lambda = L(l)``.

``rkl`` returns ``r(x, m)`` and ``k(x, m)`` as multiplication operators of
the operator algebra, so each identity is checked as an exactly zero
operator.  Types F and C take the radial symbol ``r`` for ``x``.  Type B
contains ``exp(ax)``, so its r-function, k-function and ``D`` all live in the
representation ``r = exp(ax)``: there ``exp(ax)`` is ``r``, ``exp(2ax)`` is
``r**2`` and ``d/dx = a * r * d/dr``, so both functions are polynomial in
``r`` and the factorization identities hold verbatim.

The cross-family maps solve for the parameters of a target family whose
shifted ladder operators reproduce the source family's, splitting the
eigenvalue label ``l`` and the potential label ``m`` into half-integer
combinations; ``scale_s`` records the positive rational value that the formal
symbol ``s`` (that is, ``sqrt(-lambda)``) takes under the map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import opalgebra
from .opalgebra import OperatorExpr, Rational, exact, exact_int, r_power


@dataclass(frozen=True)
class TypeB:
    """Exponential family; requires a > 0 and d > 0."""

    a: Fraction
    c: Fraction
    d: Fraction
    family = "B"

    def __post_init__(self):
        object.__setattr__(self, "a", exact(self.a, "a"))
        object.__setattr__(self, "c", exact(self.c, "c"))
        object.__setattr__(self, "d", exact(self.d, "d"))
        if self.a <= 0 or self.d <= 0:
            raise ValueError("type B requires a > 0 and d > 0")


@dataclass(frozen=True)
class TypeC:
    """Radial oscillator-like family; class I requires b < 0."""

    b: Fraction
    c: Fraction
    family = "C"

    def __post_init__(self):
        object.__setattr__(self, "b", exact(self.b, "b"))
        object.__setattr__(self, "c", exact(self.c, "c"))
        if self.b >= 0:
            raise ValueError("type C (class I) requires b < 0")


@dataclass(frozen=True)
class TypeF:
    """Coulomb-like family; requires q < 0."""

    q: Fraction
    family = "F"

    def __post_init__(self):
        object.__setattr__(self, "q", exact(self.q, "q"))
        if self.q >= 0:
            raise ValueError("type F requires q < 0")


FamilyParams = Union[TypeB, TypeC, TypeF]


def _r_operator(params: FamilyParams, m: Fraction) -> OperatorExpr:
    """r(x, m) as a multiplication operator, in the representation of ladder()."""
    # kept apart from rkl: the second factorization identity needs r at
    # m - 1, which is 0 for type F at m = 1, where k and L are undefined
    if isinstance(params, TypeF):
        return -2 * params.q * r_power(-1) - m * (m + 1) * r_power(-2)
    if isinstance(params, TypeC):
        b, c = params.b, params.c
        return -(m + c) * (m + c + 1) * r_power(-2) - b * b / 4 * r_power(2) + b * (m - c)
    if isinstance(params, TypeB):
        # exp(a x) is the radial symbol r, so exp(2 a x) is r**2
        a, c, d = params.a, params.c, params.d
        return -d * d * r_power(2) + 2 * a * d * (m + c + Fraction(1, 2)) * r_power(1)
    raise TypeError(f"unknown family parameters {params!r}")


def rkl(params: FamilyParams, m: Rational) -> tuple[OperatorExpr, OperatorExpr, Fraction]:
    """Defining triple (r, k, L) of a family at label m.

    r and k are multiplication operators in the representation that
    ladder() uses; L is an exact rational.
    """
    m = exact(m, "m")
    if isinstance(params, TypeF) and m == 0:
        raise ValueError("type F requires m != 0")
    r_op = _r_operator(params, m)
    if isinstance(params, TypeF):
        q = params.q
        return r_op, m * r_power(-1) + q / m, -(q * q) / (m * m)
    if isinstance(params, TypeC):
        b, c = params.b, params.c
        return r_op, (m + c) * r_power(-1) + b / 2 * r_power(1), -2 * b * m + b / 2
    a, c, d = params.a, params.c, params.d
    return r_op, d * r_power(1) - (m + c) * a, -a * a * (m + c) * (m + c)


def _d_operator(params: FamilyParams) -> OperatorExpr:
    if isinstance(params, TypeB):
        return params.a * opalgebra.r_half_power(2) * opalgebra.deriv("r")
    return opalgebra.deriv("r")


def ladder(params: FamilyParams, m: Rational) -> tuple[OperatorExpr, OperatorExpr]:
    """Ladder pair (H+, H-) = (+D + k, -D + k) at label m.

    Types F and C use the radial symbol directly for the family coordinate;
    type B is returned in the exponential representation r = exp(a x), where
    D = a * r * d/dr.
    """
    k_op = rkl(params, m)[1]
    d_op = _d_operator(params)
    return d_op + k_op, -d_op + k_op


def factorization_residuals(params: FamilyParams, m: Rational) -> tuple[OperatorExpr, OperatorExpr]:
    """Residuals of the two factorization identities at label m; both zero.

    The identities moved to one side: H- H+ + L + D**2 + r(x, m) and
    H+ H- + L + D**2 + r(x, m-1).
    """
    r_op, k_op, level = rkl(params, m)
    d_op = _d_operator(params)
    plus, minus = d_op + k_op, -d_op + k_op
    d_sq = d_op * d_op
    res_up = minus * plus + level + d_sq + r_op
    res_down = plus * minus + level + d_sq + _r_operator(params, m - 1)
    return res_up, res_down


def eigenvalue(params: FamilyParams, l: Rational) -> Fraction:
    """Bound-state eigenvalue at label l: L(l+1) for class I, L(l) for class II."""
    l = exact(l, "l")
    if isinstance(params, TypeF):
        if l < 0:
            raise ValueError("class I requires l >= 0")
        return -(params.q * params.q) / ((l + 1) * (l + 1))
    if isinstance(params, TypeC):
        if l < 0:
            raise ValueError("class I requires l >= 0")
        return -params.b * (2 * l + Fraction(3, 2))
    return -params.a * params.a * (l + params.c) * (l + params.c)


@dataclass(frozen=True)
class TransformResult:
    """Solved target family plus the label relations of a cross-family map.

    ``quantum_map`` holds the affine label combinations fixed by the map, as
    exact rationals; ``scale_s`` is the value taken by the formal symbol s.
    """

    source: FamilyParams
    target: FamilyParams
    quantum_map: dict[str, Fraction]
    epsilon: int | None = None
    scale_s: Fraction = Fraction(0)


def _check_fl_labels(l: Fraction, m: Fraction) -> None:
    if l < 0 or m < 0 or m > l:
        raise ValueError("type F labels require 0 <= m <= l")


def _check_eps(eps: int) -> None:
    if exact_int(eps, "eps") not in (1, -1):
        raise ValueError("eps must be +1 or -1")


def f_to_b(q: Rational, l: Rational, m: Rational, a: Rational = 1) -> TransformResult:
    """Map the Coulomb-like family at (q, l, m) onto a type B family.

    The target scale a is free; the offset convention c = 0 is used, so the
    label sums m+c and l+c below are realized with c = 0.
    """
    source = TypeF(q)
    l, m, a = exact(l, "l"), exact(m, "m"), exact(a, "a")
    _check_fl_labels(l, m)
    if a <= 0:
        raise ValueError("type B requires a > 0")
    scale = -source.q / (l + 1)
    target = TypeB(a=a, c=Fraction(0), d=a * scale)
    half = Fraction(1, 2)
    quantum_map = {"mbar+cbar": l + half, "lbar+cbar": m + half}
    return TransformResult(source, target, quantum_map, None, scale)


def f_to_c(q: Rational, l: Rational, m: Rational, eps: int) -> TransformResult:
    """Map the Coulomb-like family at (q, l, m) onto a type C family.

    The sign eps selects one of the two label branches; the offset convention
    c = 0 is used for the target.
    """
    source = TypeF(q)
    l, m = exact(l, "l"), exact(m, "m")
    _check_fl_labels(l, m)
    _check_eps(eps)
    half = Fraction(1, 2)
    b = source.q / (l + 1)
    target = TypeC(b=b, c=Fraction(0))
    quantum_map = {
        "mhat+chat": eps * (2 * m + 1) - half,
        "lhat+chat": l + eps * (m + half),
    }
    return TransformResult(source, target, quantum_map, eps, -b)


def b_to_c(params: TypeB, lbar: Rational, mbar: Rational, eps: int) -> TransformResult:
    """Map a type B family at labels (lbar, mbar) onto a type C family."""
    if not isinstance(params, TypeB):
        raise TypeError("b_to_c expects type B parameters")
    lbar, mbar = exact(lbar, "lbar"), exact(mbar, "mbar")
    _check_eps(eps)
    half = Fraction(1, 2)
    scale = params.d / params.a
    target = TypeC(b=-scale, c=Fraction(0))
    quantum_map = {
        "mhat+chat": 2 * eps * (lbar + params.c) - half,
        "lhat+chat": mbar + params.c + eps * (lbar + params.c) - half,
    }
    return TransformResult(params, target, quantum_map, eps, scale)


def shifted_charge(q: Rational, label: Rational, direction: int, algebra: str) -> Fraction:
    """Coupling rescaling that accompanies one ladder step.

    ``label`` is the su(1,1) principal label t, or mu+nu+1 for the Weyl pairs;
    the shifted coupling is q * (label +- 1) / label.
    """
    if algebra not in ("su11", "weyl"):
        raise ValueError("algebra must be 'su11' or 'weyl'")
    if exact_int(direction, "direction") not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    q, label = exact(q, "q"), exact(label, "label")
    if label < 1:
        raise ValueError("label must be at least 1 (zero labels are not shiftable)")
    return q * (label + direction) / label
