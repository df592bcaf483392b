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

One dispatch, ``_family``, states each family's D, r, k and L once; ``rkl``,
``ladder``, ``factorization_residuals`` and ``eigenvalue`` read it.  r is a
function of the label, evaluated at m and at m - 1: for type F at m = 1 that
is r(x, 0), where k and L are undefined.  Bound-state eigenvalues follow the
class rules: class I (types C, F) takes ``lambda = L(l+1)``, class II (type B)
takes ``lambda = L(l)``.

r and k are multiplication operators, each stated once as weighted terms and
summed in one ``linear_sum``, as is each ladder member and residual, so each
identity is checked as an exactly zero operator.  A weight is a rational, or an
operator (a label or scale of ``type_b_k`` or ``type_c_k``), which alone takes a
product.  Types F and C take the radial symbol ``r`` for ``x``.  Type B lives in
``r = exp(ax)``: there ``exp(2ax)`` is ``r**2`` and ``d/dx = a * r * d/dr``, so
its r and k are polynomial in ``r``.  Type C also lives in ``y = 2 sqrt(r)``:
there ``Y`` holds y and 1/y, ``y**n`` is ``2**n r**(n/2)`` and
``D_Y = d/dy = sqrt(r) d/dr``.

The cross-family maps solve for the parameters of a target family whose
shifted ladder operators reproduce the source family's, splitting the
eigenvalue label ``l`` and the potential label ``m`` into half-integer
combinations; ``scale_s`` records the positive rational value that the formal
symbol ``s`` (that is, ``sqrt(-lambda)``) takes under the map.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from . import opalgebra
from .opalgebra import OperatorExpr, Rational, Record, exact, exact_int, r_power


class TypeB(Record):
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


class TypeC(Record):
    """Radial oscillator-like family; class I requires b < 0."""

    b: Fraction
    c: Fraction
    family = "C"

    def __post_init__(self):
        object.__setattr__(self, "b", exact(self.b, "b"))
        object.__setattr__(self, "c", exact(self.c, "c"))
        if self.b >= 0:
            raise ValueError("type C (class I) requires b < 0")


class TypeF(Record):
    """Coulomb-like family; requires q < 0."""

    q: Fraction
    family = "F"

    def __post_init__(self):
        object.__setattr__(self, "q", exact(self.q, "q"))
        if self.q >= 0:
            raise ValueError("type F requires q < 0")


FamilyParams = TypeB | TypeC | TypeF


R_DR = opalgebra.r_half_power(2) * opalgebra.deriv("r")  # d/dx of type B at a = 1, in r = exp(x)
# type C's coordinate y = 2 sqrt(r), as the multiplication operators (y, 1/y); d/dy is D_Y
Y = (2 * opalgebra.sqrt_r(), Fraction(1, 2) * opalgebra.r_half_power(-1))
D_Y = opalgebra.sqrt_r() * opalgebra.deriv("r")
_ONE = opalgebra.identity()
_HALF = Fraction(1, 2)


def _term(w: OperatorExpr | Rational, t: OperatorExpr, c: Rational = 1) -> tuple[OperatorExpr, Rational]:
    """c * w * t as a ``linear_sum`` pair: a rational weight w joins c, an operator one is the product w * t."""
    return (w * t, c) if isinstance(w, OperatorExpr) else (t, c * w)


def type_b_k(amc: OperatorExpr | Rational, d: OperatorExpr | Rational) -> OperatorExpr:
    """k of type B, d exp(ax) - a (m + c), in r = exp(ax), from ``amc`` = a (m + c); rationals or operators."""
    return opalgebra.linear_sum((_term(d, r_power(1)), _term(amc, _ONE, -1)))


def type_c_k(mc: OperatorExpr | Rational, b: OperatorExpr | Rational,
             x: tuple[OperatorExpr, OperatorExpr] = (r_power(1), r_power(-1))) -> OperatorExpr:
    """k of type C, (m + c)/x + b x / 2, with x the coordinate as (x, 1/x), r or Y; rationals or operators."""
    return opalgebra.linear_sum((_term(mc, x[1]), _term(b, x[0], _HALF)))


def _family(params: FamilyParams, m: Fraction) -> tuple[
        OperatorExpr, Callable[[Fraction], tuple], OperatorExpr, Fraction]:
    """D, r(x, .) as ``linear_sum`` pairs of the label, k(x, m) and L(m), in the representation of ladder()."""
    if isinstance(params, TypeF):
        if m == 0:
            raise ValueError("type F requires m != 0")
        q = params.q
        return (opalgebra.deriv("r"), lambda n: ((r_power(-1), -2 * q), (r_power(-2), -n * (n + 1))),
                opalgebra.linear_sum(((r_power(-1), m), (_ONE, q / m))), -(q * q) / (m * m))
    if isinstance(params, TypeC):
        b, c = params.b, params.c
        return (opalgebra.deriv("r"),
                lambda n: ((r_power(-2), -(n + c) * (n + c + 1)), (r_power(2), -b * b / 4), (_ONE, b * (n - c))),
                type_c_k(m + c, b), -2 * b * m + b / 2)
    if isinstance(params, TypeB):
        # exp(a x) is the radial symbol r, so exp(2 a x) is r**2 and d/dx is a r d/dr
        a, c, d = params.a, params.c, params.d
        return (a * R_DR, lambda n: ((r_power(2), -d * d), (r_power(1), 2 * a * d * (n + c + _HALF))),
                type_b_k(a * (m + c), d), -a * a * (m + c) * (m + c))
    raise TypeError(f"unknown family parameters {params!r}")


def rkl(params: FamilyParams, m: Rational) -> tuple[OperatorExpr, OperatorExpr, Fraction]:
    """Defining triple (r, k, L) of a family at label m.

    r and k are multiplication operators in the representation that
    ladder() uses; L is an exact rational.
    """
    m = exact(m, "m")
    _, r, k_op, level = _family(params, m)
    return opalgebra.linear_sum(r(m)), k_op, level


def ladder(params: FamilyParams, m: Rational) -> tuple[OperatorExpr, OperatorExpr]:
    """Ladder pair (H+, H-) = (+D + k, -D + k) at label m; type B in r = exp(a x), where D = a * r * d/dr."""
    d_op, _, k_op, _ = _family(params, exact(m, "m"))
    return d_op + k_op, -d_op + k_op


def factorization_residuals(params: FamilyParams, m: Rational) -> tuple[OperatorExpr, OperatorExpr]:
    """Residuals of the two factorization identities at label m; both zero.

    The identities moved to one side: H- H+ + L + D**2 + r(x, m) and
    H+ H- + L + D**2 + r(x, m-1).
    """
    m = exact(m, "m")
    d_op, r, k_op, level = _family(params, m)
    plus, minus = d_op + k_op, -d_op + k_op
    d_sq = d_op * d_op
    return tuple(opalgebra.linear_sum(((left * right, 1), (_ONE, level), (d_sq, 1), *r(n)))
                 for left, right, n in ((minus, plus, m), (plus, minus, m - 1)))


def eigenvalue(params: FamilyParams, l: Rational) -> Fraction:
    """Bound-state eigenvalue at label l: L(l+1) for class I, L(l) for class II."""
    l = exact(l, "l")
    if isinstance(params, TypeB):
        return _family(params, l)[3]
    if l < 0:
        raise ValueError("class I requires l >= 0")
    return _family(params, l + 1)[3]


class TransformResult(Record):
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


def _type_c_result(source: FamilyParams, scale: Fraction, eps: int,
                   mhat: Fraction, lhat: Fraction) -> TransformResult:
    """Type C target b = -scale with offset c = 0, and its label map."""
    target = TypeC(b=-scale, c=Fraction(0))
    return TransformResult(source, target, {"mhat+chat": mhat, "lhat+chat": lhat}, eps, scale)


def f_to_b(q: Rational, l: Rational, m: Rational, a: Rational = 1) -> TransformResult:
    """Map the Coulomb-like family at (q, l, m) onto a type B family.

    The target scale a is free; the offset convention c = 0 is used, so the
    label sums m+c and l+c below are realized with c = 0.
    """
    source = TypeF(q)
    l, m, a = exact(l, "l"), exact(m, "m"), exact(a, "a")
    _check_fl_labels(l, m)
    scale = -source.q / (l + 1)
    target = TypeB(a=a, c=Fraction(0), d=a * scale)
    quantum_map = {"mbar+cbar": l + _HALF, "lbar+cbar": m + _HALF}
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
    return _type_c_result(source, -source.q / (l + 1), eps,
                          mhat=eps * (2 * m + 1) - _HALF, lhat=l + eps * (m + _HALF))


def b_to_c(params: TypeB, lbar: Rational, mbar: Rational, eps: int) -> TransformResult:
    """Map a type B family at labels (lbar, mbar) onto a type C family."""
    if not isinstance(params, TypeB):
        raise TypeError("b_to_c expects type B parameters")
    lbar, mbar = exact(lbar, "lbar"), exact(mbar, "mbar")
    _check_eps(eps)
    return _type_c_result(params, params.d / params.a, eps,
                          mhat=2 * eps * (lbar + params.c) - _HALF,
                          lhat=mbar + params.c + eps * (lbar + params.c) - _HALF)


def shifted_charge(q: Rational, label: Rational, direction: int) -> Fraction:
    """Coupling rescaling that accompanies one ladder step.

    ``label`` is the su(1,1) principal label t, or mu+nu+1 for the Weyl pairs;
    the shifted coupling is q * (label +- 1) / label.
    """
    if exact_int(direction, "direction") not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    q, label = exact(q, "q"), exact(label, "label")
    if label < 1:
        raise ValueError("label must be at least 1 (zero labels are not shiftable)")
    return q * (label + direction) / label
