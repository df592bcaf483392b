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
``ladder``, ``factorization_residuals`` and ``eigenvalue`` read it.  r is
evaluated at m and at m - 1: for type F at m = 1 that is r(x, 0), where k and
L are undefined.  Bound-state eigenvalues follow the class rules: class I
(types C, F) takes ``lambda = L(l+1)``, class II (type B) takes ``lambda = L(l)``.

r and k are multiplication operators, each stated once as weighted terms and
summed in one ``linear_sum``, as is each ladder member and residual, so each
identity is checked as an exactly zero operator.  ``_family`` reads the
parameters and the label as integers over one denominator g, so each weight of
r and k is an integer over a power of g, and L(m) is its one ``Fraction``.
It is the one statement of each family: ``generators`` reads its kinds' D and
k off it, at the unit-scale targets of ``f_to_b`` and ``f_to_c``.  Types F and
C take the radial symbol ``r`` for ``x``.  Type B lives in ``r = exp(ax)``:
there ``exp(2ax)`` is ``r**2`` and ``d/dx = a * r * d/dr``, so its r and k are
polynomial in ``r``.  Type C's generators live in ``y = 2 sqrt(r)``, and
``_pull_back_y`` is the one statement of that change: ``x**n`` is
``2**n r**(n/2)`` and ``d/dx`` is ``d/dy = sqrt(r) d/dr``.  ``R_DR``, d/dr and
r's atoms (r, r**2, 1/r and 1/r**2) are module constants, built once, so a
warm check builds no atom.

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
from .opalgebra import OperatorExpr, Rational, Record, exact, exact_int


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


_D, _ONE = opalgebra.deriv("r"), opalgebra.identity()
_R, _R2, _R_INV, _R_INV2 = map(opalgebra.r_power, (1, 2, -1, -2))  # r, r**2, 1/r, 1/r**2
_K_ONE, _K_R, _K_R2, _K_INV, _K_INV2 = (opalgebra._form(op)[0] for op in (_ONE, _R, _R2, _R_INV, _R_INV2))  # keys
R_DR = _R * _D  # d/dx of type B at a = 1, in r = exp(x)
_HALF = Fraction(1, 2)


def _pull_back_y(op: OperatorExpr) -> OperatorExpr:
    """``op``, with type C's x read as r, in y = 2 sqrt(r): each x**n is 2**n r**(n/2) and d/dx is sqrt(r) d/dr,
    every other letter left as it stands.  A half-integer power of x has no image (it would need r**(1/4))."""
    d_y, parts = opalgebra.sqrt_r() * _D, []
    for (mono, sp, up), coefficient in op.terms():
        if mono.r2 % 2:
            raise ValueError(f"x**({mono.r2}/2) has no image in y = 2 sqrt(r)")
        rest = OperatorExpr({(mono._replace(r2=0, dr=0), sp, up): coefficient})
        parts.append((opalgebra.r_half_power(mono.r2 // 2) * rest * d_y**mono.dr, Fraction(2) ** (mono.r2 // 2)))
    return opalgebra.linear_sum(parts)


def _family(params: FamilyParams, m: Fraction) -> tuple[
        OperatorExpr, Callable[[int], tuple], OperatorExpr, Fraction]:
    """D, r(x, m - j) as ``linear_sum`` pairs of j, k(x, m) and L(m), each weight an atom form over a power of g."""
    if isinstance(params, TypeF):
        q, m, g = opalgebra._over(params.q, m)
        if m == 0:
            raise ValueError("type F requires m != 0")
        return (_D, lambda j: (((_K_INV, -2 * q, 0, g), 1), ((_K_INV2, -(n := m - j * g) * (n + g), 0, g * g), 1)),
                opalgebra.linear_sum((((_K_INV, m, 0, g), 1), ((_K_ONE, q if m > 0 else -q, 0, abs(m)), 1))),
                Fraction(-q * q, m * m))
    if isinstance(params, TypeC):
        b, c, m, g = opalgebra._over(params.b, params.c, m)  # below, n is the label m - j, plus c, over g
        return (_D, lambda j: (((_K_INV2, -(n := m - j * g + c) * (n + g), 0, g * g), 1),
                               ((_K_R2, -b * b, 0, 4 * g * g), 1), ((_K_ONE, b * (n - 2 * c), 0, g * g), 1)),
                opalgebra.linear_sum((((_K_INV, m + c, 0, g), 1), ((_K_R, b, 0, 2 * g), 1))),
                Fraction(b * (g - 4 * m), 2 * g * g))
    if isinstance(params, TypeB):
        # exp(a x) is the radial symbol r, so exp(2 a x) is r**2 and d/dx is a r d/dr
        a, c, d, m, g = opalgebra._over(params.a, params.c, params.d, m)
        return (params.a * R_DR,
                lambda j: (((_K_R2, -d * d, 0, g * g), 1), ((_K_R, a * d * (2 * (m - j * g + c) + g), 0, g**3), 1)),
                opalgebra.linear_sum((((_K_R, d, 0, g), 1), ((_K_ONE, -a * (m + c), 0, g * g), 1))),
                Fraction(-(a * (m + c)) ** 2, g**4))
    raise TypeError(f"unknown family parameters {params!r}")


def rkl(params: FamilyParams, m: Rational) -> tuple[OperatorExpr, OperatorExpr, Fraction]:
    """Defining triple (r, k, L) of a family at label m.

    r and k are multiplication operators in the representation that
    ladder() uses; L is an exact rational.
    """
    _, r, k_op, level = _family(params, exact(m, "m"))
    return opalgebra.linear_sum(r(0)), k_op, level


def ladder(params: FamilyParams, m: Rational) -> tuple[OperatorExpr, OperatorExpr]:
    """Ladder pair (H+, H-) = (+D + k, -D + k) at label m; type B in r = exp(a x), where D = a * r * d/dr."""
    d_op, _, k_op, _ = _family(params, exact(m, "m"))
    return d_op + k_op, -d_op + k_op


def factorization_residuals(params: FamilyParams, m: Rational) -> tuple[OperatorExpr, OperatorExpr]:
    """Residuals of the two factorization identities at label m; both zero.

    The identities moved to one side: H- H+ + L + D**2 + r(x, m) and
    H+ H- + L + D**2 + r(x, m-1).
    """
    d_op, r, k_op, level = _family(params, exact(m, "m"))
    plus, minus = d_op + k_op, -d_op + k_op
    d_sq = d_op * d_op
    return tuple(opalgebra.linear_sum(((left * right, 1), (_ONE, level), (d_sq, 1), *r(j)))
                 for left, right, j in ((minus, plus, 0), (plus, minus, 1)))


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


def _check_eps(eps: int) -> int:
    if (eps := exact_int(eps, "eps")) not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    return eps


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
    eps = _check_eps(eps)
    return _type_c_result(source, -source.q / (l + 1), eps,
                          mhat=eps * (2 * m + 1) - _HALF, lhat=l + eps * (m + _HALF))


def b_to_c(params: TypeB, lbar: Rational, mbar: Rational, eps: int) -> TransformResult:
    """Map a type B family at labels (lbar, mbar) onto a type C family."""
    if not isinstance(params, TypeB):
        raise TypeError("b_to_c expects type B parameters")
    lbar, mbar = exact(lbar, "lbar"), exact(mbar, "mbar")
    eps = _check_eps(eps)
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
