"""Symmetry generators built from transformed factorization ladders.

The su(1,1) triple acts on functions of (r, eta):

    T0 = -i d/deta
    T+ = exp(+i*eta) * (-r d/dr + i d/deta + s r)
    T- = exp(-i*eta) * (+r d/dr + i d/deta + s r)

with [T0, T+-] = +-T+-, [T+, T-] = -2 T0 and Casimir

    C = -T+ T- + T0 (T0 - 1) = r**2 d2/dr2 - 2 i s r d/deta - s**2 r**2.

The two Heisenberg-Weyl pairs act on functions of (r, alpha, beta); writing
N = i d/dalpha - i d/dbeta and u = (2s)**(-1/2) kept formal,

    A+- = u exp(+-i*alpha) sqrt(r) [ +-d/dr + (N -+ 1)/(2r) - s ]
    B+- = u exp(+-i*beta)  sqrt(r) [ +-d/dr - (N +- 1)/(2r) - s ]

with [A-, A+] = [B-, B+] = 1 and vanishing cross commutators.  The ten
symmetrized bilinears in A+-, B+- close under commutation on a ten
dimensional Lie algebra, sp(4, R).

All generators arise from one-parameter families of first-order ladder
operators by substituting number operators for their integer labels:

* ``tilde``  H~+-(l)   = +-r d/dr + s r - (l + 1/2 +- 1/2), an eigenvalue
  preserving pair in the principal label; feeding l+1 -> -i d/deta into the
  opposite-sign member and attaching the eta phase reproduces T+-.
* ``check1`` Hv1+-(l, m) = sqrt(r) (+-d/dr + (2m + 1/2 -+ 1/2)/(2r) - s),
  shifting (l, m) by (+-1/2, -+1/2); with nu - mu - 1 = 2m fed by the angle
  number operators it reproduces A+- up to the u prefactor and alpha phase.
* ``check2`` Hv2+-(l, m) = sqrt(r) (+-d/dr - (2m + 3/2 +- 1/2)/(2r) - s),
  shifting (l, m) by (+-1/2, +-1/2); it reproduces B+- the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import opalgebra
from .opalgebra import ClosureReport, OperatorExpr, Rational, exact


@dataclass(frozen=True)
class GeneratorSet:
    """A named family of generators with formal s in the coefficients."""

    kind: str
    members: dict[str, OperatorExpr]


@dataclass(frozen=True)
class AlgebraReport:
    """One verified operator identity: lhs == rhs, residual lhs - rhs."""

    name: str
    lhs: OperatorExpr
    rhs: OperatorExpr
    residual: OperatorExpr
    passed: bool


def _report(name: str, lhs: OperatorExpr, rhs: OperatorExpr) -> AlgebraReport:
    residual = lhs - rhs
    return AlgebraReport(name, lhs, rhs, residual, residual.is_zero)


def build_T() -> GeneratorSet:
    """The su(1,1) generators T0, T+, T-."""
    r = opalgebra.r_half_power(2)
    dr = opalgebra.deriv("r")
    ideta = opalgebra.imag() * opalgebra.deriv("eta")
    sr = opalgebra.s_sym() * r
    members = {
        "T0": -ideta,
        "Tplus": opalgebra.phase("eta", 1) * (-(r * dr) + ideta + sr),
        "Tminus": opalgebra.phase("eta", -1) * ((r * dr) + ideta + sr),
    }
    return GeneratorSet("su11", members)


def _weyl_member(axis: str, sign: int, bracket_sign: int) -> OperatorExpr:
    number_op = opalgebra.imag() * opalgebra.deriv("alpha") - opalgebra.imag() * opalgebra.deriv("beta")
    inner = number_op - bracket_sign * sign * opalgebra.identity()
    core = (
        sign * opalgebra.deriv("r")
        + bracket_sign * Fraction(1, 2) * opalgebra.r_half_power(-2) * inner
        - opalgebra.s_sym()
    )
    return opalgebra.u_sym() * opalgebra.phase(axis, sign) * opalgebra.sqrt_r() * core


def build_AB() -> GeneratorSet:
    """The Heisenberg-Weyl pairs A+-, B+-."""
    members = {
        "Aplus": _weyl_member("alpha", 1, +1),
        "Aminus": _weyl_member("alpha", -1, +1),
        "Bplus": _weyl_member("beta", 1, -1),
        "Bminus": _weyl_member("beta", -1, -1),
    }
    return GeneratorSet("weyl", members)


def casimir() -> tuple[OperatorExpr, AlgebraReport]:
    """Casimir -T+ T- + T0(T0 - 1) and its verified normal form."""
    t = build_T().members
    op = -(t["Tplus"] * t["Tminus"]) + t["T0"] * t["T0"] - t["T0"]
    r = opalgebra.r_half_power(2)
    normal_form = (
        r * r * opalgebra.deriv("r", 2)
        - 2 * opalgebra.imag() * opalgebra.s_sym() * r * opalgebra.deriv("eta")
        - opalgebra.s_sym(2) * r * r
    )
    return op, _report("casimir-normal-form", op, normal_form)


def su11_reports() -> list[AlgebraReport]:
    t = build_T().members
    comm = opalgebra.commutator
    return [
        _report("[T0,T+] == T+", comm(t["T0"], t["Tplus"]), t["Tplus"]),
        _report("[T0,T-] == -T-", comm(t["T0"], t["Tminus"]), -t["Tminus"]),
        _report("[T+,T-] == -2*T0", comm(t["Tplus"], t["Tminus"]), -2 * t["T0"]),
    ]


def weyl_reports() -> list[AlgebraReport]:
    g = build_AB().members
    comm = opalgebra.commutator
    one = opalgebra.identity()
    zero = opalgebra.zero()
    return [
        _report("[A-,A+] == 1", comm(g["Aminus"], g["Aplus"]), one),
        _report("[B-,B+] == 1", comm(g["Bminus"], g["Bplus"]), one),
        _report("[A+,B+] == 0", comm(g["Aplus"], g["Bplus"]), zero),
        _report("[A+,B-] == 0", comm(g["Aplus"], g["Bminus"]), zero),
        _report("[A-,B+] == 0", comm(g["Aminus"], g["Bplus"]), zero),
        _report("[A-,B-] == 0", comm(g["Aminus"], g["Bminus"]), zero),
    ]


def casimir_reports() -> list[AlgebraReport]:
    op, normal = casimir()
    t = build_T().members
    comm = opalgebra.commutator
    zero = opalgebra.zero()
    return [
        normal,
        _report("[C,T0] == 0", comm(op, t["T0"]), zero),
        _report("[C,T+] == 0", comm(op, t["Tplus"]), zero),
        _report("[C,T-] == 0", comm(op, t["Tminus"]), zero),
    ]


def sp4_bilinears() -> dict[str, OperatorExpr]:
    """The ten symmetrized quadratics in the Weyl generators."""
    g = build_AB().members
    half = Fraction(1, 2)

    def sym(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
        return half * (x * y + y * x)

    return {
        "A+A+": g["Aplus"] * g["Aplus"],
        "A-A-": g["Aminus"] * g["Aminus"],
        "B+B+": g["Bplus"] * g["Bplus"],
        "B-B-": g["Bminus"] * g["Bminus"],
        "{A+,A-}/2": sym(g["Aplus"], g["Aminus"]),
        "{B+,B-}/2": sym(g["Bplus"], g["Bminus"]),
        "A+B+": g["Aplus"] * g["Bplus"],
        "A+B-": g["Aplus"] * g["Bminus"],
        "A-B+": g["Aminus"] * g["Bplus"],
        "A-B-": g["Aminus"] * g["Bminus"],
    }


_CLOSURE_EXPECTED = {"su11": 3, "weyl": 5, "sp4": 10}


def closure_report(which: str) -> ClosureReport:
    """Span closure of the named generator family under commutators."""
    if which == "su11":
        basis = list(build_T().members.values())
    elif which == "weyl":
        basis = list(build_AB().members.values()) + [opalgebra.identity()]
    elif which == "sp4":
        basis = list(sp4_bilinears().values())
    else:
        raise ValueError("which must be 'su11', 'weyl' or 'sp4'")
    return opalgebra.closure_check(basis, _CLOSURE_EXPECTED[which] + 4)


def expected_dimension(which: str) -> int:
    return _CLOSURE_EXPECTED[which]


def transformed_ladders(kind: str, l: Rational, m: Rational) -> tuple[OperatorExpr, OperatorExpr]:
    """Ladder pair (plus, minus) for 'tilde', 'check1' or 'check2' at (l, m)."""
    l, m = exact(l, "l"), exact(m, "m")
    r = opalgebra.r_half_power(2)
    dr = opalgebra.deriv("r")
    s = opalgebra.s_sym()
    if kind == "tilde":
        plus = r * dr + s * r - (l + 1) * opalgebra.identity()
        minus = -(r * dr) + s * r - l * opalgebra.identity()
        return plus, minus
    inv2r = Fraction(1, 2) * opalgebra.r_half_power(-2)
    if kind == "check1":
        scal_plus, scal_minus = 2 * m, 2 * m + 1
    elif kind == "check2":
        scal_plus, scal_minus = -(2 * m + 2), -(2 * m + 1)
    else:
        raise ValueError("kind must be 'tilde', 'check1' or 'check2'")
    plus = opalgebra.sqrt_r() * (dr + scal_plus * inv2r - s)
    minus = opalgebra.sqrt_r() * (-dr + scal_minus * inv2r - s)
    return plus, minus


class Ladder(NamedTuple):
    """One ladder generator: where it lives and how it steps a bound state."""

    kind: str  # generator set, "su11" (build_T) or "weyl" (build_AB)
    member: str  # key in that set's members
    ladder: str  # transformed ladder it is rebuilt from
    step: tuple[int, int]  # (dmu, dnu) on the weyl labels of a bound state
    sign: int  # sign of the closed-form action coefficient

    def operator(self) -> OperatorExpr:
        return (build_T() if self.kind == "su11" else build_AB()).members[self.member]


LADDERS = {
    "T+": Ladder("su11", "Tplus", "tilde", (1, 1), -1),
    "T-": Ladder("su11", "Tminus", "tilde", (-1, -1), -1),
    "A+": Ladder("weyl", "Aplus", "check1", (1, 0), 1),
    "A-": Ladder("weyl", "Aminus", "check1", (-1, 0), 1),
    "B+": Ladder("weyl", "Bplus", "check2", (0, 1), -1),
    "B-": Ladder("weyl", "Bminus", "check2", (0, -1), -1),
}


def ladder_shift(kind: str, direction: int) -> tuple[Fraction, Fraction]:
    """Label shift (dl, dm) effected by one application of a ladder member.

    Read off the ``LADDERS`` step (dmu, dnu) with mu = l - m and
    nu = l + m + 1: check1 steps mu, check2 steps nu, tilde steps both and
    so l alone.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    for lad in LADDERS.values():
        dmu, dnu = lad.step
        if lad.ladder == kind and (dmu + dnu) * direction > 0:
            return Fraction(dmu + dnu, 2), Fraction(dnu - dmu, 2)
    raise ValueError("kind must be 'tilde', 'check1' or 'check2'")


def reconstruction_reports(l: Rational, m: Rational) -> list[AlgebraReport]:
    """Rebuild T+-, A+-, B+- from the transformed ladders at labels (l, m).

    The scalar label inside each ladder is split off and replaced by the
    matching angle number operator: l+1 -> -i d/deta for tilde (applied to
    the opposite-sign member), and nu - mu = 2m+1 -> -i d/dbeta + i d/dalpha
    for check1/check2.  The phase factor and, for the Weyl pairs, the formal
    u prefactor are then attached.
    """
    l, m = exact(l, "l"), exact(m, "m")
    t = build_T().members
    g = build_AB().members
    ideta = opalgebra.imag() * opalgebra.deriv("eta")
    number_op = opalgebra.imag() * opalgebra.deriv("alpha") - opalgebra.imag() * opalgebra.deriv("beta")
    half_inv_sqrt = Fraction(1, 2) * opalgebra.r_half_power(-1)
    u = opalgebra.u_sym()
    out = []
    for sign, name in ((1, "T+"), (-1, "T-")):
        tilde = transformed_ladders("tilde", l + Fraction(1, 2) + sign * Fraction(1, 2), 0)
        member = tilde[1] if sign > 0 else tilde[0]
        rebuilt = opalgebra.phase("eta", sign) * (member + (l + 1) * opalgebra.identity() + ideta)
        target = t["Tplus"] if sign > 0 else t["Tminus"]
        out.append(_report(f"{name} from tilde ladder", rebuilt, target))
    for sign, name in ((1, "A+"), (-1, "A-")):
        lad = transformed_ladders("check1", l - Fraction(1, 4) + sign * Fraction(1, 4),
                                  m + Fraction(1, 4) - sign * Fraction(1, 4))
        member = lad[0] if sign > 0 else lad[1]
        rebuilt = u * opalgebra.phase("alpha", sign) * (
            member - (2 * m + 1) * half_inv_sqrt + half_inv_sqrt * number_op
        )
        target = g["Aplus"] if sign > 0 else g["Aminus"]
        out.append(_report(f"{name} from check1 ladder", rebuilt, target))
    for sign, name in ((1, "B+"), (-1, "B-")):
        lad = transformed_ladders("check2", l - Fraction(1, 4) + sign * Fraction(1, 4),
                                  m - Fraction(1, 4) + sign * Fraction(1, 4))
        member = lad[0] if sign > 0 else lad[1]
        rebuilt = u * opalgebra.phase("beta", sign) * (
            member + (2 * m + 1) * half_inv_sqrt - half_inv_sqrt * number_op
        )
        target = g["Bplus"] if sign > 0 else g["Bminus"]
        out.append(_report(f"{name} from check2 ladder", rebuilt, target))
    return out
