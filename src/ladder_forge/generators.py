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
* ``check2`` Hv2+-(l, m) = Hv1+-(l, -m - 1), shifting (l, m) by
  (+-1/2, +-1/2); it reproduces B+- the same way.

B+- and check2 are not stated on their own: each is the alpha <-> beta mirror
of A+- and check1.  The exchange flips N, and on the labels it swaps mu = l - m
and nu = l + m + 1, which is m -> -m - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import opalgebra
from .opalgebra import ClosureReport, OperatorExpr, Rational, exact


@dataclass(frozen=True)
class GeneratorSet:
    """A named family of generators with formal s in the coefficients.

    Each set is built once per process and shared, so ``members`` is read-only.
    """

    kind: str
    members: Mapping[str, OperatorExpr]


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


@cache
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
    return GeneratorSet("su11", MappingProxyType(members))


def _number_op() -> OperatorExpr:
    """N = i d/dalpha - i d/dbeta, the angle number operator of the Weyl pairs."""
    return opalgebra.imag() * opalgebra.deriv("alpha") - opalgebra.imag() * opalgebra.deriv("beta")


def _weyl_member(sign: int) -> OperatorExpr:
    inner = _number_op() - sign * opalgebra.identity()
    core = sign * opalgebra.deriv("r") + Fraction(1, 2) * opalgebra.r_half_power(-2) * inner - opalgebra.s_sym()
    return opalgebra.u_sym() * opalgebra.phase("alpha", sign) * opalgebra.sqrt_r() * core


@cache
def build_AB() -> GeneratorSet:
    """The Heisenberg-Weyl pairs A+-, and B+- as their alpha <-> beta mirrors."""
    a_plus, a_minus = _weyl_member(1), _weyl_member(-1)
    b_plus, b_minus = opalgebra.swap_alpha_beta(a_plus), opalgebra.swap_alpha_beta(a_minus)
    members = {"Aplus": a_plus, "Aminus": a_minus, "Bplus": b_plus, "Bminus": b_minus}
    return GeneratorSet("weyl", MappingProxyType(members))


@cache
def casimir() -> tuple[OperatorExpr, AlgebraReport]:
    """Casimir -T+ T- + T0(T0 - 1) and its verified normal form, built once."""
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
    t = build_T().members
    op, normal = casimir()
    comm = opalgebra.commutator
    zero = opalgebra.zero()
    return [
        normal,
        _report("[C,T0] == 0", comm(op, t["T0"]), zero),
        _report("[C,T+] == 0", comm(op, t["Tplus"]), zero),
        _report("[C,T-] == 0", comm(op, t["Tminus"]), zero),
    ]


@cache
def sp4_bilinears() -> Mapping[str, OperatorExpr]:
    """The ten symmetrized quadratics in the Weyl generators, built once and read-only."""
    g = build_AB().members
    half = Fraction(1, 2)

    def sym(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
        return half * (x * y + y * x)

    return MappingProxyType({
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
    })


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
    """Ladder pair (plus, minus) for 'tilde', 'check1' or 'check2' at (l, m).

    check2 is the mu <-> nu mirror of check1: the check1 pair at m -> -m - 1,
    so that 2m + 1 = nu - mu becomes mu - nu.
    """
    l, m = exact(l, "l"), exact(m, "m")
    r = opalgebra.r_half_power(2)
    dr = opalgebra.deriv("r")
    s = opalgebra.s_sym()
    if kind == "tilde":
        plus = r * dr + s * r - (l + 1) * opalgebra.identity()
        minus = -(r * dr) + s * r - l * opalgebra.identity()
        return plus, minus
    if kind == "check2":
        m = -m - 1
    elif kind != "check1":
        raise ValueError("kind must be 'tilde', 'check1' or 'check2'")
    inv2r = Fraction(1, 2) * opalgebra.r_half_power(-2)
    plus = opalgebra.sqrt_r() * (dr + 2 * m * inv2r - s)
    minus = opalgebra.sqrt_r() * (-dr + (2 * m + 1) * inv2r - s)
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
    for check1/check2.  A plus member is taken at (l, m), a minus member at
    (l, m) moved by the generator's own step.  The phase factor and, for the
    Weyl pairs, the formal u prefactor are then attached.
    """
    l, m = exact(l, "l"), exact(m, "m")
    half_inv_sqrt = Fraction(1, 2) * opalgebra.r_half_power(-1)
    weyl_label = half_inv_sqrt * _number_op()
    # ladder -> (phase axis, scalar label term of its members at (l, m), the term replacing it)
    labels = {
        "tilde": ("eta", -(l + 1), opalgebra.imag() * opalgebra.deriv("eta")),
        "check1": ("alpha", (2 * m + 1) * half_inv_sqrt, weyl_label),
        "check2": ("beta", -(2 * m + 1) * half_inv_sqrt, -weyl_label),
    }
    out = []
    for name, lad in LADDERS.items():
        direction = 1 if sum(lad.step) > 0 else -1
        axis, scalar_term, number_term = labels[lad.ladder]
        use_minus = (direction < 0) != (lad.ladder == "tilde")
        dl, dm = ladder_shift(lad.ladder, direction) if use_minus else (0, 0)
        member = transformed_ladders(lad.ladder, l + dl, m + dm)[use_minus]
        rebuilt = opalgebra.phase(axis, direction) * (member - scalar_term + number_term)
        if lad.kind == "weyl":
            rebuilt = opalgebra.u_sym() * rebuilt
        out.append(_report(f"{name} from {lad.ladder} ladder", rebuilt, lad.operator()))
    return out
