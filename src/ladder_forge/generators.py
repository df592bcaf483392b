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

Each generator is an Infeld-Hull family ladder of ``factorizations`` at the
formal scale s: a member +-D + k(m + c) whose family label m + c is replaced
by a number operator (T0, or N -+ 1), with the phase and, for the Weyl pairs,
u attached: T+- = exp(+-i*eta) (-+D + k(T0)) and A+- = u exp(+-i*alpha)
(+-D + k(N -+ 1)).  At scalar labels the families give the transformed ladders:

* ``tilde``, type B (a = 1, c = 0, d = s) in r = exp(x), D = r d/dr, at
  m + c = l + 1 and l: H~+-(l) = +-r d/dr + s r - (l + 1/2 +- 1/2).
* ``check1``, type C (b = -s, c = 0) in y = 2 sqrt(r), D = sqrt(r) d/dr, at
  m + c = 2m and 2m + 1: Hv1+-(l, m) = sqrt(r) (+-d/dr + (2m + 1/2 -+ 1/2)/(2r)
  - s), shifting (l, m) by (+-1/2, -+1/2).
* ``check2`` Hv2+-(l, m) = Hv1+-(l, -m - 1), shifting (l, m) by (+-1/2, +-1/2).

B+- and check2 are the alpha <-> beta mirrors of A+- and check1: the exchange
flips N, and swaps mu = l - m and nu = l + m + 1, which is m -> -m - 1.  The
number operators are one expression, ``_number``: T0 for tilde, N - direction
for check1 and, with N -> -N, -N - direction for check2.  Fed T0 and N it gives
the operator, fed their values l + 1 and 2m + 1 on (l, m) the number.

``ALGEBRAS`` is the one table of the three algebras, su11, weyl and sp4: each
name maps to its generators, its commutation table and its closure dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from . import factorizations as fz
from . import opalgebra
from .opalgebra import ClosureReport, OperatorExpr, Rational, exact


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
def build_T() -> Mapping[str, OperatorExpr]:
    """The su(1,1) generators T0, T+, T-, built once and read-only."""
    return MappingProxyType({"T0": _number_label("tilde", 1)[1], "Tplus": _generator("tilde", 1),
                             "Tminus": _generator("tilde", -1)})


@cache
def build_AB() -> Mapping[str, OperatorExpr]:
    """The Heisenberg-Weyl pairs A+- and their alpha <-> beta mirrors B+-, built once and read-only."""
    a_plus, a_minus = _generator("check1", 1), _generator("check1", -1)
    b_plus, b_minus = opalgebra.swap_alpha_beta(a_plus), opalgebra.swap_alpha_beta(a_minus)
    return MappingProxyType({"Aplus": a_plus, "Aminus": a_minus, "Bplus": b_plus, "Bminus": b_minus})


@cache
def casimir() -> tuple[OperatorExpr, AlgebraReport]:
    """Casimir -T+ T- + T0(T0 - 1) and its verified normal form, built once."""
    t = build_T()
    op = -(t["Tplus"] * t["Tminus"]) + t["T0"] * t["T0"] - t["T0"]
    r = opalgebra.r_half_power(2)
    normal_form = (
        r * r * opalgebra.deriv("r", 2)
        - 2 * opalgebra.imag() * opalgebra.s_sym() * r * opalgebra.deriv("eta")
        - opalgebra.s_sym(2) * r * r
    )
    return op, _report("casimir-normal-form", op, normal_form)


def su11_reports() -> list[AlgebraReport]:
    t = build_T()
    comm = opalgebra.commutator
    return [
        _report("[T0,T+] == T+", comm(t["T0"], t["Tplus"]), t["Tplus"]),
        _report("[T0,T-] == -T-", comm(t["T0"], t["Tminus"]), -t["Tminus"]),
        _report("[T+,T-] == -2*T0", comm(t["Tplus"], t["Tminus"]), -2 * t["T0"]),
    ]


def weyl_reports() -> list[AlgebraReport]:
    g = build_AB()
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
    t = build_T()
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
    g = build_AB()
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


class Algebra(NamedTuple):
    """One of the paper's algebras: its generators, commutation table and closure dimension."""

    generators: Callable[[], Mapping[str, OperatorExpr]]
    reports: Callable[[], list[AlgebraReport]]
    dimension: int


# the lambdas look the builders up when called, so a wrapped module attribute is the one that runs
ALGEBRAS: Mapping[str, Algebra] = MappingProxyType({
    "su11": Algebra(lambda: build_T(), lambda: su11_reports(), 3),
    "weyl": Algebra(lambda: build_AB(), lambda: weyl_reports(), 5),  # [A-, A+] brings in the identity
    "sp4": Algebra(lambda: sp4_bilinears(), lambda: [], 10),
})


def closure_report(which: str) -> ClosureReport:
    """Span closure of the named algebra's generators under commutators."""
    algebra = ALGEBRAS.get(which)
    if algebra is None:
        raise ValueError(f"which must be one of {', '.join(map(repr, ALGEBRAS))}, got {which!r}")
    return opalgebra.closure_check(list(algebra.generators().values()), algebra.dimension + 4)


def _k(ladder: str, label: OperatorExpr | Fraction, scale: OperatorExpr | int) -> OperatorExpr:
    """k at family label ``label`` and ``scale`` of the family behind ``ladder``."""
    return fz.type_b_k(label, scale) if ladder == "tilde" else fz.type_c_k(label, -scale, fz.Y)


def _family_member(ladder: str, sign: int, label: OperatorExpr | Fraction) -> OperatorExpr:
    """The member sign*D + k of the family behind ``ladder`` at family label ``label``, at scale s."""
    d_op = fz.R_DR if ladder == "tilde" else fz.D_Y
    return opalgebra.linear_sum(((d_op, sign), (_k(ladder, label, opalgebra.s_sym()), 1)))


def transformed_ladders(kind: str, l: Rational, m: Rational) -> tuple[OperatorExpr, OperatorExpr]:
    """Ladder pair (plus, minus) for 'tilde', 'check1' or 'check2' at (l, m).

    The tilde members sit at family labels l + 1 and l, the check1 members at
    2m and 2m + 1.  check2 is the mu <-> nu mirror of check1: the check1 pair
    at m -> -m - 1, so that 2m + 1 = nu - mu becomes mu - nu.
    """
    l, m = exact(l, "l"), exact(m, "m")
    if kind == "tilde":
        return _family_member(kind, 1, l + 1), _family_member(kind, -1, l)
    if kind == "check2":
        m = -m - 1
    elif kind != "check1":
        raise ValueError("kind must be 'tilde', 'check1' or 'check2'")
    return _family_member(kind, 1, 2 * m), _family_member(kind, -1, 2 * m + 1)


def _number(ladder: str, direction: int, t0: OperatorExpr | Fraction, n: OperatorExpr | Fraction):
    """The number operator that replaces the family label of the generator stepping ``direction``:
    T0 for tilde, N - direction for check1 and -N - direction for its mirror check2.  Given the
    operators T0 and N it is that operator; given their values l + 1 and 2m + 1 on (l, m), its value."""
    return t0 if ladder == "tilde" else (n if ladder == "check1" else -n) - direction


@cache
def _number_label(ladder: str, direction: int) -> tuple[str, OperatorExpr, OperatorExpr]:
    """The phase axis of the generator stepping ``direction``, its ``_number`` operator and its k at scale 0."""
    i, d = opalgebra.imag(), opalgebra.deriv
    number = _number(ladder, direction, -(i * d("eta")), i * (d("alpha") - d("beta")))
    axis = {"tilde": "eta", "check1": "alpha"}.get(ladder, "beta")
    return axis, number, _k(ladder, number, 0)


def _uses_minus(ladder: str, direction: int) -> bool:
    """Whether the generator stepping ``direction`` is a minus member: tilde's raises, a check ladder's lowers."""
    return (direction < 0) != (ladder == "tilde")


def _generator(ladder: str, direction: int, member: OperatorExpr | None = None) -> OperatorExpr:
    """The generator stepping ``direction``: the phase, u for the Weyl pairs, and ``member``,
    by default the family member with the number operator as its label."""
    axis, number, _ = _number_label(ladder, direction)
    if member is None:
        member = _family_member(ladder, -1 if _uses_minus(ladder, direction) else 1, number)
    factors = (opalgebra.phase(axis, direction), member)
    return opalgebra.product(factors if ladder == "tilde" else (opalgebra.u_sym(), *factors))


@lru_cache(maxsize=64)
def step(op: OperatorExpr) -> tuple[int, int]:
    """The lattice step (dmu, dnu) = (ke + ka, ke + kb) of ``op`` on a bound state's weyl labels, read off
    the one phase winding (ke, ka, kb) that all its atoms share; ``ValueError`` if their windings differ."""
    (ke, ka, kb), *others = {(mono.ke, mono.ka, mono.kb) for (mono, _, _), _ in op.terms()} or {(0, 0, 0)}
    if others:
        raise ValueError("operator mixes phase windings")
    return ke + ka, ke + kb


class Ladder(NamedTuple):
    """One ladder generator: where it lives and its action's sign; its step is ``step(self.operator())``."""

    kind: str  # the algebra, a key of ALGEBRAS
    member: str  # key in its generators
    ladder: str  # transformed ladder it is rebuilt from
    sign: int  # sign of the closed-form action coefficient

    def operator(self) -> OperatorExpr:
        return ALGEBRAS[self.kind].generators()[self.member]


LADDERS = {
    "T+": Ladder("su11", "Tplus", "tilde", -1),
    "T-": Ladder("su11", "Tminus", "tilde", -1),
    "A+": Ladder("weyl", "Aplus", "check1", 1),
    "A-": Ladder("weyl", "Aminus", "check1", 1),
    "B+": Ladder("weyl", "Bplus", "check2", -1),
    "B-": Ladder("weyl", "Bminus", "check2", -1),
}


def ladder_shift(kind: str, direction: int) -> tuple[Fraction, Fraction]:
    """Label shift (dl, dm) effected by one application of a ladder member.

    Read off the ``step`` (dmu, dnu) of the ``LADDERS`` generator of ``kind``
    stepping ``direction``, with mu = l - m and nu = l + m + 1: check1 steps
    mu, check2 steps nu, tilde steps both and so l alone.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    for lad in LADDERS.values():
        dmu, dnu = step(lad.operator())
        if lad.ladder == kind and (dmu + dnu) * direction > 0:
            return Fraction(dmu + dnu, 2), Fraction(dnu - dmu, 2)
    raise ValueError("kind must be 'tilde', 'check1' or 'check2'")


def reconstruction_reports(l: Rational, m: Rational) -> list[AlgebraReport]:
    """Rebuild T+-, A+-, B+- from the transformed ladders at labels (l, m).

    A plus member is taken at (l, m), a minus member at (l, m) moved by the
    generator's own step.  Its scalar family label is then replaced by the
    matching number operator, valued at the unmoved (l, m): l + 1 -> T0 for
    tilde, 2m + 1 - direction -> N - direction for check1 and
    -(2m + 1) - direction -> -N - direction for check2 (N reads nu - mu).
    k is affine in its label, so k(value) at scale 0 is taken off and
    k(number) put on; this rebuilds the generator only if the moved member's
    label is that value.  The phase factor and, for the Weyl pairs, the
    formal u prefactor are then attached.
    """
    l, m = exact(l, "l"), exact(m, "m")
    out = []
    for name, lad in LADDERS.items():
        direction = 1 if sum(step(lad.operator())) > 0 else -1
        use_minus = _uses_minus(lad.ladder, direction)
        dl, dm = ladder_shift(lad.ladder, direction) if use_minus else (0, 0)
        member = transformed_ladders(lad.ladder, l + dl, m + dm)[use_minus]
        value = _k(lad.ladder, _number(lad.ladder, direction, l + 1, 2 * m + 1), 0)
        member = opalgebra.linear_sum(((member, 1), (value, -1), (_number_label(lad.ladder, direction)[2], 1)))
        out.append(_report(f"{name} from {lad.ladder} ladder", _generator(lad.ladder, direction, member),
                           lad.operator()))
    return out
