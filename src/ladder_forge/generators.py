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
by a number operator, with the phase and, for the Weyl pairs, u attached.  At
scalar labels the members are the transformed ladders.  One record per kind,
``_KINDS``, read only through ``_kind``, states each, its family labels and
number operator as integer affine maps (``_Affine``).  Its D and k are read
off ``factorizations._family`` at the unit-scale target of ``f_to_b(-1, 0, 0)``
or ``f_to_c(-1, 0, 0, 1)``, type C's pulled back to y, with k split as
k(label, s) = label k(1, 0) + k(0, s), so that each member is one ``linear_sum``:

* ``tilde``, type B (a = 1, c = 0, d = s) in r = exp(x), D = r d/dr, at
  m + c = l + 1 and l: H~+-(l) = +-r d/dr + s r - (l + 1/2 +- 1/2).  Its
  number operator is T0: T+- = exp(+-i*eta) (-+D + k(T0)).
* ``check1``, type C (b = -s, c = 0) in y = 2 sqrt(r), D = sqrt(r) d/dr, at
  m + c = 2m and 2m + 1: Hv1+-(l, m) = sqrt(r) (+-d/dr + (2m + 1/2 -+ 1/2)/(2r)
  - s), shifting (l, m) by (+-1/2, -+1/2).  Its number operator is N -+ 1:
  A+- = u exp(+-i*alpha) (+-D + k(N -+ 1)).
* ``check2``, the alpha <-> beta mirror of check1, as B+- is of A+-: it swaps
  mu = l - m and nu = l + m + 1, that is m -> -m - 1, so Hv2+-(l, m) =
  Hv1+-(l, -m - 1), shifting (l, m) by (+-1/2, +-1/2), and flips N: -N -+ 1.

Each generator's number operator, k at it (``_number_label``) and prefix, the
phase and for the Weyl pairs u (``_prefix``, keyed by value), are built once: a
generator, or a reconstruction row, is that prefix times one member.

``ALGEBRAS`` is the one table of the three algebras, su11, weyl and sp4: each
name maps to its generators, its commutation table and its closure dimension.
Each commutator row's name, and each sp4 bilinear's, is the text read, once
per process, to build it: names T0, T+-, A+-, B+- and C (``casimir()``'s,
looked up when read), integers, [x,y], {x,y} = xy + yx, products by "*" or side
by side, "/n", "^n" (n > 0), parentheses, "+", "-" and "==".  A name ends in
its sign, so a number after a factor needs "*": "A+1" is an error at the 1.

``LADDERS`` names the six ladders and their action signs; ``step`` reads each
one's lattice step off its phase winding, and ``ladder_move`` states its exact
move on unfolded weyl labels, which ``coulomb`` only folds past nu == mu.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import cache, lru_cache
from operator import mul
from types import MappingProxyType

from . import factorizations as fz, opalgebra, opdsl
from .opalgebra import ClosureReport, OperatorExpr, Rational, Record, exact


class AlgebraReport(Record):
    """One verified operator identity: lhs == rhs, residual lhs - rhs."""

    name: str
    lhs: OperatorExpr
    rhs: OperatorExpr
    residual: OperatorExpr
    passed: bool


def _report(name: str, lhs: OperatorExpr, rhs: OperatorExpr) -> AlgebraReport:
    # equality is canonical, so lhs == rhs exactly when lhs - rhs is zero: only a failing row subtracts
    if lhs == rhs:
        return AlgebraReport(name, lhs, rhs, opalgebra.zero(), True)
    return AlgebraReport(name, lhs, rhs, lhs - rhs, False)


@cache
def build_T() -> Mapping[str, OperatorExpr]:
    """The su(1,1) generators T0, T+, T-, built once and read-only."""
    return MappingProxyType({"T0": _number_label("tilde", 1)[0], "Tplus": _generator("tilde", 1),
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
    op = _Reader("-T+T- + T0(T0 - 1)").side("")
    return op, _report("casimir-normal-form", op, opdsl.parse("r^2*d/dr^2 - 2*i*s*r*d/deta - s^2*r^2"))


def su11_reports() -> list[AlgebraReport]:
    return list(map(_identity, ("[T0,T+] == T+", "[T0,T-] == -T-", "[T+,T-] == -2*T0")))


def weyl_reports() -> list[AlgebraReport]:
    return list(map(_identity, ("[A-,A+] == 1", "[B-,B+] == 1", "[A+,B+] == 0", "[A+,B-] == 0", "[A-,B+] == 0",
                                "[A-,B-] == 0")))


def casimir_reports() -> list[AlgebraReport]:
    return [casimir()[1], *map(_identity, ("[C,T0] == 0", "[C,T+] == 0", "[C,T-] == 0"))]


@cache
def sp4_bilinears() -> Mapping[str, OperatorExpr]:
    """The ten symmetrized quadratics in the Weyl generators, each read from its name, built once and read-only."""
    return MappingProxyType({name: _Reader(name).side("") for name in (
        "A+A+", "A-A-", "B+B+", "B-B-", "{A+,A-}/2", "{B+,B-}/2", "A+B+", "A+B-", "A-B+", "A-B-")})


class Algebra(Record):
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
    algebra = ALGEBRAS.get(which) if isinstance(which, str) else None
    if algebra is None:
        raise ValueError(f"which must be one of {', '.join(map(repr, ALGEBRAS))}, got {which!r}")
    return opalgebra.closure_check(list(algebra.generators().values()), algebra.dimension + 4)


class _Affine(Record):
    """The integer affine map x -> c . x + constant of numbers or operators, or of numerators over ``den``."""

    coefficients: tuple[int, ...]
    constant: int

    def __call__(self, *xs, den: int = 1):
        return sum(map(mul, self.coefficients, xs)) + self.constant * den


class _Kind(Record):
    """One transformed ladder kind: its family's D, k(1, 0), k(0, s) and label maps (plus, minus) of (l, m), and its
    generators' phase axis, number map of (T0, N, direction), u, and the sign of the member that raises."""

    d: OperatorExpr
    k_unit: OperatorExpr
    k_s: OperatorExpr
    labels: tuple[_Affine, _Affine]
    axis: str
    number: _Affine
    carries_u: bool
    raises: int


_S = opalgebra.s_sym()


def _unit_family(result: fz.TransformResult) -> tuple[OperatorExpr, OperatorExpr, OperatorExpr]:
    """D, k(1, 0) and k(0, s) of a map's target at scale 1, read off ``fz._family``: k is linear in the label
    and in the scale, so k(1, 0) = k(1) - k(0) and k(0, s) = s k(0)."""
    d, _, k_0, _ = fz._family(result.target, 0)
    return d, fz._family(result.target, 1)[2] - k_0, _S * k_0


_TILDE = _unit_family(fz.f_to_b(-1, 0, 0))  # type B (a = 1, c = 0, d = 1), in r = exp(x)
_CHECK = tuple(map(fz._pull_back_y, _unit_family(fz.f_to_c(-1, 0, 0, 1))))  # type C (b = -1, c = 0), in y = 2 sqrt(r)
_KINDS = {
    "tilde": _Kind(*_TILDE, (_Affine((1, 0), 1), _Affine((1, 0), 0)), "eta", _Affine((1, 0, 0), 0), False, -1),
    "check1": _Kind(*_CHECK, (_Affine((0, 2), 0), _Affine((0, 2), 1)), "alpha", _Affine((0, 1, -1), 0), True, 1),
    "check2": _Kind(*_CHECK, (_Affine((0, -2), -2), _Affine((0, -2), -1)), "beta", _Affine((0, -1, -1), 0), True, 1),
}


def _kind(kind: str) -> _Kind:
    """The record of ``kind``: the one place a ladder-kind name is read."""
    if isinstance(kind, str) and kind in _KINDS:
        return _KINDS[kind]
    raise ValueError("kind must be 'tilde', 'check1' or 'check2'")


def _member(record: _Kind, sign: int, *weighted: tuple) -> OperatorExpr:
    """sign*D + k_s plus the ``weighted`` pairs, such as (k_unit, label), of ``record``'s family in one sum."""
    return opalgebra.linear_sum(((record.d, sign), (record.k_s, 1), *weighted))


def transformed_ladders(kind: str, l: Rational, m: Rational) -> tuple[OperatorExpr, OperatorExpr]:
    """Ladder pair (plus, minus) for 'tilde', 'check1' or 'check2' at (l, m): the members +-D + k(label, s)
    of the kind's family at its family labels, l + 1 and l for tilde, 2m and 2m + 1 for check1."""
    l, m = exact(l, "l"), exact(m, "m")
    record = _kind(kind)
    return tuple(_member(record, sign, (record.k_unit, label(l, m))) for sign, label in zip((1, -1), record.labels))


@cache
def _number_label(kind: str, direction: int) -> tuple[OperatorExpr, OperatorExpr]:
    """The number operator of the generator stepping ``direction``, fed T0 and N, and k at it and scale 0."""
    number = _kind(kind).number(opdsl.parse("-i*d/deta"), opdsl.parse("i*d/dalpha - i*d/dbeta"), direction)
    return number, number * _kind(kind).k_unit


@cache
def _prefix(axis: str, carries_u: bool, direction: int) -> OperatorExpr:
    """The constant left factor of a generator stepping ``direction``: u for the Weyl pairs, then exp(+-i*axis)."""
    phase = opalgebra.phase(axis, direction)
    return opalgebra.u_sym() * phase if carries_u else phase


def _generator(kind: str, direction: int, member: OperatorExpr | None = None) -> OperatorExpr:
    """The generator stepping ``direction``: its ``_prefix`` times ``member``, by default the family member with
    the number operator as its label."""
    record = _kind(kind)
    if member is None:
        member = _member(record, record.raises * direction, (_number_label(kind, direction)[1], 1))
    return _prefix(record.axis, record.carries_u, direction) * member


@lru_cache(maxsize=64)
def step(op: OperatorExpr) -> tuple[int, int]:
    """The lattice step (dmu, dnu) = (ke + ka, ke + kb) of ``op`` on a bound state's weyl labels, read off
    the one phase winding (ke, ka, kb) that all its atoms share; ``ValueError`` if their windings differ."""
    (ke, ka, kb), *others = {mono[1:4] for mono, *_ in op.atoms()} or {(0, 0, 0)}
    if others:
        raise ValueError("operator mixes phase windings")
    return ke + ka, ke + kb


class Ladder(Record):
    """One ladder generator: where it lives and its action's sign; ``ladder_move`` states its lattice move."""

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


def ladder_move(name: str, munu: tuple[int, int]) -> tuple[int, Fraction, tuple[int, int], Fraction]:
    """The exact move of the ladder ``name`` at weyl labels (mu, nu), windings unfolded, so a target with
    mu' > nu' is kept: (sign, radicand) of its coefficient sign * sqrt(radicand), the radicand n'/n times x + 1
    for each raised label x and x for each lowered one; the target (mu + dmu, nu + dnu) of its ``step``; and n'/n.
    Labels other than two nonnegative integers are refused with a ``ValueError`` naming the label."""
    lad = LADDERS.get(name)
    if lad is None:
        raise ValueError(f"unknown operator {name!r}")
    if not isinstance(munu, tuple) or len(munu) != 2:
        raise ValueError(f"weyl labels must be a pair (mu, nu), got {munu!r}")
    mu, nu = munu
    for x, label in ((mu, "mu"), (nu, "nu")):
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"{label} must be a nonnegative integer, got {x!r}")
    (dmu, dnu), n2 = step(lad.operator()), mu + nu + 1
    moved = math.prod(x + (d > 0) for x, d in ((mu, dmu), (nu, dnu)) if d)
    return lad.sign, Fraction((n2 + dmu + dnu) * moved, n2), (mu + dmu, nu + dnu), Fraction(n2 + dmu + dnu, n2)


_NAMES = {"T0": lambda: build_T()["T0"], "C": lambda: casimir()[0], **{n: lad.operator for n, lad in LADDERS.items()}}
_LEXEME = re.compile(r"\s*([A-Z][0+-]?|\d+|==|\S)")  # a capital with its 0 or sign, an integer, "==", a char


class _Reader:
    """The descent over a text's (position, lexeme) pairs, last first; ``take("integer")`` takes one past 0."""

    def __init__(self, text: str):
        self.lexemes = [(len(text), ""), *reversed([(m.start(1), m[1]) for m in _LEXEME.finditer(text)])]

    def take(self, *lexemes: str, expected: str = "") -> str | None:
        position, lexeme = self.lexemes[-1]
        if lexeme in lexemes or "integer" in lexemes and lexeme.isdecimal() and int(lexeme) > 0:
            return self.lexemes.pop()[1]
        if expected:
            raise opdsl.OperatorSyntaxError(position, f"found {opdsl._describe(lexeme)}", (expected,))

    def side(self, end: str) -> OperatorExpr:
        """Terms joined by "+" and "-" up to ``end``: "==", a bracket, or "" for the text's end."""
        pairs, sign = [], self.take("-") or "+"
        while sign:
            pairs.append((self.factor(), 1 if sign == "+" else -1))
            sign = self.take("+", "-")
        self.take(end, expected=repr(end) if end else "end of input")
        return opalgebra.linear_sum(pairs)

    def factor(self) -> OperatorExpr:
        """A name, an integer, [x,y], {x,y} or (x), each "^n" and "/n", then times the factor after "*" or beside."""
        lexeme = self.take("integer", "0", "(", "[", "{", *_NAMES, expected="a name, an integer, '(', '[' or '{'")
        if lexeme in ("[", "{"):
            x, y = self.side(","), self.side("]" if lexeme == "[" else "}")
            value = opalgebra.commutator(x, y) if lexeme == "[" else x * y + y * x
        else:
            value = self.side(")") if lexeme == "(" else _NAMES.get(lexeme, lambda: opalgebra.scalar(int(lexeme)))()
        while op := self.take("^", "/"):
            n = int(self.take("integer", expected="positive integer"))
            value = value**n if op == "^" else Fraction(1, n) * value
        return value * self.factor() if self.take("*") or self.lexemes[-1][1] in ("(", "[", "{", *_NAMES) else value


@cache
def _identity(text: str) -> AlgebraReport:
    """The report of an identity text ``lhs == rhs``, read and proved once per process."""
    return _report(text, (reader := _Reader(text)).side("=="), reader.side(""))


def reconstruction_reports(l: Rational, m: Rational) -> list[AlgebraReport]:
    """Rebuild T+-, A+-, B+- from the transformed ladders at labels (l, m).

    A plus member is taken at (l, m), a minus member at (l, m) moved by the
    generator's own step.  Its scalar family label is then replaced by the
    number operator, valued at the unmoved (l, m) (``_Kind.number`` fed l + 1
    and 2m + 1): k is linear, so that is one sum, k(label - value, s) +
    k(number, 0), which rebuilds the generator only if the moved member's label
    is that value, read as integers over one denominator.  The phase factor
    and, for the Weyl pairs, u are attached.
    """
    l, m, half, den = opalgebra._over(exact(l, "l"), exact(m, "m"), fz._HALF)  # integers over one denominator
    t0, n = l + den, 2 * m + den  # T0 = l + 1 and N = 2m + 1, the values the number maps are fed
    out = []
    for name, lad in LADDERS.items():
        dmu, dnu = step(op := lad.operator())
        direction = 1 if dmu + dnu > 0 else -1
        record = _kind(lad.ladder)
        sign = record.raises * direction
        # the minus member moves by (dl, dm) = ((dmu + dnu)/2, (dnu - dmu)/2), as mu = l - m and nu = l + m + 1
        moved = (l, m) if sign > 0 else (l + (dmu + dnu) * half, m + (dnu - dmu) * half)
        weight = record.labels[sign < 0](*moved, den=den) - record.number(t0, n, den * direction, den=den)
        member = _member(record, sign, (record.k_unit, Fraction(weight, den) if weight else 0),
                         (_number_label(lad.ladder, direction)[1], 1))
        out.append(_report(f"{name} from {lad.ladder} ladder", _generator(lad.ladder, direction, member), op))
    return out
