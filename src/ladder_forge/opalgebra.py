"""Exact noncommutative operator algebra with canonical normal ordering.

The algebra is generated by

* half-integer powers of a radial coordinate ``r`` (negative powers included),
* unit phase factors ``exp(i*k*v)`` in the angle variables ``eta``, ``alpha``,
  ``beta`` with integer winding ``k``,
* partial derivatives in ``r`` and in the three angles,

over a coefficient ring of Gaussian rationals extended by a formal positive
symbol ``s`` (Laurent polynomials in ``s``) and a formal unit ``u`` with
``u**2 = 1/(2*s)``.  ``s`` plays the role of ``sqrt(-lambda)`` for a
bound-state eigenvalue ``lambda < 0``; ``u`` is the prefactor ``(2*s)**(-1/2)``
carried by Weyl-pair generators, kept formal so every computation stays in
exact rational arithmetic.

Every value is immutable and held in normal order: within each additive term
the function factors (powers of ``r``, phase factors) stand to the left of all
derivatives.  A value is one flat map from atoms ``(mono, s_power, u_parity)``
to nonzero Gaussian rationals, where ``mono`` is the exponent pattern of a
normal-ordered monomial, so equal atoms are always merged.  Products are
rewritten into this form with the exact rules

    d/dr * r**(p/2)   = r**(p/2) * d/dr + (p/2) * r**((p-2)/2)
    d/dv * exp(i*k*v) = exp(i*k*v) * (d/dv + i*k)     for v in {eta, alpha, beta}

so operator equality is literal equality of canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

Rational = Union[int, Fraction]

PHASE_AXES = ("eta", "alpha", "beta")
DERIV_AXES = ("r", "eta", "alpha", "beta")


def _frac(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class GaussRational:
    """Exact complex number ``re + im*i`` with rational parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value: "GaussRational | Rational") -> "GaussRational":
        if isinstance(value, GaussRational):
            return value
        return GaussRational(_frac(value), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __pow__(self, exponent: int) -> "GaussRational":
        base = self.inverse() if exponent < 0 else self
        if not base.im:
            return GaussRational(base.re ** abs(exponent), Fraction(0))
        out, e = _GR_ONE, abs(exponent)
        while e:
            if e & 1:
                out = out * base
            base, e = base * base, e >> 1
        return out

    def times(self, factor: Rational) -> "GaussRational":
        f = _frac(factor)
        return GaussRational(self.re * f, self.im * f)

    def inverse(self) -> "GaussRational":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("inverse of zero")
        return GaussRational(self.re / norm, -self.im / norm)


_GR_ONE = GaussRational(Fraction(1), Fraction(0))
_GR_I = GaussRational(Fraction(0), Fraction(1))

# i**p for p mod 4
_I_CYCLE = (
    _GR_ONE,
    _GR_I,
    GaussRational(Fraction(-1), Fraction(0)),
    GaussRational(Fraction(0), Fraction(-1)),
)


def _ipow(p: int) -> GaussRational:
    return _I_CYCLE[p % 4]


class Mono(NamedTuple):
    """Exponent pattern of one normal-ordered monomial.

    ``r2`` counts half-powers of r (so r**(r2/2)); ``ke``, ``ka``, ``kb`` are
    phase windings; ``dr``, ``de``, ``da``, ``db`` are derivative orders.
    """

    r2: int
    ke: int
    ka: int
    kb: int
    dr: int
    de: int
    da: int
    db: int


_MONO_ONE = Mono(0, 0, 0, 0, 0, 0, 0, 0)


def _falling(a: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= a - i
    return out


def _phase_pass(d: int, k: int) -> tuple[tuple[int, GaussRational], ...]:
    # (d/dv)**d commuted past exp(i*k*v): sum_j C(d,j) (i*k)**(d-j) (d/dv)**j
    out = []
    for j in range(d + 1):
        p = d - j
        if p and k == 0:
            out.append((d, _GR_ONE))
            break
        g = _ipow(p).times(Fraction(comb(d, j) * k**p))
        if g:
            out.append((j, g))
    return tuple(out)


@lru_cache(maxsize=None)
def _mono_cross(m1: Mono, m2: Mono) -> tuple[tuple[Mono, GaussRational], ...]:
    """Normal-ordered expansion of the product of two monomial patterns."""
    out = []
    half2 = Fraction(m2.r2, 2)
    eta_terms = _phase_pass(m1.de, m2.ke)
    alpha_terms = _phase_pass(m1.da, m2.ka)
    beta_terms = _phase_pass(m1.db, m2.kb)
    for jr in range(m1.dr + 1):
        fr = comb(m1.dr, jr) * _falling(half2, jr)
        if not fr:
            continue
        base = GaussRational(fr, Fraction(0))
        for je, ge in eta_terms:
            for ja, ga in alpha_terms:
                for jb, gb in beta_terms:
                    g = base * ge * ga * gb
                    # je/ja/jb already count the derivatives left over after
                    # commuting past the phase factor
                    mono = Mono(
                        m1.r2 + m2.r2 - 2 * jr,
                        m1.ke + m2.ke,
                        m1.ka + m2.ka,
                        m1.kb + m2.kb,
                        m1.dr - jr + m2.dr,
                        je + m2.de,
                        ja + m2.da,
                        jb + m2.db,
                    )
                    out.append((mono, g))
    return tuple(out)


Atom = tuple  # (Mono, s_power, u_parity)


def _add_into(acc: dict, key: Atom, g: GaussRational) -> None:
    # acc[key] += g, dropping the atom when it cancels
    cur = acc.get(key)
    total = g if cur is None else cur + g
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class OperatorExpr:
    """Immutable normal-ordered sum of atoms ``g * s**s_power * u**u_parity * mono``.

    Stored as one map from ``(mono, s_power, u_parity)`` to a nonzero
    Gaussian rational ``g``, with ``u_parity`` in {0, 1}.
    """

    __slots__ = ("_terms", "_key")

    def __init__(self, terms: Mapping[Atom, GaussRational] | None = None):
        clean: dict[Atom, GaussRational] = {}
        if terms:
            for key, g in terms.items():
                if key[2] not in (0, 1):
                    raise ValueError("u parity must be 0 or 1")
                if g:
                    clean[key] = g
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_key", None)

    @classmethod
    def _wrap(cls, clean: dict[Atom, GaussRational]) -> "OperatorExpr":
        # adopt a map already free of zero values, skipping the checks
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", clean)
        object.__setattr__(out, "_key", None)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    # -- inspection ------------------------------------------------------

    def terms(self) -> tuple[tuple[Atom, GaussRational], ...]:
        """The ((mono, s_power, u_parity), gauss) pairs, sorted by atom."""
        return tuple(sorted(self._terms.items()))

    def flatten(self) -> Iterator[tuple[Mono, int, int, GaussRational]]:
        """Yield (mono, s_power, u_parity, gauss) over all stored atoms."""
        for (mono, sp, up), g in self.terms():
            yield mono, sp, up, g

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def single_term(self) -> tuple[Atom, GaussRational] | None:
        if len(self._terms) != 1:
            return None
        return next(iter(self._terms.items()))

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        acc = dict(self._terms)
        for key, g in other._terms.items():
            _add_into(acc, key, g)
        return OperatorExpr._wrap(acc)

    __radd__ = __add__

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr._wrap({key: -g for key, g in self._terms.items()})

    def __sub__(self, other) -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "OperatorExpr":
        return (-self) + other

    def __mul__(self, other) -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        acc: dict[Atom, GaussRational] = {}
        for (m1, s1, u1), g1 in self._terms.items():
            for (m2, s2, u2), g2 in other._terms.items():
                sp, up, g12 = s1 + s2, u1 + u2, g1 * g2
                if up == 2:
                    # u**2 = 1/(2*s)
                    sp, up, g12 = sp - 1, 0, g12.times(Fraction(1, 2))
                for mono, g in _mono_cross(m1, m2):
                    _add_into(acc, (mono, sp, up), g12 * g)
        return OperatorExpr._wrap(acc)

    def __rmul__(self, other) -> "OperatorExpr":
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        # scalars commute with everything, so left and right agree
        return self * other

    def __pow__(self, exponent: int) -> "OperatorExpr":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("operator powers must be nonnegative integers")
        out = identity()
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- substitution ----------------------------------------------------

    def substitute_s(self, value: Rational) -> "OperatorExpr":
        """Replace the formal symbol s by a positive rational, exactly."""
        val = _frac(value)
        if val <= 0:
            raise ValueError("s stands for sqrt(-lambda) and must be positive")
        acc: dict[Atom, GaussRational] = {}
        for (mono, sp, up), g in self._terms.items():
            if up:
                raise ValueError(
                    "coefficient contains the formal unit u; its value "
                    "(2*s)**(-1/2) is irrational for generic s"
                )
            _add_into(acc, (mono, 0, 0), g.times(val**sp))
        return OperatorExpr._wrap(acc)

    # -- equality --------------------------------------------------------

    def _canonical(self):
        key = self._key
        if key is None:
            key = tuple(sorted((k, (g.re, g.im)) for k, g in self._terms.items()))
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        try:
            from . import opdsl

            return opdsl.render(self)
        except Exception:  # pragma: no cover - render is total in practice
            return f"<OperatorExpr {len(self._terms)} terms>"


# -- constructors --------------------------------------------------------


def _atom(mono: Mono, sp: int, up: int, value: "GaussRational | Rational") -> OperatorExpr:
    return OperatorExpr({(mono, sp, up): GaussRational.of(value)})


def _as_scalar(value) -> OperatorExpr | None:
    if isinstance(value, (int, Fraction, GaussRational)):
        return scalar(value)
    return None


def zero() -> OperatorExpr:
    return OperatorExpr()


def identity() -> OperatorExpr:
    return _atom(_MONO_ONE, 0, 0, 1)


def scalar(value: "GaussRational | Rational") -> OperatorExpr:
    return _atom(_MONO_ONE, 0, 0, value)


def imag() -> OperatorExpr:
    return scalar(_GR_I)


def s_sym(power: int = 1) -> OperatorExpr:
    return _atom(_MONO_ONE, power, 0, 1)


def u_sym() -> OperatorExpr:
    return _atom(_MONO_ONE, 0, 1, 1)


def r_half_power(halves: int) -> OperatorExpr:
    """r**(halves/2); use halves=2 for r itself, halves=1 for sqrt(r)."""
    return _atom(Mono(halves, 0, 0, 0, 0, 0, 0, 0), 0, 0, 1)


def r_power(power: Rational) -> OperatorExpr:
    p = _frac(power)
    halves = p * 2
    if halves.denominator != 1:
        raise ValueError("only half-integer powers of r are representable")
    return r_half_power(int(halves))


def sqrt_r() -> OperatorExpr:
    return r_half_power(1)


def phase(axis: str, winding: int) -> OperatorExpr:
    """exp(i*winding*axis) for axis in {eta, alpha, beta}."""
    if axis not in PHASE_AXES:
        raise ValueError(f"unknown phase axis {axis!r}")
    if winding == 0:
        return identity()
    idx = PHASE_AXES.index(axis)
    k = [0, 0, 0]
    k[idx] = winding
    return _atom(Mono(0, k[0], k[1], k[2], 0, 0, 0, 0), 0, 0, 1)


def deriv(axis: str, order: int = 1) -> OperatorExpr:
    if axis not in DERIV_AXES:
        raise ValueError(f"unknown derivative axis {axis!r}")
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return identity()
    d = [0, 0, 0, 0]
    d[DERIV_AXES.index(axis)] = order
    return _atom(Mono(0, 0, 0, 0, d[0], d[1], d[2], d[3]), 0, 0, 1)


# -- derived operations --------------------------------------------------


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return a * b - b * a


def swap_alpha_beta(expr: OperatorExpr) -> OperatorExpr:
    """Exchange the alpha and beta angle variables."""
    acc: dict[Atom, GaussRational] = {}
    for (mono, sp, up), g in expr._terms.items():
        swapped = Mono(mono.r2, mono.ke, mono.kb, mono.ka, mono.dr, mono.de, mono.db, mono.da)
        acc[(swapped, sp, up)] = g
    return OperatorExpr(acc)


# -- linear span and Lie closure ----------------------------------------


@dataclass(frozen=True)
class ClosureReport:
    dimension: int
    closed: bool
    max_dim: int
    commutators_tested: int


def _vec_axpy(vec: dict, row: dict, factor: GaussRational) -> None:
    # vec -= factor * row, in place
    for key, g in row.items():
        _add_into(vec, key, -(factor * g))


class _Echelon:
    """Reduced row echelon span over the Gaussian rationals."""

    def __init__(self):
        self.rows: list[tuple[tuple, dict]] = []

    def reduce(self, vec: dict) -> dict:
        for pivot, row in self.rows:
            c = vec.get(pivot)
            if c:
                _vec_axpy(vec, row, c)
        return vec

    def insert(self, vec: dict) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        inv = vec[pivot].inverse()
        new_row = {k: g * inv for k, g in vec.items()}
        for _, row in self.rows:
            c = row.get(pivot)
            if c:
                _vec_axpy(row, new_row, c)
        self.rows.append((pivot, new_row))
        return True

    @property
    def dimension(self) -> int:
        return len(self.rows)


def closure_check(basis: Sequence[OperatorExpr], max_dim: int) -> ClosureReport:
    """Close a set of operators under commutators, tracking span dimension.

    Returns a failure report (closed=False) as soon as the running span
    dimension exceeds ``max_dim``; raises only on invalid arguments.
    """
    ops = list(basis)
    if not ops:
        raise ValueError("closure_check requires a non-empty basis")
    if max_dim < len(ops):
        raise ValueError("max_dim must be at least the basis size")
    echelon = _Echelon()
    independent: list[OperatorExpr] = []
    for op in ops:
        if echelon.insert(dict(op._terms)):
            independent.append(op)
    tested = 0
    pending = [(i, j) for j in range(len(independent)) for i in range(j)]
    while pending:
        i, j = pending.pop()
        tested += 1
        comm = commutator(independent[i], independent[j])
        if comm.is_zero:
            continue
        if echelon.insert(dict(comm._terms)):
            if echelon.dimension > max_dim:
                return ClosureReport(echelon.dimension, False, max_dim, tested)
            new_index = len(independent)
            independent.append(comm)
            pending.extend((k, new_index) for k in range(new_index))
    return ClosureReport(echelon.dimension, True, max_dim, tested)
