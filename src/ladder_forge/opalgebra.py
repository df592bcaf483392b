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
derivatives.  A value is one flat map from atoms ``(mono, s_power, u_parity)``,
``mono`` the exponent pattern of a normal-ordered monomial, to nonzero
Gaussian-integer numerators ``(re, im)`` over one positive denominator shared
by the whole value.  Equal atoms are always merged and the value is in lowest
terms (the gcd of the denominator and every numerator part is 1; zero is the
empty map over 1).  Products are rewritten into this form with the exact rules

    d/dr * r**(p/2)   = r**(p/2) * d/dr + (p/2) * r**((p-2)/2)
    d/dv * exp(i*k*v) = exp(i*k*v) * (d/dv + i*k)     for v in {eta, alpha, beta}

so operator equality is literal equality of canonical forms.  Products, sums
and the fraction-free Lie-closure echelon run on integers; ``Fraction`` appears
only where user rationals enter and where ``terms()`` reads coefficients out.

``exact`` and ``exact_int`` are the package's one test of which numbers are
exact: ``int`` and ``Fraction``; a ``float`` raises ``TypeError`` everywhere.
``OperatorExpr ** n`` takes any integer; ``n < 0`` inverts a single atom
without derivatives (scalar, s, u, r power, phase), so ``u ** -1 == 2*s*u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

Rational = Union[int, Fraction]

PHASE_AXES = ("eta", "alpha", "beta")
DERIV_AXES = ("r", "eta", "alpha", "beta")


def exact(value: Rational, name: str) -> Fraction:
    """``value`` as a ``Fraction``; any type but ``int`` and ``Fraction`` raises ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{name} must be an exact rational (int or Fraction), got {type(value).__name__}")


def exact_int(value: Rational, name: str) -> int:
    """``value`` as an ``int``; a non-integral rational raises ``ValueError`` naming ``name``."""
    frac = value if isinstance(value, int) else exact(value, name)
    if frac.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {frac}")
    return frac.numerator


@dataclass(frozen=True)
class GaussRational:
    """Exact complex number ``re + im*i`` with rational parts.

    The input and read-out form of one ``OperatorExpr`` coefficient.
    """

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value: "GaussRational | Rational") -> "GaussRational":
        if isinstance(value, GaussRational):
            return value
        return GaussRational(exact(value, "coefficient"), Fraction(0))


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


def _phase_pass(d: int, k: int) -> tuple[tuple[int, int, int], ...]:
    # (d/dv)**d commuted past exp(i*k*v): sum_j C(d,j) (i*k)**(d-j) (d/dv)**j,
    # as (j, re, im) with i**p = (-1)**(p//2) * (i if p is odd else 1)
    if k == 0 or d == 0:
        return ((d, 1, 0),)
    out = []
    for j in range(d + 1):
        p = d - j
        c = comb(d, j) * k**p * (-1) ** (p // 2)
        out.append((j, 0, c) if p % 2 else (j, c, 0))
    return tuple(out)


@lru_cache(maxsize=None)
def _mono_cross(m1: Mono, m2: Mono) -> tuple[tuple[Mono, int, int], ...]:
    """Normal-ordered expansion of the product of two monomial patterns.

    Each entry is ``(mono, re, im)``, a Gaussian-integer coefficient over the
    implied denominator ``2**m1.dr``.
    """
    phases = []
    for je, a, b in _phase_pass(m1.de, m2.ke):
        for ja, c, d in _phase_pass(m1.da, m2.ka):
            x, y = a * c - b * d, a * d + b * c
            for jb, e, f in _phase_pass(m1.db, m2.kb):
                # je/ja/jb already count the derivatives left over after
                # commuting past the phase factor
                phases.append((je + m2.de, ja + m2.da, jb + m2.db, x * e - y * f, x * f + y * e))
    ke, ka, kb = m1.ke + m2.ke, m1.ka + m2.ka, m1.kb + m2.kb
    out = []
    # falling = prod(r2 - 2i, i < jr) = 2**jr times the falling factorial of r2/2
    falling = 1
    for jr in range(m1.dr + 1):
        if jr:
            falling *= m2.r2 - 2 * (jr - 1)
            if not falling:
                break
        fr = comb(m1.dr, jr) * falling << (m1.dr - jr)
        r2, dr = m1.r2 + m2.r2 - 2 * jr, m1.dr - jr + m2.dr
        for de, da, db, re, im in phases:
            out.append((Mono(r2, ke, ka, kb, dr, de, da, db), fr * re, fr * im))
    return tuple(out)


Atom = tuple  # (Mono, s_power, u_parity)
Gauss = tuple  # (re: int, im: int), a Gaussian integer


def _lowest(acc: dict[Atom, Gauss], den: int) -> tuple[dict[Atom, Gauss], int]:
    """Drop cancelled atoms, then divide ``acc`` and ``den`` by their gcd.

    With ``den == 0`` this divides ``acc`` by its integer content.
    """
    terms = {}
    g = den
    for key, pair in acc.items():
        if pair[0] or pair[1]:
            terms[key] = pair
            if g != 1:
                g = gcd(g, *pair)
    if g > 1:
        terms = {key: (re // g, im // g) for key, (re, im) in terms.items()}
        den //= g
    return terms, den


class OperatorExpr:
    """Immutable normal-ordered sum of atoms ``g * s**s_power * u**u_parity * mono``.

    Stored as one map from ``(mono, s_power, u_parity)`` to the nonzero
    Gaussian-integer numerator ``(re, im)`` of ``g``, with ``u_parity`` in
    {0, 1}, plus one positive denominator shared by every atom, in lowest terms.
    ``OperatorExpr(mapping)`` takes ``GaussRational``, ``int`` or ``Fraction``
    values and finds the common denominator itself.
    """

    __slots__ = ("_terms", "_den", "_hash")

    def __init__(self, terms: Mapping[Atom, "GaussRational | Rational"] | None = None):
        values: dict[Atom, GaussRational] = {}
        for key, value in (terms or {}).items():
            if key[2] not in (0, 1):
                raise ValueError("u parity must be 0 or 1")
            values[key] = GaussRational.of(value)
        den = lcm(1, *(part.denominator for g in values.values() for part in (g.re, g.im)))
        acc = {key: ((g.re * den).numerator, (g.im * den).numerator) for key, g in values.items()}
        clean, den = _lowest(acc, den)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _wrap(cls, clean: dict[Atom, Gauss], den: int) -> "OperatorExpr":
        # adopt a map and denominator already in lowest terms, skipping the checks
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", clean)
        object.__setattr__(out, "_den", den)
        object.__setattr__(out, "_hash", None)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    # -- inspection ------------------------------------------------------

    def terms(self) -> tuple[tuple[Atom, GaussRational], ...]:
        """The ((mono, s_power, u_parity), gauss) pairs, sorted by atom."""
        den = self._den
        return tuple(
            (key, GaussRational(Fraction(re, den), Fraction(im, den)))
            for key, (re, im) in sorted(self._terms.items())
        )

    def flatten(self) -> Iterator[tuple[Mono, int, int, GaussRational]]:
        """Yield (mono, s_power, u_parity, gauss) over all stored atoms."""
        for (mono, sp, up), g in self.terms():
            yield mono, sp, up, g

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations -------------------------------------------------

    def _combine(self, other, sign: int) -> "OperatorExpr":
        # self + sign*other over the lcm of the two denominators
        if not isinstance(other, OperatorExpr):
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        g = gcd(self._den, other._den)
        f1, f2 = other._den // g, sign * (self._den // g)
        acc = {key: (re * f1, im * f1) for key, (re, im) in self._terms.items()}
        for key, (re, im) in other._terms.items():
            cur = acc.get(key)
            acc[key] = (re * f2, im * f2) if cur is None else (cur[0] + re * f2, cur[1] + im * f2)
        return OperatorExpr._wrap(*_lowest(acc, self._den * f1))

    def __add__(self, other) -> "OperatorExpr":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr._wrap({key: (-re, -im) for key, (re, im) in self._terms.items()}, self._den)

    def __sub__(self, other) -> "OperatorExpr":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "OperatorExpr":
        return (-self) + other

    def __mul__(self, other) -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            other = _as_scalar(other)
            if other is None:
                return NotImplemented
        # every contribution goes over den1 * den2 * 2**top: _mono_cross
        # divides by 2**m1.dr and u**2 = 1/(2*s) by one more 2
        top = 1 + max((m1.dr for m1, _, _ in self._terms), default=0)
        right = list(other._terms.items())
        acc: dict[Atom, Gauss] = {}
        get = acc.get
        for (m1, s1, u1), (a1, b1) in self._terms.items():
            for (m2, s2, u2), (a2, b2) in right:
                sp, up, shift = s1 + s2, u1 + u2, top - m1.dr
                if up == 2:
                    sp, up, shift = sp - 1, 0, shift - 1
                re, im = (a1 * a2 - b1 * b2) << shift, (a1 * b2 + b1 * a2) << shift
                for mono, gr, gi in _mono_cross(m1, m2):
                    key = (mono, sp, up)
                    x, y = re * gr - im * gi, re * gi + im * gr
                    cur = get(key)
                    acc[key] = (x, y) if cur is None else (cur[0] + x, cur[1] + y)
        return OperatorExpr._wrap(*_lowest(acc, self._den * other._den << top))

    def __rmul__(self, other) -> "OperatorExpr":
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        # scalars commute with everything, so left and right agree
        return self * other

    def __pow__(self, exponent: int) -> "OperatorExpr":
        """``self**exponent``; ``exponent < 0`` inverts a single atom without derivatives."""
        e = exact_int(exponent, "exponent")
        if len(self._terms) == 1:
            ((mono, sp, up), (re, im)), = self._terms.items()
            if not (mono.dr or mono.de or mono.da or mono.db):
                # r powers, phase factors and scalars commute, so exponents scale
                # by e; u**(up*e) = u**((up*e) mod 2) * (2*s)**-((up*e) div 2)
                q, up_e = divmod(up * e, 2)
                power = Mono(mono.r2 * e, mono.ke * e, mono.ka * e, mono.kb * e, 0, 0, 0, 0)
                den = self._den
                if e < 0:
                    # den/(re + im*i) = den*(re - im*i)/(re**2 + im**2)
                    re, im, den = den * re, -den * im, re * re + im * im
                n, out_re, out_im = abs(e), 1, 0
                while n:  # (re + im*i)**abs(e) by repeated squaring
                    if n & 1:
                        out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
                    re, im, n = re * re - im * im, 2 * re * im, n >> 1
                lift = max(-q, 0)
                return _atom(power, sp * e - q, up_e, out_re << lift, out_im << lift, den ** abs(e) << max(q, 0))
        if e < 0:
            if not self._terms:
                raise ValueError("cannot invert zero")
            if len(self._terms) > 1:
                raise ValueError("cannot invert a sum of operator terms")
            raise ValueError("cannot invert an operator containing derivatives")
        out = identity()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- substitution ----------------------------------------------------

    def substitute_s(self, value: Rational) -> "OperatorExpr":
        """Replace the formal symbol s by a positive rational, exactly."""
        val = exact(value, "value")
        if val <= 0:
            raise ValueError("s stands for sqrt(-lambda) and must be positive")
        acc: dict[Atom, tuple[Fraction, Fraction]] = {}
        for (mono, sp, up), (re, im) in self._terms.items():
            if up:
                raise ValueError(
                    "coefficient contains the formal unit u; its value "
                    "(2*s)**(-1/2) is irrational for generic s"
                )
            f = val**sp / self._den
            x, y = acc.get((mono, 0, 0), (0, 0))
            acc[mono, 0, 0] = (x + re * f, y + im * f)
        return OperatorExpr({key: GaussRational(re, im) for key, (re, im) in acc.items()})

    # -- equality --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._den, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        try:
            from . import opdsl

            return opdsl.render(self)
        except Exception:  # pragma: no cover - render is total in practice
            return f"<OperatorExpr {len(self._terms)} terms>"


# -- constructors --------------------------------------------------------


def _atom(mono: Mono, sp: int = 0, up: int = 0, re: int = 1, im: int = 0, den: int = 1) -> OperatorExpr:
    """The one-atom operator ``(re + im*i)/den * s**sp * u**up * mono``, ``den > 0``."""
    return OperatorExpr._wrap(*_lowest({(mono, sp, up): (re, im)}, den))


def _as_scalar(value) -> OperatorExpr | None:
    if isinstance(value, (int, Fraction, GaussRational)):
        return scalar(value)
    return None


def zero() -> OperatorExpr:
    return OperatorExpr()


def identity() -> OperatorExpr:
    return _atom(_MONO_ONE)


def scalar(value: "GaussRational | Rational") -> OperatorExpr:
    if isinstance(value, (int, Fraction)):
        return _atom(_MONO_ONE, re=value.numerator, den=value.denominator)
    return OperatorExpr({(_MONO_ONE, 0, 0): value})


def imag() -> OperatorExpr:
    return _atom(_MONO_ONE, re=0, im=1)


def s_sym(power: int = 1) -> OperatorExpr:
    return _atom(_MONO_ONE, exact_int(power, "power"))


def u_sym() -> OperatorExpr:
    return _atom(_MONO_ONE, 0, 1)


def r_half_power(halves: int) -> OperatorExpr:
    """r**(halves/2); use halves=2 for r itself, halves=1 for sqrt(r)."""
    return _atom(Mono(exact_int(halves, "halves"), 0, 0, 0, 0, 0, 0, 0))


def r_power(power: Rational) -> OperatorExpr:
    halves = 2 * exact(power, "power")
    if halves.denominator != 1:
        raise ValueError("only half-integer powers of r are representable")
    return r_half_power(halves.numerator)


def sqrt_r() -> OperatorExpr:
    return r_half_power(1)


def phase(axis: str, winding: int) -> OperatorExpr:
    """exp(i*winding*axis) for axis in {eta, alpha, beta}."""
    if axis not in PHASE_AXES:
        raise ValueError(f"unknown phase axis {axis!r}")
    k = [0, 0, 0]
    k[PHASE_AXES.index(axis)] = exact_int(winding, "winding")
    return _atom(Mono(0, k[0], k[1], k[2], 0, 0, 0, 0))


def deriv(axis: str, order: int = 1) -> OperatorExpr:
    if axis not in DERIV_AXES:
        raise ValueError(f"unknown derivative axis {axis!r}")
    order = exact_int(order, "order")
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    d = [0, 0, 0, 0]
    d[DERIV_AXES.index(axis)] = order
    return _atom(Mono(0, 0, 0, 0, d[0], d[1], d[2], d[3]))


# -- derived operations --------------------------------------------------


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return a * b - b * a


def swap_alpha_beta(expr: OperatorExpr) -> OperatorExpr:
    """Exchange the alpha and beta angle variables."""
    acc: dict[Atom, Gauss] = {}
    for (mono, sp, up), g in expr._terms.items():
        swapped = Mono(mono.r2, mono.ke, mono.kb, mono.ka, mono.dr, mono.de, mono.db, mono.da)
        acc[(swapped, sp, up)] = g
    return OperatorExpr._wrap(acc, expr._den)


# -- linear span and Lie closure ----------------------------------------


@dataclass(frozen=True)
class ClosureReport:
    dimension: int
    closed: bool
    max_dim: int
    commutators_tested: int


def _eliminate(vec: dict[Atom, Gauss], p: Gauss, c: Gauss, row: dict[Atom, Gauss]) -> dict[Atom, Gauss]:
    """``p*vec - c*row`` over the Gaussian integers, divided by its integer content."""
    (pr, pi), (cr, ci) = p, c
    out = {key: (pr * a - pi * b, pr * b + pi * a) for key, (a, b) in vec.items()}
    for key, (a, b) in row.items():
        x, y = out.get(key, (0, 0))
        out[key] = (x - cr * a + ci * b, y - cr * b - ci * a)
    return _lowest(out, 0)[0]


class _Echelon:
    """Fraction-free row echelon span over the Gaussian integers.

    Eliminating a row from a vector forms ``p*vec - c*row``, with ``p`` the
    row's pivot entry and ``c`` the vector's entry there, and divides the
    result by its integer content (fraction-free elimination after Bareiss,
    Math. Comp. 22 (1968) 565).  Each row is zero at the pivots of the rows
    before it, so one pass in insertion order reduces a vector; only the
    dimension is read.
    """

    def __init__(self):
        self.rows: list[tuple[Atom, dict[Atom, Gauss]]] = []

    def insert(self, vec: dict[Atom, Gauss]) -> bool:
        """Add ``vec`` if it lies outside the span; never mutates ``vec``."""
        for pivot, row in self.rows:
            c = vec.get(pivot)
            if c:
                vec = _eliminate(vec, row[pivot], c, row)
        if not vec:
            return False
        self.rows.append((min(vec), vec))
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
        if echelon.insert(op._terms):
            independent.append(op)
    tested = 0
    pending = [(i, j) for j in range(len(independent)) for i in range(j)]
    while pending:
        i, j = pending.pop()
        tested += 1
        comm = commutator(independent[i], independent[j])
        if comm.is_zero:
            continue
        if echelon.insert(comm._terms):
            if echelon.dimension > max_dim:
                return ClosureReport(echelon.dimension, False, max_dim, tested)
            new_index = len(independent)
            independent.append(comm)
            pending.extend((k, new_index) for k in range(new_index))
    return ClosureReport(echelon.dimension, True, max_dim, tested)
